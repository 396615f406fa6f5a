//! Host-speed calibration.
//!
//! The small shared hosts this benchmark is meant for change the speed of
//! the same code by up to 1.8× within seconds, as other tenants come and
//! go, and stay in one state for tens of seconds at a time. Run-to-run
//! spread then reflects the host, not the program. A run therefore also
//! times a fixed reference computation at idle moments throughout the
//! run — no op in flight — and scales the times of ops that, like the
//! reference, run on one thread beside an idle vCPU by
//! [`REFERENCE_MS`] / median(reference time), and their rates by the
//! inverse: the figures the run would have shown on a host that runs the
//! reference in [`REFERENCE_MS`]. The correction is partial: with a
//! quarter of the VM's CPU time stolen by the host, the reference slowed
//! by 1.24× and the web frame query by 1.42×.
//!
//! The reference is a spatial Gabor filter pass (two complex kernels over
//! a fixed 64×48 gray raster, in `f64`, with clamped pixel reads): the
//! kind of code the program spends most of its time in, and measured to
//! slow down with the host by about as much as the program's own feature
//! extraction, where simpler loops slow down less. It is the benchmark's
//! own frozen code, so no change to the program can make it faster or
//! slower. Raw and scaled values are both printed.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The reference computation's time on the reference host, in ms (about
/// its time on an unloaded 2-vCPU cloud host).
pub const REFERENCE_MS: f64 = 5.0;

/// Raster side lengths: the size the program's Gabor stage works at.
const WIDTH: i64 = 64;
const HEIGHT: i64 = 48;

/// Timed runs of the reference computation.
#[derive(Default)]
pub struct Calibration {
    samples: Mutex<Vec<f64>>,
}

impl Calibration {
    /// Time the reference computation once. Call only while nothing else
    /// the run started is busy.
    pub fn sample(&self) {
        let raster = raster();
        let start = Instant::now();
        std::hint::black_box(reference(std::hint::black_box(&raster)));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples.lock().expect("calibration lock").push(ms);
    }

    /// Median reference time in ms (`None` before any sample).
    pub fn median_ms(&self) -> Option<f64> {
        let mut s = self.samples.lock().expect("calibration lock").clone();
        s.sort_by(f64::total_cmp);
        (!s.is_empty()).then(|| s[s.len() / 2])
    }

    /// Record `host.factor` and, to judge the host by, the share of CPU
    /// time the host took away from the VM since `since`.
    pub fn report(&self, report: &mut crate::run::Report, since: &Ticks) {
        report.put("host.factor", "ratio", self.factor());
        report.put("host.steal_share", "ratio", since.steal_share());
    }

    /// `REFERENCE_MS / median`: multiply a time by it, divide a rate.
    /// The median, like the p50s it scales, passes over the few samples
    /// during which the host took the vCPU away (the mean read up to 25%
    /// slower than the median on such a host, and widened the spread).
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms().expect("at least one calibration sample")
    }
}

/// The VM's CPU time counters (`/proc/stat`): time spent running, and
/// time the host took away while a vCPU wanted to run (`steal`).
pub struct Ticks {
    busy: u64,
    steal: u64,
}

impl Ticks {
    /// Read the counters now (zeros where `/proc/stat` is unreadable).
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        Ticks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time wanted since `self` that the host took away.
    pub fn steal_share(&self) -> f64 {
        let now = Ticks::now();
        let steal = now.steal.saturating_sub(self.steal) as f64;
        let busy = now.busy.saturating_sub(self.busy) as f64;
        if steal + busy > 0.0 {
            steal / (steal + busy)
        } else {
            0.0
        }
    }
}

/// Lets one thread sample the host speed while the ops of other threads
/// are held back: each such op runs inside [`Gate::enter`], and
/// [`Gate::calibrate`] waits for the ops in flight, samples, and lets the
/// held ops go.
#[derive(Default)]
pub struct Gate {
    /// Whether a sample is being taken, and the ops in flight.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

/// One op in flight through a [`Gate`]; leaves it on drop.
pub struct Pass<'a>(&'a Gate);

impl Gate {
    /// Wait while a sample is taken, then count one op in flight until
    /// the pass drops. Returns the pass and the time waited.
    pub fn enter(&self) -> (Pass<'_>, Duration) {
        let start = Instant::now();
        let mut state = self.state.lock().expect("gate lock");
        while state.0 {
            state = self.changed.wait(state).expect("gate lock");
        }
        state.1 += 1;
        (Pass(self), start.elapsed())
    }

    /// Wait until no op is in flight and take one sample; ops that try to
    /// enter meanwhile wait.
    pub fn calibrate(&self, calibration: &Calibration) {
        let mut state = self.state.lock().expect("gate lock");
        state.0 = true;
        while state.1 > 0 {
            state = self.changed.wait(state).expect("gate lock");
        }
        drop(state);
        calibration.sample();
        self.state.lock().expect("gate lock").0 = false;
        self.changed.notify_all();
    }
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        self.0.state.lock().expect("gate lock").1 -= 1;
        self.0.changed.notify_all();
    }
}

/// A fixed pseudo-random raster.
fn raster() -> Vec<u8> {
    (0..(WIDTH * HEIGHT) as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect()
}

/// Gabor kernel parameters: (frequency, orientation).
const KERNELS: [(f64, f64); 2] = [(0.2, 0.5), (0.1414, 1.2)];

/// Every Gabor kernel over every raster row; returns the summed response
/// magnitudes.
fn reference(raster: &[u8]) -> f64 {
    (0..KERNELS.len()).map(|k| rows(raster, k, 0, HEIGHT)).sum()
}

/// Complex Gabor kernel `k` (built, then convolved over raster rows
/// `y0..y1` with clamped pixel reads); returns the summed magnitudes.
fn rows(raster: &[u8], k: usize, y0: i64, y1: i64) -> f64 {
    let pixel = |x: i64, y: i64| {
        let (x, y) = (x.clamp(0, WIDTH - 1), y.clamp(0, HEIGHT - 1));
        raster[(y * WIDTH + x) as usize] as f64
    };
    let (frequency, theta) = KERNELS[k];
    let sigma = 0.56 / frequency;
    let radius = (2.0 * sigma).ceil().min(10.0) as i64;
    let (sin_t, cos_t) = theta.sin_cos();
    let omega = 2.0 * std::f64::consts::PI * frequency;
    let (mut re, mut im) = (Vec::new(), Vec::new());
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let xr = dx as f64 * cos_t + dy as f64 * sin_t;
            let yr = -(dx as f64) * sin_t + dy as f64 * cos_t;
            let envelope = (-(xr * xr + yr * yr) / (2.0 * sigma * sigma)).exp();
            re.push(envelope * (omega * xr).cos());
            im.push(envelope * (omega * xr).sin());
        }
    }
    let mut total = 0.0;
    for y in y0..y1 {
        for x in 0..WIDTH {
            let (mut acc_re, mut acc_im, mut i) = (0.0, 0.0, 0);
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    let v = pixel(x + dx, y + dy);
                    acc_re += re[i] * v;
                    acc_im += im[i] * v;
                    i += 1;
                }
            }
            total += (acc_re * acc_re + acc_im * acc_im).sqrt();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_factor_is_reference_over_median() {
        assert_eq!(reference(&raster()), reference(&raster()));
        let c = Calibration::default();
        for ms in [4.0, 10.0, 5.0] {
            c.samples.lock().unwrap().push(ms);
        }
        assert_eq!(c.median_ms(), Some(5.0));
        assert_eq!(c.factor(), REFERENCE_MS / 5.0);
    }
}
