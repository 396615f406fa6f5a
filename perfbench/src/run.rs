//! What every workload shares: the run environment, the report it
//! fills, set-up timing, and the readings taken from the program's own
//! telemetry (`Registry::global`), which the benchmark reads but never
//! changes.

use crate::spec;
use crate::stats::{ratio, Samples};
use crate::trace::{totals, Ctx, Tracer};
use cbvr_core::{ExecPool, FeatureWeights, QueryEngine, QueryOptions, Registry};
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_index::RangeKey;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Results per query, as the web tier's `k=10`.
pub const K: usize = 10;

/// The reported tail percentile. The scarcest op types number only
/// 100–160 per run (web sessions at a rate that keeps them apart, clip
/// queries of ~140 ms, ingests of ~230 ms), which leaves ten samples
/// beyond p90 but not beyond p95.
pub const TAIL: f64 = 90.0;

/// One run's parameters.
pub struct Env {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Span recorder (inert unless `--trace 1`).
    pub tracer: Tracer,
    /// Scratch directory for databases and the trace file.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Ops attempted in the timed region.
    pub attempted: u64,
    /// Ops that failed: error reply, transport error or wrong result.
    pub failed: u64,
    values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Values before host-speed scaling, by metric name.
    raw: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.values.insert(name, (value, unit));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Scale the named times by `factor` (see [`crate::calib`]) and the
    /// named rates by its inverse, keeping the raw values for the report.
    pub fn scale(&mut self, factor: f64, times: &[&'static str], rates: &[&'static str]) {
        let scaled = times
            .iter()
            .map(|t| (t, factor))
            .chain(rates.iter().map(|r| (r, 1.0 / factor)));
        for (name, by) in scaled {
            let (value, _) = self.values.get_mut(name).expect("scale a recorded metric");
            self.raw.insert(name, *value);
            *value *= by;
        }
    }

    /// Record the p50 and the `pct` tail of `samples` under the given
    /// names. Exits the run if the sample cannot support either.
    pub fn put_latency(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        pct: f64,
        samples: &Samples,
    ) {
        for (name, p) in [(p50, 50.0), (tail, pct)] {
            match samples.percentile(p) {
                Ok(v) => self.put(name, "ms", v),
                Err(beyond) => fail(&format!(
                    "{name}: {} samples leave {beyond} beyond p{p}; a run needs at least {} — \
                     measure longer",
                    samples.len(),
                    crate::stats::MIN_BEYOND
                )),
            }
        }
    }

    /// Print every recorded metric, then the result line: the
    /// end-to-end metrics, or with tracing the per-layer ones.
    pub fn emit(&self, traced: bool) {
        for (name, (value, unit)) in &self.values {
            println!("# {name:<34} {value:>14.4} {unit}");
        }
        for (name, value) in &self.raw {
            println!("# raw.{name:<30} {value:>14.4} (before host-speed scaling)");
        }
        println!(
            "# attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        let wanted: &[spec::Metric] = if traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        let metrics: Vec<String> = wanted
            .iter()
            .map(|m| {
                // A count or ratio of a layer this workload does not
                // exercise reads 0; every time must be measured.
                let value = match self.get(m.name) {
                    Some(v) => v,
                    None if traced && !matches!(m.unit, "ms" | "s") => 0.0,
                    None => fail(&format!("{} not measured", m.name)),
                };
                if !value.is_finite() {
                    fail(&format!("{} is not finite: {value}", m.name));
                }
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Abort the run without a result line.
pub fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2)
}

/// Build the workload's state `SETUP_REPEATS` times, keeping the last
/// build; records the median build time as `setup_s`. Each earlier build
/// is dropped before the next starts, so they never coexist in memory.
pub fn timed_setup<T>(env: &Env, report: &mut Report, mut build: impl FnMut(usize, Ctx) -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for attempt in 0..SETUP_REPEATS {
        drop(built.take());
        let op = env.tracer.op("op.setup");
        let start = Instant::now();
        built = Some(build(attempt, op.ctx()));
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    report.put("setup_s", "s", times[times.len() / 2]);
    built.expect("at least one set-up ran")
}

/// A point-in-time copy of every counter, gauge and histogram
/// count/sum in the global registry.
pub struct Snap(BTreeMap<String, u64>);

impl Snap {
    /// Read the registry now.
    pub fn take() -> Snap {
        Snap(
            Registry::global()
                .render_lines()
                .into_iter()
                .filter_map(|line| {
                    let (name, value) = line.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A value (0 when the metric was never registered).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }

    /// `later − self` for one metric.
    pub fn delta(&self, later: &Snap, name: &str) -> f64 {
        later.get(name) - self.get(name)
    }

    /// Mean of a nanosecond histogram over `self..later`, in ms.
    pub fn mean_ms(&self, later: &Snap, histogram: &str) -> f64 {
        let count = self.delta(later, &format!("{histogram}.count"));
        ratio(self.delta(later, &format!("{histogram}.sum")), count) / 1e6
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or_else(
            || fail("cannot read VmHWM from /proc/self/status"),
            |kb| kb / 1024.0,
        )
}

/// Frame-query stage times and pool use over a timed region.
pub fn frame_path_layers(report: &mut Report, before: &Snap, after: &Snap, wall_s: f64) {
    report.put(
        "engine.gather_ms",
        "ms",
        before.mean_ms(after, "query.frame.scan_nanos"),
    );
    report.put(
        "engine.score_ms",
        "ms",
        before.mean_ms(after, "query.frame.score_nanos"),
    );
    report.put(
        "engine.merge_ms",
        "ms",
        before.mean_ms(after, "query.frame.merge_nanos"),
    );
    let capacity = wall_s * 1e9 * ExecPool::global().max_threads() as f64;
    report.put(
        "pool.busy_share",
        "ratio",
        ratio(before.delta(after, "pool.busy_nanos.sum"), capacity),
    );
    report.put(
        "pool.steals_per_job",
        "count",
        ratio(
            before.delta(after, "pool.steals"),
            before.delta(after, "pool.jobs"),
        ),
    );
}

/// A frame query as the benchmark replays it.
#[derive(Clone)]
pub struct FrameQuery {
    /// Query descriptors.
    pub features: FeatureSet,
    /// Query range key.
    pub range: RangeKey,
    /// Combined or single-feature weights.
    pub weights: FeatureWeights,
}

impl FrameQuery {
    /// The web tier's defaults (index and abandon on, every core).
    pub fn options(&self) -> QueryOptions {
        QueryOptions {
            k: K,
            weights: self.weights.clone(),
            ..QueryOptions::default()
        }
    }

    /// The web tier's defaults on the calling thread alone.
    pub fn serial_options(&self) -> QueryOptions {
        QueryOptions {
            threads: 1,
            ..self.options()
        }
    }

    /// The exact reference path: one thread, no early abandon.
    pub fn exact_options(&self) -> QueryOptions {
        QueryOptions {
            abandon: false,
            ..self.serial_options()
        }
    }
}

/// Replay `queries` serially (one thread, abandon on) to read the index
/// and cascade work counts, which repeat exactly for a given seed (in
/// parallel runs they vary with chunk-claim timing).
pub fn cascade_counts(report: &mut Report, engine: &QueryEngine, queries: &[FrameQuery]) {
    let before = Snap::take();
    for q in queries {
        std::hint::black_box(engine.query_features(&q.features, q.range, &q.serial_options()));
    }
    let after = Snap::take();
    let n = queries.len() as f64;
    let candidates = before.delta(&after, "query.frame.candidates");
    let abandoned: f64 = FeatureKind::ALL
        .iter()
        .map(|k| before.delta(&after, &format!("query.abandon.{}", k.name())))
        .sum();
    report.put("index.candidates_per_query", "count", ratio(candidates, n));
    report.put(
        "index.prune_ratio",
        "ratio",
        ratio(candidates, n * engine.len() as f64),
    );
    report.put(
        "arena.elements_per_query",
        "count",
        ratio(before.delta(&after, "query.scan.elements"), n),
    );
    report.put("arena.abandon_ratio", "ratio", ratio(abandoned, candidates));
    report.put(
        "arena.survivor_ratio",
        "ratio",
        ratio(before.delta(&after, "query.scan.survivors"), candidates),
    );
}

/// Extraction and key-frame detection cost over the whole run (set-up
/// included): every extraction goes through the ingest extractor, whose
/// per-kind histograms the program exports; key-frame detection is the
/// program's own `ingest.keyframes_nanos` plus the benchmark's traced
/// calls.
pub fn extraction_layers(report: &mut Report, tracer: &Tracer) {
    // The registry starts empty with the process, so totals are readings.
    let now = Snap::take();
    let kinds = ["sch", "glcm", "gabor", "tamura", "acc", "naive", "srg"];
    let frames = now.get("ingest.extract.gabor_nanos.count");
    let total: f64 = kinds
        .iter()
        .map(|k| now.get(&format!("ingest.extract.{k}_nanos.sum")))
        .sum();
    let gabor = now.get("ingest.extract.gabor_nanos.sum");
    report.put("features.extract_ms", "ms", ratio(total, frames) / 1e6);
    report.put("features.gabor_ms", "ms", ratio(gabor, frames) / 1e6);
    report.put("features.gabor_share", "ratio", ratio(gabor, total));
    let traced = totals(&tracer.finished());
    let own = traced
        .get("keyframe.extract_keyframes")
        .cloned()
        .unwrap_or_default();
    let detect_ns = now.get("ingest.keyframes_nanos.sum") + own.total_ns as f64;
    let detect_n = now.get("ingest.keyframes_nanos.count") + own.calls as f64;
    report.put("keyframe.detect_ms", "ms", ratio(detect_ns, detect_n) / 1e6);
}

/// Self time per traced span name, printed as a table.
pub fn print_self_times(tracer: &Tracer) {
    let spans = tracer.finished();
    println!("# span                               calls     total_ms      self_ms");
    for (name, t) in totals(&spans) {
        println!(
            "# {name:<32} {:>8} {:>12.3} {:>12.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
