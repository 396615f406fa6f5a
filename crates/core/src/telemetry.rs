//! Deterministic runtime telemetry: counters, latency histograms and
//! RAII stage spans.
//!
//! The paper reports its system operationally — per-feature extraction
//! cost (Table 1), index search time (Fig. 9) — but the repro had no
//! runtime measurement at all. This module is the observability
//! substrate every layer reports through:
//!
//! - [`Counter`] — a lock-free monotonic event count (one atomic);
//! - [`Gauge`] — a lock-free last-value readout (current segment count,
//!   tombstoned videos) that can go down as well as up;
//! - [`Histogram`] — a fixed-log2-bucket latency histogram with
//!   `count`/`sum`/`p50`/`p99` readouts, recorded in nanoseconds;
//! - [`Span`] — an RAII guard timing one pipeline stage into a
//!   histogram (`registry.span("query.frame.score")`);
//! - [`Registry`] — the named collection of the above, rendered as
//!   stable plain text for `GET /metrics` and `cbvr stats --telemetry`.
//!
//! **Determinism.** All time flows through the injectable [`Clock`]
//! trait: production uses [`MonotonicClock`] (`std::time::Instant`),
//! tests inject a manually-advanced [`TestClock`] so every histogram
//! and span duration is bit-reproducible
//! (`crates/core/tests/telemetry_determinism.rs` pins bucket
//! boundaries, percentile math and span nesting exactly).
//!
//! **Hot-path cost.** Recording is atomics only (`Relaxed` fetch-adds);
//! the registry's name→handle maps are behind an `RwLock` but hot paths
//! resolve their handles once (see the engine's cached handle struct)
//! and never touch the lock per event. The whole module is
//! dependency-free, per the workspace's hermetic-build rule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A source of monotonic time in nanoseconds.
///
/// The zero point is arbitrary (only differences are meaningful), which
/// is what lets tests substitute a hand-advanced clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's (arbitrary) origin.
    fn now_nanos(&self) -> u64;
}

/// Production clock: `std::time::Instant` relative to construction.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // ~584 years of nanoseconds fit in u64; saturate rather than wrap.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Test clock: time advances only when the test says so, making every
/// span duration and histogram bucket exactly reproducible.
#[derive(Default)]
pub struct TestClock {
    nanos: AtomicU64,
}

impl TestClock {
    /// A clock frozen at zero.
    pub fn new() -> TestClock {
        TestClock::default()
    }

    /// Advance time by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jump to an absolute reading.
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

/// A lock-free monotonic event counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free last-value gauge.
///
/// Unlike a [`Counter`] the value is *set*, not accumulated: readouts
/// report current state (segments in the catalog, tombstoned videos)
/// rather than history, and may go down as well as up.
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the current value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count: one underflow bucket for 0, then one bucket per power
/// of two up to `u64::MAX` (bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`).
const BUCKETS: usize = 65;

/// A fixed-log2-bucket histogram of `u64` samples (by convention,
/// nanoseconds).
///
/// Log2 buckets give constant memory, a branch-free `record` (one
/// `leading_zeros` + two fetch-adds) and relative-error-bounded
/// percentiles: a reported quantile is at most 2× the true value, which
/// is the right fidelity for latency monitoring where magnitudes —
/// microseconds vs milliseconds — matter and third digits do not.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index holding `value`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// The largest value bucket `i` can hold (the reported quantile bound).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample (nanoseconds by convention).
    pub fn record_nanos(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Samples recorded into bucket `i` (diagnostics and tests).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// The quantile readout: the upper bound of the bucket containing
    /// the `ceil(q·count)`-th smallest sample (`0` for an empty
    /// histogram). Deterministic integer math — no interpolation.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Median readout (`quantile(0.5)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Tail readout (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// RAII stage timer: measures from construction to drop and records the
/// elapsed nanoseconds into its histogram.
pub struct Span {
    histogram: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    start: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.clock.now_nanos().saturating_sub(self.start);
        self.histogram.record_nanos(elapsed);
    }
}

/// A named collection of counters and histograms sharing one clock.
///
/// Handles ([`Arc<Counter>`], [`Arc<Histogram>`]) are get-or-created
/// under a short registration lock and then recorded to lock-free; hot
/// paths resolve their handles once and keep them.
pub struct Registry {
    clock: Arc<dyn Clock>,
    counters: RwLock<std::collections::BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<std::collections::BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<std::collections::BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry on the production [`MonotonicClock`].
    pub fn new() -> Registry {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an explicit clock (tests inject [`TestClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Registry {
        Registry {
            clock,
            counters: RwLock::new(std::collections::BTreeMap::new()),
            gauges: RwLock::new(std::collections::BTreeMap::new()),
            histograms: RwLock::new(std::collections::BTreeMap::new()),
        }
    }

    /// The process-wide registry every production path records into.
    ///
    /// Returned as an `Arc` so layers that hold a registry handle (the
    /// engine, the web state) can share the global by default and have a
    /// test-injected registry swapped in.
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Registry::new()))
    }

    /// The registry's clock reading (spans and ad-hoc timing share it).
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The clock itself (cached-handle structs keep a clone).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .expect("telemetry lock poisoned")
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("telemetry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .expect("telemetry lock poisoned")
            .get(name)
        {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("telemetry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .expect("telemetry lock poisoned")
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("telemetry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Start a span recording into histogram `name` when dropped.
    pub fn span(&self, name: &str) -> Span {
        self.timer(&self.histogram(name))
    }

    /// Start a span on an already-resolved histogram handle (the
    /// lock-free hot path).
    pub fn timer(&self, histogram: &Arc<Histogram>) -> Span {
        Span {
            histogram: Arc::clone(histogram),
            clock: Arc::clone(&self.clock),
            start: self.clock.now_nanos(),
        }
    }

    /// All metrics as `name value` lines, one per counter and four per
    /// histogram (`.count`, `.sum`, `.p50`, `.p99`), names escaped and
    /// the whole set sorted — the stable exposition order `/metrics`
    /// golden tests rely on.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, c) in self
            .counters
            .read()
            .expect("telemetry lock poisoned")
            .iter()
        {
            lines.push(format!("{} {}", escape_metric_name(name), c.get()));
        }
        for (name, g) in self.gauges.read().expect("telemetry lock poisoned").iter() {
            lines.push(format!("{} {}", escape_metric_name(name), g.get()));
        }
        for (name, h) in self
            .histograms
            .read()
            .expect("telemetry lock poisoned")
            .iter()
        {
            let name = escape_metric_name(name);
            lines.push(format!("{name}.count {}", h.count()));
            lines.push(format!("{name}.sum {}", h.sum()));
            lines.push(format!("{name}.p50 {}", h.p50()));
            lines.push(format!("{name}.p99 {}", h.p99()));
        }
        lines.sort();
        lines
    }

    /// [`Registry::render_lines`] joined with trailing newlines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for line in self.render_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Escape a metric name for the plain-text exposition format: any
/// character outside `[A-Za-z0-9_.]` becomes `_`, so names are always a
/// single whitespace-free token and line parsing stays unambiguous.
pub fn escape_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_renders() {
        let registry = Registry::with_clock(Arc::new(TestClock::new()));
        let g = registry.gauge("catalog.segments");
        g.set(5);
        g.set(3);
        assert_eq!(g.get(), 3, "gauges overwrite, not accumulate");
        assert_eq!(
            registry.gauge("catalog.segments").get(),
            3,
            "handles shared per name"
        );
        assert!(registry
            .render_lines()
            .contains(&"catalog.segments 3".to_string()));
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_readouts_are_exact_integer_math() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4] {
            h.record_nanos(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 10);
        // rank(0.5) = ceil(2.5) = 3 → third-smallest sample lives in
        // bucket [2,3] → upper bound 3.
        assert_eq!(h.p50(), 3);
        // rank(0.99) = ceil(4.95) = 5 → bucket [4,7] → upper bound 7.
        assert_eq!(h.p99(), 7);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(Histogram::new().p50(), 0, "empty histogram reads 0");
    }

    #[test]
    fn test_clock_drives_spans_exactly() {
        let clock = Arc::new(TestClock::new());
        let registry = Registry::with_clock(clock.clone());
        {
            let _span = registry.span("stage");
            clock.advance(1000);
        }
        let h = registry.histogram("stage");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1000);
    }

    #[test]
    fn render_is_sorted_and_escaped() {
        let registry = Registry::with_clock(Arc::new(TestClock::new()));
        registry.counter("b.second").inc();
        registry.counter("a first/with spaces").add(2);
        registry.histogram("z.hist").record_nanos(5);
        let lines = registry.render_lines();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "lines must render pre-sorted");
        assert_eq!(lines[0], "a_first_with_spaces 2");
        assert!(lines.contains(&"b.second 1".to_string()));
        assert!(lines.contains(&"z.hist.count 1".to_string()));
        assert!(lines.contains(&"z.hist.p50 7".to_string()));
        assert!(registry.render_text().ends_with('\n'));
    }

    #[test]
    fn handles_are_shared_per_name() {
        let registry = Registry::new();
        registry.counter("x").inc();
        registry.counter("x").inc();
        assert_eq!(registry.counter("x").get(), 2);
        registry.histogram("y").record_nanos(1);
        assert_eq!(registry.histogram("y").count(), 1);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
