//! Telemetry-primitive overhead: the counters and histograms sit on the
//! hot query and ingest paths, so their per-op cost must stay in the
//! nanoseconds (the acceptance bar is ≤5% on `query_parallel`).

use cbvr_core::telemetry::Registry;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_telemetry(c: &mut Criterion) {
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.hist_nanos");

    let mut group = c.benchmark_group("telemetry");

    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("counter_add", |b| b.iter(|| counter.add(black_box(17))));
    group.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record_nanos(black_box(v >> 33));
        })
    });
    group.bench_function("span_start_stop", |b| {
        b.iter(|| drop(registry.timer(black_box(&histogram))))
    });
    // Lookup by name — the cold path callers should avoid in loops, kept
    // here to quantify why handles are cached.
    group.bench_function("counter_lookup", |b| {
        b.iter(|| registry.counter(black_box("bench.counter")).get())
    });

    // Snapshot cost with a realistically-sized registry.
    for i in 0..64 {
        registry.counter(&format!("bench.fill.c{i}")).add(i);
        registry
            .histogram(&format!("bench.fill.h{i}_nanos"))
            .record_nanos(i * 37);
    }
    group.bench_function("render_lines_129_metrics", |b| {
        b.iter(|| registry.render_lines())
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
