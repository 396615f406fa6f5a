//! End-to-end query latency, with and without the §4.2 range index
//! (ablation A1: pruning speeds queries; the table1 bin's `--no-index`
//! flag covers the precision side).

use cbvr_core::engine::{CatalogEntry, QueryEngine, QueryOptions};
use cbvr_eval::{Corpus, CorpusConfig};
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::paper_range;
use cbvr_video::GeneratorConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn bench_retrieval(c: &mut Criterion) {
    let corpus = Corpus::build(CorpusConfig {
        videos_per_category: 4,
        generator: GeneratorConfig {
            width: 64,
            height: 48,
            ..GeneratorConfig::default()
        },
        ..CorpusConfig::default()
    })
    .expect("corpus build");

    // One pre-extracted query (extraction cost is measured in features.rs;
    // here we isolate ranking).
    let probe = corpus.query_videos(1).expect("queries");
    let frame = probe[0].1.frame(0).expect("has frames");
    let features = FeatureSet::extract(frame);
    let range = paper_range(&Histogram256::of_rgb_luma(frame));

    let mut group = c.benchmark_group("retrieval");
    group.sample_size(30);
    for (name, use_index) in [("with_index", true), ("no_index", false)] {
        let options = QueryOptions {
            k: 20,
            use_index,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("query_frame_ranked", name),
            &options,
            |b, opts| b.iter(|| corpus.engine.query_features(&features, range, opts)),
        );
    }

    // Whole query including feature extraction (the user-visible latency).
    group.bench_function("query_frame_end_to_end", |b| {
        b.iter(|| corpus.engine.query_frame(frame, &QueryOptions::default()))
    });
    group.finish();
}

/// A synthetic catalog of `size` entries built by tiling a pool of
/// distinct extracted feature sets (extraction is too slow to produce
/// thousands of unique sets; scoring cost is identical either way).
fn synthetic_engine(size: usize) -> (QueryEngine, FeatureSet, cbvr_index::RangeKey) {
    let pool: Vec<RgbImage> = (0..64u32)
        .map(|s| {
            RgbImage::from_fn(32, 24, move |x, y| {
                Rgb::new(
                    (x * (1 + s % 7) + s * 11) as u8,
                    (y * (1 + s % 5) + s * 17) as u8,
                    ((x + y) * 3 + s * 29) as u8,
                )
            })
            .unwrap()
        })
        .collect();
    let sets: Vec<(cbvr_index::RangeKey, FeatureSet)> = pool
        .iter()
        .map(|img| {
            (
                paper_range(&Histogram256::of_rgb_luma(img)),
                FeatureSet::extract(img),
            )
        })
        .collect();
    let entries: Vec<CatalogEntry> = (0..size)
        .map(|i| {
            let (range, features) = &sets[i % sets.len()];
            CatalogEntry {
                i_id: i as u64 + 1,
                v_id: (i as u64 % 100) + 1,
                range: *range,
                features: features.clone(),
            }
        })
        .collect();
    let engine = QueryEngine::from_catalog(entries, HashMap::new());
    let probe = RgbImage::from_fn(32, 24, |x, y| {
        Rgb::new((x * 5 + 3) as u8, (y * 3 + 40) as u8, ((x * y) % 251) as u8)
    })
    .unwrap();
    let range = paper_range(&Histogram256::of_rgb_luma(&probe));
    (engine, FeatureSet::extract(&probe), range)
}

/// Parallel top-k scaling: full-scan frame ranking over synthetic
/// catalogs, sweeping pool participation. `threads = 1` is the serial
/// baseline the speedup is measured against (the results are
/// bit-identical at every thread count — see
/// `crates/core/tests/parallel_equivalence.rs`).
fn bench_query_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_parallel");
    group.sample_size(20);
    for size in [1024usize, 5120] {
        let (engine, features, range) = synthetic_engine(size);
        for threads in [1usize, 2, 4, 8] {
            let options = QueryOptions {
                k: 20,
                use_index: false,
                threads,
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("catalog_{size}"), format!("threads_{threads}")),
                &options,
                |b, opts| b.iter(|| engine.query_features(&features, range, opts)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_retrieval, bench_query_parallel);
criterion_main!(benches);
