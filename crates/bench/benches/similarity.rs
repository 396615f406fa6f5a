//! DP/DTW sequence-similarity scaling, and the clip-to-clip query that
//! uses it.

use cbvr_core::dtw::dtw_distance;
use cbvr_core::engine::QueryOptions;
use cbvr_core::KeyframeConfig;
use cbvr_eval::{Corpus, CorpusConfig};
use cbvr_video::GeneratorConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn sequence(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37 + phase).sin() * 10.0)
        .collect()
}

fn bench_dtw(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity/dtw");
    for n in [16usize, 64, 256] {
        let a = sequence(n, 0.0);
        let b = sequence(n, 0.4);
        group.bench_with_input(BenchmarkId::new("full", n), &n, |bch, _| {
            bch.iter(|| dtw_distance(&a, &b, |x, y| (x - y).abs()))
        });
    }
    group.finish();
}

fn bench_clip_query(c: &mut Criterion) {
    let corpus = Corpus::build(CorpusConfig {
        videos_per_category: 2,
        generator: GeneratorConfig {
            width: 64,
            height: 48,
            shots_per_video: 3,
            min_shot_frames: 4,
            max_shot_frames: 6,
            ..GeneratorConfig::default()
        },
        ..CorpusConfig::default()
    })
    .expect("corpus build");
    let probe = corpus.query_videos(1).expect("queries");
    let video = &probe[0].1;

    let mut group = c.benchmark_group("similarity/clip_query");
    group.sample_size(10);
    group.bench_function("query_video_end_to_end", |b| {
        b.iter(|| {
            corpus.engine.query_video(
                video,
                &KeyframeConfig::default(),
                &QueryOptions {
                    k: 5,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dtw, bench_clip_query);
criterion_main!(benches);
