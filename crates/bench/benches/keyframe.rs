//! §4.1 key-frame extraction cost vs cut density, plus the clip shape the
//! benchmark of record's `ingest_mixed` writer ingests.

use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_video::{Category, GeneratorConfig, Video, VideoGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn clip(width: u32, height: u32, shots: u32, frames_per_shot: u32) -> Video {
    let generator = VideoGenerator::new(GeneratorConfig {
        width,
        height,
        shots_per_video: shots,
        min_shot_frames: frames_per_shot,
        max_shot_frames: frames_per_shot,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    generator
        .generate(Category::Cartoon, 5)
        .expect("generation")
}

fn bench_keyframe(c: &mut Criterion) {
    let mut group = c.benchmark_group("keyframe");
    group.sample_size(10);

    // Same total length (48 frames at 96×72), different cut densities.
    for (shots, per_shot) in [(2u32, 24u32), (6, 8), (12, 4)] {
        let video = clip(96, 72, shots, per_shot);
        group.bench_with_input(
            BenchmarkId::new("extract", format!("{shots}cuts_x{per_shot}f")),
            &video,
            |b, v| b.iter(|| extract_keyframes(v, &KeyframeConfig::default())),
        );
    }

    // One 12-frame shot at 160×120: the single-key-frame clips ingested
    // while a reader queries.
    let video = clip(160, 120, 1, 12);
    group.bench_with_input(
        BenchmarkId::new("extract", "160x120_1shot_x12f"),
        &video,
        |b, v| b.iter(|| extract_keyframes(v, &KeyframeConfig::default())),
    );

    group.finish();
}

criterion_group!(benches, bench_keyframe);
criterion_main!(benches);
