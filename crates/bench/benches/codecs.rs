//! VSC frame-codec comparison: encode/decode throughput and compressed
//! size across category styles (flat cartoon, speckled sports, smooth
//! movie pans).

use cbvr_video::{
    decode_vsc, encode_vsc, Category, FrameCodec, GeneratorConfig, Video, VideoGenerator,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn clip(category: Category) -> Video {
    VideoGenerator::new(GeneratorConfig {
        width: 96,
        height: 72,
        shots_per_video: 2,
        min_shot_frames: 8,
        max_shot_frames: 8,
        ..GeneratorConfig::default()
    })
    .expect("valid config")
    .generate(category, 3)
    .expect("generation")
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codecs");
    group.sample_size(10);
    for category in [Category::Cartoon, Category::Sports, Category::Movie] {
        let video = clip(category);
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let label = format!("{}/{codec:?}", category.name());
            group.bench_with_input(BenchmarkId::new("encode", &label), &video, |b, v| {
                b.iter(|| encode_vsc(v, codec))
            });
            let bytes = encode_vsc(&video, codec);
            group.bench_with_input(BenchmarkId::new("decode", &label), &bytes, |b, bytes| {
                b.iter(|| decode_vsc(bytes).expect("valid stream"))
            });
        }
    }
    group.finish();

    // One-shot size report (criterion measures time; sizes go to stderr
    // so `cargo bench` output records the compression shape too).
    eprintln!("\ncompressed size per codec (bytes):");
    for category in [Category::Cartoon, Category::Sports, Category::Movie] {
        let video = clip(category);
        let raw = encode_vsc(&video, FrameCodec::Raw).len();
        eprint!("  {:<8}", category.name());
        for codec in [FrameCodec::Raw, FrameCodec::Rle, FrameCodec::Delta] {
            let n = encode_vsc(&video, codec).len();
            eprint!(" {codec:?}={n} ({:.0}%)", 100.0 * n as f64 / raw as f64);
        }
        eprintln!();
    }
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
