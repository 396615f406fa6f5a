//! Per-extractor throughput: the cost column behind Table 1's feature
//! set. One group per feature, at 64×48, 128×96 and 160×120 frames
//! (160×120 is the size of generated clips and web query frames), plus
//! `to_gray`, the luma conversion four of the extractors start from, and
//! `morphology_chain`, the §4.8 dilate-erode-erode-dilate pass that region
//! growing runs on the binarised frame.

use cbvr_features::correlogram::AutoColorCorrelogram;
use cbvr_features::gabor::GaborTexture;
use cbvr_features::glcm::GlcmTexture;
use cbvr_features::histogram::ColorHistogram;
use cbvr_features::naive::NaiveSignature;
use cbvr_features::region::RegionGrowing;
use cbvr_features::tamura::TamuraTexture;
use cbvr_features::FeatureSet;
use cbvr_imgproc::morph::paper_morphology_chain;
use cbvr_imgproc::threshold::binarize_fuzzy;
use cbvr_imgproc::RgbImage;
use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn frame(width: u32, height: u32) -> RgbImage {
    let generator = VideoGenerator::new(GeneratorConfig {
        width,
        height,
        ..GeneratorConfig::default()
    })
    .expect("valid config");
    let video = generator.generate(Category::Sports, 3).expect("generation");
    video.frame(0).expect("has frames").clone()
}

fn bench_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("features");
    group.sample_size(20);
    for (w, h) in [(64u32, 48u32), (128, 96), (160, 120)] {
        let img = frame(w, h);
        let label = format!("{w}x{h}");
        group.bench_with_input(BenchmarkId::new("to_gray", &label), &img, |b, img| {
            b.iter(|| img.to_gray())
        });
        group.bench_with_input(BenchmarkId::new("histogram", &label), &img, |b, img| {
            b.iter(|| ColorHistogram::extract(img))
        });
        group.bench_with_input(BenchmarkId::new("glcm", &label), &img, |b, img| {
            b.iter(|| GlcmTexture::extract(img))
        });
        group.bench_with_input(BenchmarkId::new("gabor", &label), &img, |b, img| {
            b.iter(|| GaborTexture::extract(img))
        });
        group.bench_with_input(BenchmarkId::new("tamura", &label), &img, |b, img| {
            b.iter(|| TamuraTexture::extract(img))
        });
        group.bench_with_input(
            BenchmarkId::new("autocorrelogram", &label),
            &img,
            |b, img| b.iter(|| AutoColorCorrelogram::extract(img)),
        );
        group.bench_with_input(BenchmarkId::new("naive", &label), &img, |b, img| {
            b.iter(|| NaiveSignature::extract(img))
        });
        group.bench_with_input(
            BenchmarkId::new("region_growing", &label),
            &img,
            |b, img| b.iter(|| RegionGrowing::extract(img)),
        );
        let binary = binarize_fuzzy(&img.to_gray());
        group.bench_with_input(
            BenchmarkId::new("morphology_chain", &label),
            &binary,
            |b, binary| b.iter(|| paper_morphology_chain(binary)),
        );
        group.bench_with_input(BenchmarkId::new("full_set", &label), &img, |b, img| {
            b.iter(|| FeatureSet::extract(img))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
