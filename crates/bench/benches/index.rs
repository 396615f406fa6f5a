//! §4.2 range-finder: the cost of assigning one frame's range key.

use cbvr_imgproc::{Gray, GrayImage, Histogram256};
use cbvr_index::paper_range;
use criterion::{criterion_group, criterion_main, Criterion};

fn histogram(seed: u64) -> Histogram256 {
    let img = GrayImage::from_fn(64, 64, |x, y| {
        let mut s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((y as u64) << 32 | x as u64);
        s ^= s >> 33;
        s = s.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        Gray((s >> 56) as u8)
    })
    .expect("nonzero dims");
    Histogram256::of_gray(&img)
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");

    let h = histogram(1);
    group.bench_function("paper_range_assign", |b| b.iter(|| paper_range(&h)));

    group.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
