//! §4.2 range-finder: assignment cost and candidate lookup vs the linear
//! scan it replaces (ablation A1's latency side).

use cbvr_imgproc::{Gray, GrayImage, Histogram256};
use cbvr_index::{paper_range, RangeIndex, RangeKey};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

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

    for n in [1_000usize, 10_000] {
        // Build an index of n items spread over the realistic buckets.
        let mut index = RangeIndex::new();
        for i in 0..n {
            let key = paper_range(&histogram(i as u64));
            index.insert(key, i as u32);
        }
        let probe = RangeKey::new(96, 127);
        group.bench_with_input(BenchmarkId::new("overlap_lookup", n), &index, |b, idx| {
            b.iter(|| idx.overlap_candidates(probe))
        });
        // The whole 0–255 axis overlaps every bucket: the unpruned scan.
        group.bench_with_input(BenchmarkId::new("full_scan_baseline", n), &index, |b, idx| {
            b.iter(|| idx.overlap_candidates(RangeKey::new(0, 255)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
