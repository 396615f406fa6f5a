//! Storage-engine primitives: B+-tree insert/get, blob write/read, page
//! cache misses and the durable-commit protocol.

use cbvr_storage::backend::MemBackend;
use cbvr_storage::btree::BTree;
use cbvr_storage::heap::{read_blob, write_blob};
use cbvr_storage::page::Page;
use cbvr_storage::pager::{Pager, DEFAULT_CACHE_PAGES};
use cbvr_storage::{CbvrDatabase, VideoRecord};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/btree");
    group.sample_size(20);

    group.bench_function("insert_1000", |b| {
        b.iter(|| {
            let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), 256).unwrap();
            let mut tree = BTree::create(&mut pager).unwrap();
            for k in 0..1000u64 {
                tree.insert(&mut pager, k, b"value-bytes-here").unwrap();
            }
            tree
        })
    });

    // Pre-built tree for lookups.
    let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), 1024).unwrap();
    let mut tree = BTree::create(&mut pager).unwrap();
    for k in 0..10_000u64 {
        tree.insert(&mut pager, k, b"value-bytes-here").unwrap();
    }
    group.bench_function("get_hot", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            tree.get(&mut pager, k).unwrap()
        })
    });
    group.finish();
}

fn bench_blob(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/blob");
    group.sample_size(20);
    for size in [4_096usize, 262_144] {
        let data = vec![0xA5u8; size];
        group.bench_with_input(BenchmarkId::new("write", size), &data, |b, data| {
            let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), 4096).unwrap();
            b.iter(|| write_blob(&mut pager, data).unwrap())
        });
        let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), 4096).unwrap();
        let blob = write_blob(&mut pager, &data).unwrap();
        group.bench_with_input(BenchmarkId::new("read", size), &blob, |b, blob| {
            b.iter(|| read_blob(&mut pager, *blob).unwrap())
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/cache");
    group.sample_size(20);
    // Eight times more committed pages than the default cache holds,
    // read in a cycle: once the cache is full every read misses and
    // evicts, so this prices the eviction policy's bookkeeping.
    let pages = 8 * DEFAULT_CACHE_PAGES;
    let mut pager = Pager::open(MemBackend::new(), MemBackend::new(), DEFAULT_CACHE_PAGES).unwrap();
    let ids: Vec<_> = (0..pages)
        .map(|i| {
            let id = pager.allocate().unwrap();
            pager.write_page(id, Page::new()).unwrap();
            if i % 512 == 511 {
                pager.commit().unwrap();
            }
            id
        })
        .collect();
    pager.commit().unwrap();
    for &id in &ids {
        pager.read_page(id).unwrap();
    }
    group.bench_function("read_miss_full_cache", |b| {
        let mut next = ids.iter().cycle();
        b.iter(|| pager.read_page(*next.next().unwrap()).unwrap())
    });
    group.finish();
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/commit");
    group.sample_size(20);
    group.bench_function("insert_video_durable", |b| {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let record = VideoRecord {
            v_name: "bench.vsc".into(),
            video: vec![1u8; 100_000],
            stream: vec![2u8; 10_000],
            dostore: 0,
        };
        b.iter(|| db.insert_video(&record).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_btree, bench_blob, bench_cache, bench_commit);
criterion_main!(benches);
