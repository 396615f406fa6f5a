//! Query hot-path benchmark: the columnar arena's bound tier, with every
//! survivor scored in full, vs the naive full scan (`abandon: false`),
//! swept over catalog size × thread count.
//!
//! For every configuration the run records wall time, ns/candidate, and
//! the *exact* work counters the engine's telemetry exposes
//! (`query.scan.elements`, `query.abandon.<stage>` — the tier's rejections
//! by the stage they stopped at — and `query.scan.survivors`), then writes
//! everything to `BENCH_query.json`.
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin bench_query [-- --smoke] [--out FILE]
//! ```
//!
//! `--smoke` is the CI mode: a single 10 240-frame sweep at `k = 10`
//! that **fails (exit 1)** unless the serial tiered scan visits ≤ 70% of
//! the distance-kernel elements the full scan visits, the tier's own
//! included — a floor of a ≥30% reduction in element operations.
//!
//! A serial clip sweep runs DTW clip queries over a catalog of contiguous
//! 1–8 key-frame videos with abandon off and on, reading the exact
//! `query.clip.elements` counter (kernel elements, the bound tier's
//! included); `--smoke` also **fails** unless abandon-on visits ≤ 50% of
//! the abandon-off elements.
//!
//! Both sweeps report the bound tier apart: its elements
//! (`query.scan.tier_elements`, `query.clip.tier_elements`) beside the
//! exact kernels', and the share of the frame candidates
//! (`query.scan.tier_candidates`) and DTW cells (`query.clip.tier_cells`)
//! it rejects before any exact kernel runs. `--smoke` **fails** unless the
//! tier rejects at least half of the frame candidates it sees.
//!
//! The run also performs a query-during-ingest sweep over the segmented
//! catalog — query latency measured idle vs racing a writer thread that
//! ingests, removes and compacts — and writes it to
//! `BENCH_concurrency.json` (`--out-concurrency FILE`).

use cbvr_core::{QueryEngine, QueryOptions, Registry};
use cbvr_core::engine::CatalogEntry;
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::paper_range;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Distinct base frames; catalogs tile these (feature extraction is the
/// expensive part — the scan cost under test only depends on descriptor
/// variety, which 64 distinct frames provide).
const BASE_FRAMES: usize = 64;

/// Clip queries per clip-sweep run.
const CLIP_QUERIES: usize = 8;

fn synthetic_frame(rng: &mut rand::rngs::StdRng) -> RgbImage {
    let base = Rgb::new(
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
    );
    let fx = rng.gen_range(1..=9u32);
    let fy = rng.gen_range(1..=9u32);
    RgbImage::from_fn(32, 32, |x, y| {
        Rgb::new(
            base.r.wrapping_add((x * fx) as u8),
            base.g.wrapping_add((y * fy) as u8),
            base.b.wrapping_add(((x * y) % 251) as u8),
        )
    })
    .unwrap()
}

struct Run {
    size: usize,
    threads: usize,
    abandon: bool,
    wall_ns: u64,
    candidates: u64,
    elements: u64,
    survivors: u64,
    abandoned: u64,
    tier: Tier,
}

/// The bound tier's work in one run: kernel elements, and the frame
/// candidates or DTW cells it checked and rejected.
#[derive(Clone, Copy, Default)]
struct Tier {
    elements: u64,
    seen: u64,
    rejected: u64,
}

impl Tier {
    /// Counter deltas of the tier's counters under `prefix` (`query.scan`
    /// or `query.clip`) since `before`.
    fn read(registry: &Registry, prefix: &str, seen: &str, before: Tier) -> Tier {
        let get = |name: &str| registry.counter(&format!("{prefix}.{name}")).get();
        Tier {
            elements: get("tier_elements") - before.elements,
            seen: get(seen) - before.seen,
            rejected: get("tier_rejects") - before.rejected,
        }
    }

    fn reject_share(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.seen as f64
    }

    fn to_json(self) -> String {
        format!(
            "{{\"elements\": {}, \"seen\": {}, \"rejected\": {}}}",
            self.elements, self.seen, self.rejected
        )
    }
}

impl Run {
    fn ns_per_candidate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        self.wall_ns as f64 / self.candidates as f64
    }

    fn abandoned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        self.abandoned as f64 / self.candidates as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"size\": {}, \"threads\": {}, \"abandon\": {}, ",
                "\"wall_ns\": {}, \"ns_per_candidate\": {:.2}, ",
                "\"candidates\": {}, \"elements\": {}, \"survivors\": {}, ",
                "\"abandoned\": {}, \"abandoned_fraction\": {:.4}, \"tier\": {}}}"
            ),
            self.size,
            self.threads,
            self.abandon,
            self.wall_ns,
            self.ns_per_candidate(),
            self.candidates,
            self.elements,
            self.survivors,
            self.abandoned,
            self.abandoned_fraction(),
            self.tier.to_json(),
        )
    }
}

struct ClipRun {
    size: usize,
    videos: usize,
    abandon: bool,
    queries: usize,
    wall_ns: u64,
    elements: u64,
    abandoned: u64,
    tier: Tier,
}

impl ClipRun {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"size\": {}, \"videos\": {}, \"abandon\": {}, \"queries\": {}, ",
                "\"wall_ns_per_query\": {}, \"elements_per_query\": {}, ",
                "\"abandoned_per_query\": {:.1}, \"tier\": {}}}"
            ),
            self.size,
            self.videos,
            self.abandon,
            self.queries,
            self.wall_ns / self.queries as u64,
            self.elements / self.queries as u64,
            self.abandoned as f64 / self.queries as f64,
            self.tier.to_json(),
        )
    }
}

/// Serial clip queries (`k = 10`, two key frames each) over a catalog of
/// `size` rows cut into contiguous videos of 1–8 key frames, abandon off
/// then on. Returns one run per setting; both rankings must agree.
fn clip_sweep(bases: &[CatalogEntry], queries: &[Vec<FeatureSet>], size: usize) -> Vec<ClipRun> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc11b);
    let mut entries = Vec::with_capacity(size);
    let mut v_id = 0u64;
    let mut left_in_video = 0;
    for i in 0..size {
        if left_in_video == 0 {
            left_in_video = rng.gen_range(1..=8usize);
            v_id += 1;
        }
        left_in_video -= 1;
        let b = &bases[rng.gen_range(0..BASE_FRAMES)];
        entries.push(CatalogEntry { i_id: i as u64 + 1, v_id, ..b.clone() });
    }
    let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
    let videos = engine.video_ids().len();
    let mut runs = Vec::new();
    let mut rankings = Vec::new();
    for abandon in [false, true] {
        let registry = Arc::new(Registry::new());
        engine.set_telemetry(Arc::clone(&registry));
        let options = QueryOptions { k: 10, threads: 1, abandon, ..QueryOptions::default() };
        let start = Instant::now();
        let results: Vec<_> =
            queries.iter().map(|q| engine.query_feature_sequence(q, &options)).collect();
        let run = ClipRun {
            size,
            videos,
            abandon,
            queries: queries.len(),
            wall_ns: start.elapsed().as_nanos() as u64,
            elements: registry.counter("query.clip.elements").get(),
            abandoned: registry.counter("query.abandon.dtw").get(),
            tier: Tier::read(&registry, "query.clip", "tier_cells", Tier::default()),
        };
        eprintln!(
            "clip size={:>6} videos={} abandon={:<5} wall/query={:>10}ns elements/query={:>10} (tier {:>9}) abandoned/query={:.1} tier rejects {}/{} cells",
            run.size,
            run.videos,
            run.abandon,
            run.wall_ns / run.queries as u64,
            run.elements / run.queries as u64,
            run.tier.elements / run.queries as u64,
            run.abandoned as f64 / run.queries as f64,
            run.tier.rejected,
            run.tier.seen,
        );
        runs.push(run);
        rankings.push(results);
    }
    assert_eq!(rankings[0], rankings[1], "abandon changed a clip ranking");
    runs
}

struct ConcurrencyRun {
    mode: &'static str,
    threads: usize,
    queries: usize,
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    snapshot_swaps: u64,
    compaction_runs: u64,
    segments_final: usize,
    writer_rounds: u64,
}

impl ConcurrencyRun {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mode\": \"{}\", \"threads\": {}, \"queries\": {}, ",
                "\"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, ",
                "\"snapshot_swaps\": {}, \"compaction_runs\": {}, ",
                "\"segments_final\": {}, \"writer_rounds\": {}}}"
            ),
            self.mode,
            self.threads,
            self.queries,
            self.mean_ns,
            self.p50_ns,
            self.p99_ns,
            self.snapshot_swaps,
            self.compaction_runs,
            self.segments_final,
            self.writer_rounds,
        )
    }
}

/// Query latency over the segmented catalog, idle vs racing a writer
/// thread that ingests new videos, tombstones old ones, and compacts.
/// Readers never block: each run also reports the snapshot swaps and
/// compactions that happened underneath the measured queries.
fn concurrency_sweep(
    bases: &[CatalogEntry],
    probe: &FeatureSet,
    probe_range: cbvr_index::RangeKey,
    smoke: bool,
    out: &str,
) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let size = if smoke { 2_048 } else { 4_096 };
    let queries = if smoke { 40 } else { 200 };
    let thread_counts: &[usize] = if smoke { &[1] } else { &[1, 4] };
    let k = 10;

    let mut runs: Vec<ConcurrencyRun> = Vec::new();
    for &threads in thread_counts {
        for racing in [false, true] {
            let entries: Vec<CatalogEntry> = (0..size)
                .map(|i| {
                    let b = &bases[i % BASE_FRAMES];
                    CatalogEntry {
                        i_id: i as u64 + 1,
                        v_id: (i as u64 % 16) + 1,
                        range: b.range,
                        features: b.features.clone(),
                    }
                })
                .collect();
            let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
            let registry = Arc::new(Registry::new());
            engine.set_telemetry(Arc::clone(&registry));
            let engine = Arc::new(engine);

            let done = Arc::new(AtomicBool::new(false));
            let writer = racing.then(|| {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                let batch: Vec<CatalogEntry> = bases.to_vec();
                std::thread::spawn(move || {
                    let mut round = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let v_id = 1_000 + round;
                        let fresh: Vec<CatalogEntry> = batch
                            .iter()
                            .enumerate()
                            .map(|(j, b)| CatalogEntry {
                                i_id: 1_000_000 + round * 1_000 + j as u64,
                                v_id,
                                range: b.range,
                                features: b.features.clone(),
                            })
                            .collect();
                        engine.add_video(&format!("ingest-{round}"), fresh);
                        if round >= 2 {
                            engine.remove_video(1_000 + round - 2);
                        }
                        if round % 4 == 3 {
                            engine.compact();
                        }
                        round += 1;
                    }
                    round
                })
            });

            let options = QueryOptions {
                k,
                threads,
                use_index: false,
                abandon: true,
                ..QueryOptions::default()
            };
            let mut latencies: Vec<u64> = Vec::with_capacity(queries);
            for _ in 0..queries {
                let start = Instant::now();
                let results = engine.query_features(probe, probe_range, &options);
                latencies.push(start.elapsed().as_nanos() as u64);
                assert!(results.len() >= k.min(size));
            }

            done.store(true, Ordering::Relaxed);
            let writer_rounds = writer.map(|h| h.join().expect("writer panicked")).unwrap_or(0);

            latencies.sort_unstable();
            let mean_ns =
                latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
            let run = ConcurrencyRun {
                mode: if racing { "racing" } else { "idle" },
                threads,
                queries,
                mean_ns,
                p50_ns: latencies[latencies.len() / 2],
                p99_ns: latencies[(latencies.len() * 99) / 100],
                snapshot_swaps: registry.counter("catalog.snapshot.swaps").get(),
                compaction_runs: registry.counter("compaction.runs").get(),
                segments_final: engine.segment_count(),
                writer_rounds,
            };
            eprintln!(
                "concurrency mode={:<6} threads={} mean={:>9.1}ns p50={:>8}ns p99={:>8}ns swaps={} compactions={} rounds={}",
                run.mode,
                run.threads,
                run.mean_ns,
                run.p50_ns,
                run.p99_ns,
                run.snapshot_swaps,
                run.compaction_runs,
                run.writer_rounds,
            );
            runs.push(run);
        }
    }

    let body: Vec<String> = runs.iter().map(|r| format!("    {}", r.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"query_during_ingest\",\n  \"k\": {k},\n  \"catalog_size\": {size},\n  \"runs\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(out, &json).expect("write concurrency bench output");
    eprintln!("wrote {out}");
}

/// Sum of the per-stage tier-rejection counters (exact in serial runs).
fn abandon_total(registry: &Registry) -> u64 {
    cbvr_features::FeatureKind::ALL
        .iter()
        .map(|k| registry.counter(&format!("query.abandon.{}", k.name())).get())
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_query.json");
    let mut out_concurrency = String::from("BENCH_concurrency.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            "--out-concurrency" => {
                i += 1;
                out_concurrency = args[i].clone();
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let sizes: &[usize] = if smoke { &[10_240] } else { &[2_048, 10_240] };
    let thread_counts: &[usize] = if smoke { &[1] } else { &[1, 4] };
    let k = 10;

    eprintln!("extracting {BASE_FRAMES} base feature sets...");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe5c);
    let frames: Vec<RgbImage> = (0..BASE_FRAMES).map(|_| synthetic_frame(&mut rng)).collect();
    let bases: Vec<CatalogEntry> = frames
        .iter()
        .map(|f| CatalogEntry {
            i_id: 0,
            v_id: 0,
            range: paper_range(&Histogram256::of_rgb_luma(f)),
            features: FeatureSet::extract(f),
        })
        .collect();
    // The probe is a perturbation of one base frame: near the catalog's
    // distribution (so the tier's threshold tightens realistically) but
    // not an exact duplicate.
    let probe_frame = {
        let f = &frames[7];
        RgbImage::from_fn(f.width(), f.height(), |x, y| {
            let p = f.get(x, y);
            Rgb::new(p.r.wrapping_add(3), p.g, p.b.wrapping_add(1))
        })
        .unwrap()
    };
    let probe = FeatureSet::extract(&probe_frame);
    let probe_range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));

    // Clip queries: two held-out frames each (never catalog rows).
    let clip_queries: Vec<Vec<FeatureSet>> = (0..CLIP_QUERIES)
        .map(|_| (0..2).map(|_| FeatureSet::extract(&synthetic_frame(&mut rng))).collect())
        .collect();

    let mut runs: Vec<Run> = Vec::new();
    let mut clip_runs: Vec<ClipRun> = Vec::new();
    for &size in sizes {
        clip_runs.extend(clip_sweep(&bases, &clip_queries, size));
        // Tile the base entries up to `size` with distinct ids.
        let entries: Vec<CatalogEntry> = (0..size)
            .map(|i| {
                let b = &bases[i % BASE_FRAMES];
                CatalogEntry {
                    i_id: i as u64 + 1,
                    v_id: (i as u64 % 16) + 1,
                    range: b.range,
                    features: b.features.clone(),
                }
            })
            .collect();
        let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
        for &threads in thread_counts {
            for abandon in [false, true] {
                // Fresh registry per run so counter diffs are per-run
                // absolutes (counters are monotone, never reset).
                let registry = Arc::new(Registry::new());
                engine.set_telemetry(Arc::clone(&registry));
                let options = QueryOptions {
                    k,
                    threads,
                    use_index: false,
                    abandon,
                    ..QueryOptions::default()
                };
                // Warm-up, then the measured pass.
                let warm = engine.query_features(&probe, probe_range, &options);
                assert_eq!(warm.len(), k.min(size));
                let el0 = registry.counter("query.scan.elements").get();
                let sv0 = registry.counter("query.scan.survivors").get();
                let ab0 = abandon_total(&registry);
                let tier0 = Tier::read(&registry, "query.scan", "tier_candidates", Tier::default());
                let start = Instant::now();
                let results = engine.query_features(&probe, probe_range, &options);
                let wall_ns = start.elapsed().as_nanos() as u64;
                assert_eq!(results.len(), k.min(size));
                let run = Run {
                    size,
                    threads,
                    abandon,
                    wall_ns,
                    candidates: size as u64,
                    elements: registry.counter("query.scan.elements").get() - el0,
                    survivors: registry.counter("query.scan.survivors").get() - sv0,
                    abandoned: abandon_total(&registry) - ab0,
                    tier: Tier::read(&registry, "query.scan", "tier_candidates", tier0),
                };
                eprintln!(
                    "size={:>6} threads={} abandon={:<5} wall={:>9}ns ns/cand={:>8.1} elements={:>10} (tier {:>9}) abandoned={:.1}% tier rejects {}/{}",
                    run.size,
                    run.threads,
                    run.abandon,
                    run.wall_ns,
                    run.ns_per_candidate(),
                    run.elements,
                    run.tier.elements,
                    run.abandoned_fraction() * 100.0,
                    run.tier.rejected,
                    run.tier.seen,
                );
                runs.push(run);
            }
        }
    }

    let body: Vec<String> = runs.iter().map(|r| format!("    {}", r.to_json())).collect();
    let clip_body: Vec<String> =
        clip_runs.iter().map(|r| format!("    {}", r.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"query\",\n  \"k\": {k},\n  \"base_frames\": {BASE_FRAMES},\n  \"runs\": [\n{}\n  ],\n  \"clip_runs\": [\n{}\n  ]\n}}\n",
        body.join(",\n"),
        clip_body.join(",\n")
    );
    std::fs::write(&out, &json).expect("write bench output");
    eprintln!("wrote {out}");

    concurrency_sweep(&bases, &probe, probe_range, smoke, &out_concurrency);

    // CI gate: the serial tiered scan must visit ≤ 70% of the full scan's
    // distance-kernel elements on the 10k catalog (≥30% reduction), the
    // bound tier's included.
    let serial = |abandon: bool| {
        runs.iter()
            .find(|r| r.size == 10_240 && r.threads == 1 && r.abandon == abandon)
            .expect("10k serial run present")
    };
    let full = serial(false).elements;
    let tiered = serial(true).elements;
    let ratio = tiered as f64 / full as f64;
    eprintln!(
        "10k serial element ratio: tiered {tiered} / full {full} = {ratio:.3} (gate: <= 0.70)"
    );
    // Tier gate: the bound tier must reject at least half of the frame
    // candidates it bounds, or it costs more than it saves.
    let tier = serial(true).tier;
    let tier_share = tier.reject_share();
    eprintln!(
        "10k serial frame tier: rejected {} / {} candidates = {tier_share:.3} (gate: >= 0.50); elements: tier {} + exact {}",
        tier.rejected,
        tier.seen,
        tier.elements,
        tiered - tier.elements,
    );
    // Clip gate: the bounded DTW must visit ≤ 50% of the plain DTW's
    // kernel elements (bound tier included) on the 10k catalog.
    let clip_at = |abandon: bool| {
        clip_runs
            .iter()
            .find(|r| r.size == 10_240 && r.abandon == abandon)
            .expect("10k clip run present")
    };
    let clip_full = clip_at(false).elements;
    let clip_bounded = clip_at(true).elements;
    let clip_ratio = clip_bounded as f64 / clip_full as f64;
    eprintln!(
        "10k serial clip element ratio: bounded {clip_bounded} / full {clip_full} = {clip_ratio:.3} (gate: <= 0.50)"
    );
    let clip_tier = clip_at(true).tier;
    eprintln!(
        "10k serial clip tier: rejected {} / {} DTW cells = {:.3}; elements: tier {} + exact {}",
        clip_tier.rejected,
        clip_tier.seen,
        clip_tier.reject_share(),
        clip_tier.elements,
        clip_bounded - clip_tier.elements,
    );
    let mut failed = false;
    if smoke && ratio > 0.70 {
        eprintln!("FAIL: frame element reduction below the 30% floor");
        failed = true;
    }
    if smoke && tier_share < 0.50 {
        eprintln!("FAIL: the bound tier rejects fewer than half of the frame candidates it sees");
        failed = true;
    }
    if smoke && clip_ratio > 0.50 {
        eprintln!("FAIL: clip DTW element reduction below the 50% floor");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
