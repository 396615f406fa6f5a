//! What the benchmark measures: workloads and metric definitions, and
//! their rendering as the repository's `BENCHMARK.json`.

/// Seconds one run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// A named workload.
pub struct Workload {
    /// `--workload` value.
    pub name: &'static str,
    /// Why it exists (one line).
    pub why: &'static str,
}

/// Whether a metric improves by going down or up.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Lower is better.
    Lower,
    /// Higher is better.
    Higher,
}

/// One metric definition.
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: allowed worsening as a share of the parent's
    /// median.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// A search session may take at most this long, from when it was due
/// to its last thumbnail, before it counts as an SLO miss.
pub const SESSION_SLO_MS: f64 = 1000.0;

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "web_search",
        why: "open-loop HTTP query-by-frame sessions plus thumbnail fetches: server-side extraction and blob reads dominate, the scan does not; session SLO 1000 ms",
    },
    Workload {
        name: "scan_large",
        why: "closed-loop single-threaded frame and clip queries over 25k distinct rows, far beyond LLC: index, arena cascade and DTW do all the work",
    },
    Workload {
        name: "ingest_mixed",
        why: "a writer ingests, publishes and compacts while a reader queries: key frames, extraction, storage writes and segment publish share two cores",
    },
];

/// Metrics every workload reports in its untraced run. `second_op_*`
/// is the workload's other op type: the whole search session, frame
/// query plus its thumbnail fetches (`web_search`), clip query
/// (`scan_large`), video ingest plus publish (`ingest_mixed`).
///
/// Tails (`*_p90_ms`) are printed in every report but not bounded: on a
/// 2-vCPU host shared with other tenants their run-to-run spread measured
/// 0.2–0.7 of the median, beyond the largest bound a metric may have.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("frame_query_p50_ms", "ms", Lower, 0.25),
    e2e("frame_query_qps", "1/s", Higher, 0.25),
    e2e("second_op_p50_ms", "ms", Lower, 0.25),
    e2e("second_op_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Metrics every workload reports in its traced run. Counts and ratios
/// of a layer a workload does not exercise read 0 there; per-layer
/// *times* that only one workload produces are printed in its report
/// instead, so that no listed time is a constant.
pub const PER_LAYER: [Metric; 29] = [
    layer("features.extract_ms", "ms", Lower),
    layer("features.gabor_ms", "ms", Lower),
    layer("features.gabor_share", "ratio", Lower),
    layer("keyframe.detect_ms", "ms", Lower),
    layer("engine.gather_ms", "ms", Lower),
    layer("engine.score_ms", "ms", Lower),
    layer("engine.merge_ms", "ms", Lower),
    layer("index.candidates_per_query", "count", Lower),
    layer("index.prune_ratio", "ratio", Lower),
    layer("arena.elements_per_query", "count", Lower),
    layer("arena.abandon_ratio", "ratio", Higher),
    layer("arena.survivor_ratio", "ratio", Higher),
    layer("dtw.videos_per_query", "count", Lower),
    layer("dtw.abandon_ratio", "ratio", Higher),
    layer("pool.busy_share", "ratio", Higher),
    layer("pool.steals_per_job", "count", Higher),
    layer("storage.wal_bytes_per_video", "B", Lower),
    layer("storage.page_writes_per_video", "count", Lower),
    layer("storage.bytes_written_per_video", "B", Lower),
    layer("storage.cache_hit_ratio", "ratio", Higher),
    layer("storage.misses_per_thumbnail", "count", Lower),
    layer("segment.snapshot_swaps", "count", Lower),
    layer("segment.count_max", "count", Lower),
    layer("compaction.rows_dropped", "count", Higher),
    layer("web.rejected", "count", Lower),
    layer("eval.precision_at_10", "ratio", Higher),
    layer("loadgen.slo_miss_rate", "ratio", Lower),
    layer("trace.frame_query_p50_ms", "ms", Lower),
    layer("trace.second_op_p50_ms", "ms", Lower),
];

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn checked_in_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perfbench --spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut names = HashSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        for m in all {
            assert!(names.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in &WORKLOADS {
            assert!(names.insert(w.name) && w.why.len() <= 200, "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
