//! The CBVR benchmark of record.
//!
//! ```text
//! perfbench --workload <web_search|scan_large|ingest_mixed> --seed N --seconds S --trace 0|1
//! perfbench --workload all [--seed N] [--seconds S]   # every workload, untraced then traced
//! perfbench --spec                                    # print BENCHMARK.json
//! ```
//!
//! A run builds its inputs from the seed, sets the workload up several
//! times (reporting the median as `setup_s`), measures for `--seconds`,
//! checks the outputs against the exact query path, and prints every
//! metric by name and unit followed by one JSON result line. See
//! `perfbench/README.md`.

mod calib;
mod catalog;
mod http;
mod ingest_mixed;
mod run;
mod scan_large;
mod spec;
mod stats;
mod trace;
mod web_search;

use run::{fail, peak_rss_mb, print_self_times, Env, Report};
use std::path::PathBuf;
use std::process::Command;
use trace::Tracer;

/// Where runs keep their databases and trace files (relative to the
/// working directory, which is the repository checkout).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            print!("{}", spec::benchmark_json());
            return None;
        }
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        let bad = || -> ! { fail(&format!("bad value for {flag}: {value}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        fail("--seconds must be positive");
    }
    Some(args)
}

fn main() {
    let Some(args) = parse_args() else { return };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = spec::WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        fail(&format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ))
    };
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("create {OUT_DIR}: {e}")));
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        out_dir,
    };
    let mut report: Report = match workload.name {
        "web_search" => web_search::run(&env),
        "scan_large" => scan_large::run(&env),
        _ => ingest_mixed::run(&env),
    };
    report.put("peak_rss_mb", "MB", peak_rss_mb());
    if args.trace {
        // The traced run's own end-to-end figures: minus the untraced
        // run's, they are the tracing overhead.
        for (traced, plain) in [
            ("trace.frame_query_p50_ms", "frame_query_p50_ms"),
            ("trace.second_op_p50_ms", "second_op_p50_ms"),
        ] {
            report.put(
                traced,
                "ms",
                report.get(plain).expect("every workload reports it"),
            );
        }
        print_self_times(&env.tracer);
        let path = env
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", workload.name, args.seed));
        env.tracer
            .write_jsonl(&path)
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
        println!("# spans written to {}", path.display());
    }
    report.emit(args.trace);
}

/// Run every workload untraced and traced, each in its own process (so
/// peak RSS and the telemetry registry are per run), and print the
/// tracing overhead.
fn run_all(args: &Args) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    for workload in &spec::WORKLOADS {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            println!("## {} --trace {trace}", workload.name);
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .unwrap_or_else(|e| fail(&format!("spawn {}: {e}", exe.display())));
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            print!("{stdout}");
            if !out.status.success() {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                fail(&format!("{} --trace {trace} failed", workload.name));
            }
            results.push(stdout);
        }
        for (traced, plain) in [
            ("trace.frame_query_p50_ms", "frame_query_p50_ms"),
            ("trace.second_op_p50_ms", "second_op_p50_ms"),
        ] {
            let (t, p) = (reported(&results[1], traced), reported(&results[0], plain));
            println!(
                "## {} tracing overhead on {plain}: {:+.4} ms ({t:.4} traced vs {p:.4})",
                workload.name,
                t - p
            );
        }
    }
}

/// A metric's value from a run's `# name value unit` report lines.
fn reported(stdout: &str, name: &str) -> f64 {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name))
                .then(|| parts.next()?.parse().ok())
                .flatten()
        })
        .unwrap_or_else(|| fail(&format!("{name} missing from run output")))
}
