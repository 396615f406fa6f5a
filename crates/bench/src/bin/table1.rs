//! Regenerates **Table 1**: average precision at 20/30/50/100 retrieved
//! frames for each single feature and the combined method, side by side
//! with the paper's published numbers.
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin table1 [-- --no-index] [--videos N]
//!           [--queries N] [--judge-error P] [--json PATH]
//! ```

use cbvr_eval::{run_table1, CorpusConfig, Table1Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Table1Config {
        corpus: CorpusConfig {
            videos_per_category: 8,
            ..CorpusConfig::default()
        },
        queries_per_category: 3,
        frames_per_query: 2,
        ..Table1Config::default()
    };
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-index" => config.use_index = false,
            "--videos" => {
                i += 1;
                config.corpus.videos_per_category =
                    args[i].parse().expect("--videos takes a number");
            }
            "--queries" => {
                i += 1;
                config.queries_per_category = args[i].parse().expect("--queries takes a number");
            }
            "--judge-error" => {
                i += 1;
                config.judge_error_rate = args[i].parse().expect("--judge-error takes a rate");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "building corpus: {} videos/category, index = {}...",
        config.corpus.videos_per_category, config.use_index
    );
    let report = run_table1(&config).expect("table 1 experiment failed");
    println!("{}", report.render());
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json_pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
    if !report.shape.all_pass() {
        eprintln!("WARNING: shape checks failed: {:?}", report.shape);
        std::process::exit(1);
    }
}
