//! The abstract's discrimination task: 1-NN category classification
//! accuracy per method, plus the combined method's confusion matrix.
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin discrimination [-- --videos N] [--queries N]
//! ```

use cbvr_eval::{run_discrimination, Corpus, CorpusConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut videos = 8u32;
    let mut queries = 4u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--videos" => {
                i += 1;
                videos = args[i].parse().expect("--videos takes a number");
            }
            "--queries" => {
                i += 1;
                queries = args[i].parse().expect("--queries takes a number");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    eprintln!("building corpus ({videos} videos/category)...");
    let corpus = Corpus::build(CorpusConfig {
        videos_per_category: videos,
        ..CorpusConfig::default()
    })
    .expect("corpus build");
    let report = run_discrimination(&corpus, queries, 2).expect("discrimination run");
    println!("{}", report.render());
}
