//! Regenerates **Figure 7**: the range-finder indexing tree, printed with
//! the occupancy a real corpus produces at each node.
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin fig7_index [-- --videos N]
//! ```

use cbvr_eval::{Corpus, CorpusConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut videos = 4u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--videos" => {
                i += 1;
                videos = args[i].parse().expect("--videos takes a number");
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

    println!("Figure 7 — indexing tree (min–max ranges with key-frame occupancy)\n");
    println!("{}", corpus.engine.render_index_tree());

    let stats = corpus.engine.index_stats();
    println!("key frames indexed : {}", stats.items);
    println!("occupied buckets   : {}", stats.buckets);
    println!("largest bucket     : {}", stats.max_bucket);
    println!(
        "per level          : 128-wide {} | 64-wide {} | 32-wide {}",
        stats.per_level[0], stats.per_level[1], stats.per_level[2]
    );
}
