//! Ablation **A2**: combined-weight sweep.
//!
//! DESIGN.md calls out the combined ranking's weights as the main free
//! parameter the paper leaves unpublished. This bin sweeps candidate
//! weightings over one corpus and reports p@20/p@100 per setting,
//! also demonstrating how the shipped default was chosen (it is tuned on
//! a *validation* seed and evaluated here on the experiment seed).
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin ablation_weights [-- --videos N]
//! ```

use cbvr_core::FeatureWeights;
use cbvr_eval::corpus::Corpus;
use cbvr_eval::table1::Table1Config;
use cbvr_eval::CorpusConfig;
use cbvr_features::FeatureKind;

fn settings() -> Vec<(String, FeatureWeights)> {
    vec![
        ("uniform".into(), FeatureWeights::uniform()),
        ("default (tuned)".into(), FeatureWeights::default()),
        (
            "table1-proportional".into(),
            FeatureWeights::from_pairs(&[
                (FeatureKind::Glcm, 0.435),
                (FeatureKind::Gabor, 0.586),
                (FeatureKind::Tamura, 0.568),
                (FeatureKind::ColorHistogram, 0.398),
                (FeatureKind::Correlogram, 0.412),
                (FeatureKind::Regions, 0.520),
                (FeatureKind::Naive, 0.398),
            ]),
        ),
        (
            "color-only".into(),
            FeatureWeights::from_pairs(&[
                (FeatureKind::ColorHistogram, 1.0),
                (FeatureKind::Correlogram, 1.0),
                (FeatureKind::Naive, 1.0),
            ]),
        ),
        (
            "texture-only".into(),
            FeatureWeights::from_pairs(&[
                (FeatureKind::Glcm, 1.0),
                (FeatureKind::Gabor, 1.0),
                (FeatureKind::Tamura, 1.0),
            ]),
        ),
        (
            "best-single (gabor)".into(),
            FeatureWeights::single(FeatureKind::Gabor),
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut videos = 10u32;
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

    let config = Table1Config {
        corpus: CorpusConfig {
            videos_per_category: videos,
            ..CorpusConfig::default()
        },
        queries_per_category: 4,
        frames_per_query: 2,
        ..Table1Config::default()
    };
    eprintln!("building corpus ({videos} videos/category)...");
    let corpus = Corpus::build(config.corpus.clone()).expect("corpus build");

    println!(
        "Ablation A2 — combined-weight sweep (catalog: {} key frames)\n",
        corpus.engine.len()
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "weighting", "p@20", "p@30", "p@50", "p@100"
    );

    for (name, weights) in settings() {
        // Reuse the Table 1 machinery with only the Combined method by
        // swapping the default weights through a modified query pass.
        let report = run_combined(&corpus, &config, &weights);
        println!(
            "{:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name, report[0], report[1], report[2], report[3]
        );
    }
}

/// Precision at the four cutoffs for a single weighting.
fn run_combined(corpus: &Corpus, config: &Table1Config, weights: &FeatureWeights) -> [f64; 4] {
    // Table 1's driver measures fixed methods; for the sweep, rerun the
    // combined method with each weighting via a one-method config.
    use cbvr_core::engine::QueryOptions;
    use cbvr_eval::metrics::{mean, precision_at_k};

    let query_videos = corpus
        .query_videos(config.queries_per_category)
        .expect("queries");
    let mut per_cutoff: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (category, video) in &query_videos {
        let n = video.frame_count();
        let samples = config.frames_per_query.max(1).min(n);
        for s in 0..samples {
            let idx = s * n / samples;
            let frame = video.frame(idx).expect("in range");
            let frame = if config.degrade_queries {
                cbvr_eval::table1::degrade_query(frame, ((idx as u64) << 8) | *category as u64)
            } else {
                frame.clone()
            };
            let options = QueryOptions {
                k: 100,
                weights: weights.clone(),
                use_index: config.use_index,
                ..Default::default()
            };
            let results = corpus.engine.query_frame(&frame, &options);
            let truth: Vec<bool> = results
                .iter()
                .map(|m| corpus.category_of(m.v_id) == *category)
                .collect();
            for (slot, &k) in per_cutoff.iter_mut().zip([20usize, 30, 50, 100].iter()) {
                slot.push(precision_at_k(&truth, k));
            }
        }
    }
    [
        mean(&per_cutoff[0]),
        mean(&per_cutoff[1]),
        mean(&per_cutoff[2]),
        mean(&per_cutoff[3]),
    ]
}
