//! Relevance feedback: the user marks results, the system re-weights its
//! feature mixture, and the next round of retrieval improves — the
//! "user interactions" loop the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example relevance_feedback
//! ```

use cbvr::core::engine::CatalogEntry;
use cbvr::core::feedback::adapt_weights;
use cbvr::prelude::*;

fn main() {
    // Corpus: 4 videos of each category.
    let mut db = CbvrDatabase::in_memory().expect("open database");
    let generator = VideoGenerator::new(GeneratorConfig::default()).expect("valid config");
    // Lower key-frame threshold: the default 800 collapses smooth movie
    // clips to a single key frame, leaving retrieval nothing to rank.
    let config = IngestConfig {
        keyframe: KeyframeConfig { threshold: 350.0 },
        ..IngestConfig::default()
    };
    for category in Category::ALL {
        for seed in 0..4u64 {
            let clip = generator.generate(category, seed).expect("generate");
            ingest_video(&mut db, &format!("{}_{seed:02}", category.name()), &clip, &config)
                .expect("ingest");
        }
    }
    let engine = QueryEngine::from_database(&mut db).expect("load catalog");
    let category_of = |name: &str| name.split('_').next().unwrap().to_string();

    // The user queries with an unseen, *degraded* movie frame (cropped,
    // resampled, speckled — the realistic query condition), starting from
    // uniform weights: no prior knowledge of which features matter. On a
    // degraded query the noise-fragile features (GLCM, region growing)
    // actively mislead, which is exactly what feedback can learn.
    let probe = generator.generate(Category::Movie, 500).expect("generate probe");
    let mut degraded =
        cbvr::eval::table1::degrade_query(probe.frame(2).expect("has frames"), 99);
    // Heavy sensor noise on top: this is where the fragile texture
    // features (GLCM, Tamura, region growing) start pulling in wrong
    // categories — noise looks like sports grass to them.
    cbvr::imgproc::draw::speckle(&mut degraded, 25, 1234);
    let frame = &degraded;
    let query_features = FeatureSet::extract(frame);
    let weights = FeatureWeights::uniform();
    // Search the full catalog: index pruning would cap how much feedback
    // can improve (it bounds recall before ranking even starts).
    let options =
        QueryOptions { k: 10, weights: weights.clone(), use_index: false, ..Default::default() };

    let round1 = engine.query_frame(frame, &options);
    let hits1 = round1
        .iter()
        .filter(|m| category_of(&engine.video_name(m.v_id).unwrap()) == "movie")
        .count();
    println!("round 1 (uniform weights): {hits1}/10 relevant");
    for m in round1.iter().take(10) {
        println!("  {:<14} {:.3}", engine.video_name(m.v_id).unwrap(), m.score);
    }

    // The user marks each result relevant (movie) or not; the system
    // adapts the weights from those judgments alone.
    let marked: Vec<(bool, FeatureSet)> = round1
        .iter()
        .map(|m| {
            let relevant = category_of(&engine.video_name(m.v_id).unwrap()) == "movie";
            // Read the marked key frame's features from its stored row.
            let row = db.get_key_frame(m.i_id).expect("stored key frame");
            (relevant, CatalogEntry::from_key_frame(&row).expect("stored features").features)
        })
        .collect();
    let relevant: Vec<&FeatureSet> =
        marked.iter().filter(|(r, _)| *r).map(|(_, f)| f).collect();
    let irrelevant: Vec<&FeatureSet> =
        marked.iter().filter(|(r, _)| !*r).map(|(_, f)| f).collect();
    println!(
        "\nuser feedback: {} marked relevant, {} marked irrelevant",
        relevant.len(),
        irrelevant.len()
    );

    let adapted = adapt_weights(&engine, &query_features, &relevant, &irrelevant, &weights);
    println!("adapted weights:");
    for kind in FeatureKind::ALL {
        println!("  {:<16} {:.3} -> {:.3}", kind.name(), weights.get(kind), adapted.get(kind));
    }

    // Round 2 with the adapted mixture.
    let round2 = engine.query_frame(
        frame,
        &QueryOptions { k: 10, weights: adapted, use_index: false, ..Default::default() },
    );
    let hits2 = round2
        .iter()
        .filter(|m| category_of(&engine.video_name(m.v_id).unwrap()) == "movie")
        .count();
    println!("\nround 2 (adapted weights): {hits2}/10 relevant");
    for m in round2.iter().take(10) {
        println!("  {:<14} {:.3}", engine.video_name(m.v_id).unwrap(), m.score);
    }
    assert!(hits2 >= hits1, "feedback must not hurt: {hits2} vs {hits1}");
    println!("\nfeedback kept or improved precision: {hits1}/10 -> {hits2}/10");
}
