//! Regenerates **Figures 9–10**: the search-result screen and the
//! playback view, as terminal output plus optional frame dumps.
//!
//! The full pipeline runs end to end: a corpus is ingested through the
//! storage engine, a query frame is submitted "by the user", the ranked
//! matches print with names and scores (Fig. 9's thumbnail grid), and
//! the top video's key frames are decoded back out of the database
//! (Fig. 10's maximised player).
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin fig9_search [-- --out DIR] [--videos N]
//! ```

use cbvr_core::{ingest_video, IngestConfig, QueryEngine, QueryOptions};
use cbvr_imgproc::codec::{encode, ImageFormat};
use cbvr_storage::CbvrDatabase;
use cbvr_video::{decode_vsc, Category, GeneratorConfig, VideoGenerator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut videos = 3u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = Some(args[i].clone());
            }
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

    // Administrator: add videos to the database.
    let mut db = CbvrDatabase::in_memory().expect("open db");
    let generator = VideoGenerator::new(GeneratorConfig::default()).expect("valid config");
    let config = IngestConfig {
        timestamp: 1_760_000_000,
        ..IngestConfig::default()
    };
    eprintln!(
        "ingesting {} videos...",
        videos as usize * Category::ALL.len()
    );
    for category in Category::ALL {
        for seed in 0..videos as u64 {
            let clip = generator.generate(category, seed).expect("generation");
            let name = format!("{}_{seed:02}.vsc", category.name());
            ingest_video(&mut db, &name, &clip, &config).expect("ingest");
        }
    }

    // User: submit a query frame (an unseen sports clip's frame).
    let engine = QueryEngine::from_database(&mut db).expect("engine build");
    let probe = generator
        .generate(Category::Sports, 424_242)
        .expect("generation");
    let query_frame = probe.frame(5).expect("clip has frames");

    println!("Figure 9 — screen showing result of match\n");
    println!("query: frame 5 of an unseen 'sports' clip\n");
    let results = engine.query_frame(
        query_frame,
        &QueryOptions {
            k: 10,
            ..Default::default()
        },
    );
    println!(
        "{:<6} {:<22} {:<10} {:>8}",
        "rank", "video", "keyframe", "score"
    );
    for (rank, m) in results.iter().enumerate() {
        println!(
            "{:<6} {:<22} kf #{:<7} {:>8.4}",
            rank + 1,
            engine.video_name(m.v_id).unwrap_or_else(|| "?".to_string()),
            m.i_id,
            m.score
        );
    }

    // Figure 10: "play" the top match by decoding its stored container.
    let top = results.first().expect("non-empty catalog");
    let full = db.get_video(top.v_id).expect("video row");
    let bytes = db.read_video_bytes(&full.row).expect("video blob");
    let clip = decode_vsc(&bytes).expect("stored container decodes");
    println!("\nFigure 10 — video player maximized");
    println!(
        "playing '{}': {} frames, {}x{} @ {} fps ({:.1}s)",
        full.v_name,
        clip.frame_count(),
        clip.width(),
        clip.height(),
        clip.fps(),
        clip.duration_secs()
    );

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create output dir");
        std::fs::write(
            format!("{dir}/fig9_query.bmp"),
            encode(query_frame, ImageFormat::Bmp),
        )
        .expect("write query");
        for (rank, m) in results.iter().take(4).enumerate() {
            let row = db.get_key_frame(m.i_id).expect("key frame row");
            let img_bytes = db.read_image_bytes(&row).expect("image blob");
            let img = cbvr_imgproc::decode_auto(&img_bytes).expect("stored image decodes");
            std::fs::write(
                format!("{dir}/fig9_match_{}.bmp", rank + 1),
                encode(&img, ImageFormat::Bmp),
            )
            .expect("write match");
        }
        for idx in [0usize, clip.frame_count() / 2, clip.frame_count() - 1] {
            std::fs::write(
                format!("{dir}/fig10_play_{idx:03}.bmp"),
                encode(clip.frame(idx).expect("in range"), ImageFormat::Bmp),
            )
            .expect("write playback frame");
        }
        eprintln!("wrote query, match and playback frames to {dir}/");
    }
}
