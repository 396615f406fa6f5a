//! Regenerates **Figure 8**: the input query image and the string output
//! of every algorithm, in the paper's own formats
//! (`Histogram : RGB 256 ...`, `GLCM_Texture`, `gabor 60 ...`,
//! `Tamura 18 ...`, `SimpleRegionGrowing → Majorregions`,
//! `AutoColorCorrelogram → ACC 4 ...`, `NaiveVector java.awt.Color[...]`).
//!
//! ```text
//! cargo run -p cbvr-bench --release --bin fig8 [-- --out DIR]
//! ```

use cbvr_features::FeatureSet;
use cbvr_imgproc::codec::{encode, ImageFormat};
use cbvr_imgproc::Histogram256;
use cbvr_index::paper_range;
use cbvr_video::{Category, GeneratorConfig, VideoGenerator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // The query image: one frame of a generated clip (the paper's Fig. 8
    // input is a movie-style frame).
    let generator = VideoGenerator::new(GeneratorConfig::default()).expect("valid config");
    let video = generator
        .generate(Category::Movie, 8)
        .expect("generation succeeds");
    let frame = video.frame(0).expect("clip has frames");

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = format!("{dir}/fig8_query.bmp");
        std::fs::write(&path, encode(frame, ImageFormat::Bmp)).expect("write query image");
        eprintln!("wrote query image to {path}");
    }

    println!("Figure 8 — input query image and per-algorithm outputs\n");
    println!(
        "Input: {}x{} frame, category 'movie'\n",
        frame.width(),
        frame.height()
    );

    let set = FeatureSet::extract(frame);
    let range = paper_range(&Histogram256::of_rgb_luma(frame));

    println!("Algorithm : SimpleColorHistogram");
    println!("Output : min = {}, max={}", range.min, range.max);
    println!("Histogram : {}\n", set.histogram.to_feature_string());

    println!("Algorithm : GLCM_Texture");
    println!("Output :");
    println!(
        "{} {} {} {} {} {}\n",
        set.glcm.pixel_counter,
        set.glcm.asm,
        set.glcm.contrast,
        set.glcm.correlation,
        set.glcm.idm,
        set.glcm.entropy
    );

    println!("Algorithm : Gabor Texture");
    println!("Output :");
    println!("{}\n", set.gabor.to_feature_string());

    println!("Algorithm : Tamura Texture");
    println!("Output :");
    println!("{}\n", set.tamura.to_feature_string());

    println!("Algorithm : SimpleRegionGrowing");
    println!("Output : Majorregions : {}\n", set.regions.major_regions);

    println!("Algorithm : AutoColorCorrelogram");
    println!("Output :");
    println!("{}\n", set.correlogram.to_feature_string());

    println!("Algorithm : NaiveVector");
    println!("Output :");
    println!("{}", set.naive.to_feature_string());
}
