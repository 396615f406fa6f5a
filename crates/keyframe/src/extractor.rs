//! The run-based key-frame extractor.

use cbvr_features::naive::NaiveSignature;
use cbvr_imgproc::RgbImage;
use cbvr_video::Video;

/// Extraction parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyframeConfig {
    /// Similarity threshold on the raw signature distance; the paper uses
    /// `dist > 800.0` as the cut test.
    pub threshold: f64,
}

impl Default for KeyframeConfig {
    fn default() -> Self {
        KeyframeConfig { threshold: 800.0 }
    }
}

/// A selected key frame with its position in the source clip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Keyframe {
    /// Index of the frame in the source video.
    pub index: usize,
    /// The frame itself.
    pub frame: RgbImage,
}

/// Raw superficial-signature distance (§4.6 signature, §4.1 threshold
/// semantics): the sum over the 25 grid points of the Euclidean RGB
/// distance between mean colors. Identical frames score 0; a hard cut on
/// the synthetic corpus typically scores in the thousands, comfortably
/// above the 800.0 default threshold.
pub fn signature_distance(a: &NaiveSignature, b: &NaiveSignature) -> f64 {
    a.colors()
        .iter()
        .zip(b.colors())
        .map(|(p, q)| {
            let dr = p.r as f64 - q.r as f64;
            let dg = p.g as f64 - q.g as f64;
            let db = p.b as f64 - q.b as f64;
            (dr * dr + dg * dg + db * db).sqrt()
        })
        .sum()
}

/// Extract key frames from a decoded video.
pub fn extract_keyframes(video: &Video, config: &KeyframeConfig) -> Vec<Keyframe> {
    extract_keyframes_from_frames(video.frames(), config)
}

/// Extract key frames from a raw frame sequence ("all Jpeg files in files
/// array", already sorted).
///
/// Runs of consecutive frames whose pairwise distance to the run anchor
/// stays within `threshold` collapse to their first frame ("take 1st as
/// key-frame"); the first frame beyond the threshold starts the next run.
/// An empty input yields no key frames.
pub fn extract_keyframes_from_frames(
    frames: &[RgbImage],
    config: &KeyframeConfig,
) -> Vec<Keyframe> {
    if frames.is_empty() {
        return Vec::new();
    }
    // Signatures are computed once per frame; the paper's pseudocode
    // re-rescales inside the O(n²) loop, which is equivalent but wasteful.
    let signatures: Vec<NaiveSignature> = frames.iter().map(NaiveSignature::extract).collect();

    let mut keyframes = Vec::new();
    let mut run_start = 0usize;
    while run_start < frames.len() {
        // Grow the run while frames stay within threshold of the anchor,
        // exactly like the pseudocode's inner j-loop ("delete file j").
        let mut run_end = run_start + 1;
        while run_end < frames.len()
            && signature_distance(&signatures[run_start], &signatures[run_end]) <= config.threshold
        {
            run_end += 1;
        }
        keyframes.push(Keyframe {
            index: run_start,
            frame: frames[run_start].clone(),
        });
        run_start = run_end;
    }
    keyframes
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_imgproc::Rgb;
    use cbvr_video::{Category, GeneratorConfig, VideoGenerator};

    fn flat(v: u8) -> RgbImage {
        RgbImage::filled(20, 20, Rgb::new(v, v, v)).unwrap()
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(extract_keyframes_from_frames(&[], &KeyframeConfig::default()).is_empty());
    }

    #[test]
    fn single_frame_is_its_own_keyframe() {
        let kfs = extract_keyframes_from_frames(&[flat(10)], &KeyframeConfig::default());
        assert_eq!(kfs.len(), 1);
        assert_eq!(kfs[0].index, 0);
    }

    #[test]
    fn identical_frames_collapse_to_one() {
        let frames = vec![flat(100); 10];
        let kfs = extract_keyframes_from_frames(&frames, &KeyframeConfig::default());
        assert_eq!(kfs.len(), 1);
        assert_eq!(kfs[0].index, 0);
    }

    #[test]
    fn hard_cut_splits_runs() {
        let mut frames = vec![flat(10); 5];
        frames.extend(vec![flat(240); 5]);
        let kfs = extract_keyframes_from_frames(&frames, &KeyframeConfig::default());
        assert_eq!(kfs.len(), 2);
        assert_eq!(kfs[0].index, 0);
        assert_eq!(kfs[1].index, 5);
        assert_eq!(kfs[1].frame.get(0, 0), Rgb::new(240, 240, 240));
    }

    #[test]
    fn threshold_zero_keeps_every_distinct_frame() {
        let frames: Vec<RgbImage> = (0..4).map(|i| flat(i * 60)).collect();
        let config = KeyframeConfig { threshold: 0.0 };
        let kfs = extract_keyframes_from_frames(&frames, &config);
        assert_eq!(kfs.len(), 4);
    }

    #[test]
    fn huge_threshold_keeps_only_first() {
        let frames: Vec<RgbImage> = (0..6).map(|i| flat(i * 40)).collect();
        let config = KeyframeConfig {
            threshold: f64::INFINITY,
        };
        let kfs = extract_keyframes_from_frames(&frames, &config);
        assert_eq!(kfs.len(), 1);
    }

    #[test]
    fn signature_distance_basics() {
        let a = NaiveSignature::extract(&flat(0));
        let b = NaiveSignature::extract(&flat(255));
        assert_eq!(signature_distance(&a, &a), 0.0);
        // 25 points × √3·255 ≈ 11 041.
        let expected = 25.0 * (3.0f64).sqrt() * 255.0;
        assert!((signature_distance(&a, &b) - expected).abs() < 1.0);
    }

    #[test]
    fn synthetic_clip_yields_roughly_one_keyframe_per_shot() {
        let generator = VideoGenerator::new(GeneratorConfig::default()).unwrap();
        let script = generator.script(Category::Cartoon, 42);
        let video = generator.render_script(&script).unwrap();
        let kfs = extract_keyframes(&video, &KeyframeConfig::default());
        let shots = script.shots.len();
        assert!(
            kfs.len() >= shots && kfs.len() <= shots * 3,
            "expected ~{shots} keyframes, got {}",
            kfs.len()
        );
        // Keyframe indices are strictly increasing.
        for pair in kfs.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn keyframes_reduce_volume_substantially() {
        let generator = VideoGenerator::new(GeneratorConfig::default()).unwrap();
        let video = generator.generate(Category::Movie, 9).unwrap();
        let kfs = extract_keyframes(&video, &KeyframeConfig::default());
        assert!(
            kfs.len() * 2 <= video.frame_count(),
            "{} keyframes from {} frames",
            kfs.len(),
            video.frame_count()
        );
    }
}
