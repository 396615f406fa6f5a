//! The ingestion pipeline (Administrator's *add video*).
//!
//! decode → key frames (§4.1) → features (§4.3–§4.8, parallel) → range
//! key (§4.2) → one atomic batch into `VIDEO_STORE` + `KEY_FRAMES`.
//!
//! Stored artifacts per video, mirroring the paper's schema:
//!
//! - `VIDEO`   — the full clip, VSC-encoded with delta frames;
//! - `STREAM`  — "stream of keyframes": the key frames alone as a 1 fps
//!   VSC clip, delta frames too (what the UI pages through);
//! - one `KEY_FRAMES` row per key frame: lossless PPM image blob,
//!   `MIN`/`MAX` range, and all seven feature strings.

use crate::error::{CoreError, Result};
use crate::telemetry::Registry;
use cbvr_features::correlogram::AutoColorCorrelogram;
use cbvr_features::gabor::GaborTexture;
use cbvr_features::glcm::GlcmTexture;
use cbvr_features::histogram::ColorHistogram;
use cbvr_features::naive::NaiveSignature;
use cbvr_features::region::RegionGrowing;
use cbvr_features::tamura::TamuraTexture;
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::codec::{encode, ImageFormat};
use cbvr_imgproc::{Histogram256, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use cbvr_keyframe::{extract_keyframes, Keyframe, KeyframeConfig};
use cbvr_storage::backend::Backend;
use cbvr_storage::{CbvrDatabase, KeyFrameRecord, ManifestSegment, VideoRecord};
use cbvr_video::{encode_vsc, FrameCodec, Video};

/// Ingestion parameters.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Key-frame extraction parameters (threshold 800.0 by default).
    pub keyframe: KeyframeConfig,
    /// Worker threads for feature extraction (1 = sequential).
    pub threads: usize,
    /// `DOSTORE` timestamp, epoch seconds (callers supply it; the library
    /// takes no clock dependency).
    pub timestamp: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            keyframe: KeyframeConfig::default(),
            threads: 4,
            timestamp: 0,
        }
    }
}

/// What ingestion produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Assigned `VIDEO_STORE` primary key.
    pub v_id: u64,
    /// Assigned `KEY_FRAMES` primary keys, in frame order.
    pub keyframe_ids: Vec<u64>,
    /// Source-frame index of each key frame.
    pub keyframe_indices: Vec<usize>,
    /// Range-finder key of each key frame.
    pub ranges: Vec<RangeKey>,
}

/// The seven extractors in falling cost order (Gabor alone is about
/// half of a frame's extraction; the colour histogram is the cheapest).
/// A job claims cells in this order, so greedy claims schedule the
/// longest jobs first.
const COST_ORDER: [FeatureKind; 7] = [
    FeatureKind::Gabor,
    FeatureKind::Tamura,
    FeatureKind::Regions,
    FeatureKind::Naive,
    FeatureKind::Correlogram,
    FeatureKind::Glcm,
    FeatureKind::ColorHistogram,
];

/// One extracted descriptor: the output of one (frame, kind) cell.
enum Extracted {
    ColorHistogram(ColorHistogram),
    Glcm(GlcmTexture),
    Gabor(GaborTexture),
    Tamura(TamuraTexture),
    Correlogram(AutoColorCorrelogram),
    Naive(NaiveSignature),
    Regions(RegionGrowing),
}

/// The per-kind extraction timer (`ingest.extract.<short>_nanos`); the
/// short names map onto the paper's Table 1 rows.
fn timer_name(kind: FeatureKind) -> &'static str {
    match kind {
        FeatureKind::ColorHistogram => "ingest.extract.sch_nanos",
        FeatureKind::Glcm => "ingest.extract.glcm_nanos",
        FeatureKind::Gabor => "ingest.extract.gabor_nanos",
        FeatureKind::Tamura => "ingest.extract.tamura_nanos",
        FeatureKind::Correlogram => "ingest.extract.acc_nanos",
        FeatureKind::Naive => "ingest.extract.naive_nanos",
        FeatureKind::Regions => "ingest.extract.srg_nanos",
    }
}

fn extract_kind(frame: &RgbImage, kind: FeatureKind) -> Extracted {
    match kind {
        FeatureKind::ColorHistogram => Extracted::ColorHistogram(ColorHistogram::extract(frame)),
        FeatureKind::Glcm => Extracted::Glcm(GlcmTexture::extract(frame)),
        FeatureKind::Gabor => Extracted::Gabor(GaborTexture::extract(frame)),
        FeatureKind::Tamura => Extracted::Tamura(TamuraTexture::extract(frame)),
        FeatureKind::Correlogram => Extracted::Correlogram(AutoColorCorrelogram::extract(frame)),
        FeatureKind::Naive => Extracted::Naive(NaiveSignature::extract(frame)),
        FeatureKind::Regions => Extracted::Regions(RegionGrowing::extract(frame)),
    }
}

/// Extract all seven features for each frame on the shared
/// [`crate::pool::ExecPool`] (order is preserved).
///
/// One job runs `frames.len() × 7` (frame, kind) cells with chunk size
/// 1, frame-major and within a frame in falling cost order (Gabor
/// first), so even a single query frame spreads its extractors over the
/// pool's cores. Every extractor is a pure function of the frame, so
/// each set equals `FeatureSet::extract` of its frame whatever the
/// thread count.
pub fn extract_feature_sets_parallel(frames: &[&RgbImage], threads: usize) -> Vec<FeatureSet> {
    // Handles are resolved once here; the cell bodies only touch atomics.
    let registry = Registry::global();
    let timers = COST_ORDER.map(|kind| registry.histogram(timer_name(kind)));
    let cells: Vec<(&RgbImage, usize)> = frames
        .iter()
        .flat_map(|&frame| (0..COST_ORDER.len()).map(move |slot| (frame, slot)))
        .collect();
    let extracted = crate::pool::ExecPool::global().map(&cells, 1, threads, |_, &(frame, slot)| {
        let _t = registry.timer(&timers[slot]);
        extract_kind(frame, COST_ORDER[slot])
    });
    let mut extracted = extracted.into_iter();
    frames
        .iter()
        .map(|_| {
            let cells: [Option<Extracted>; 7] = std::array::from_fn(|_| extracted.next());
            let [
                Some(Extracted::Gabor(gabor)),
                Some(Extracted::Tamura(tamura)),
                Some(Extracted::Regions(regions)),
                Some(Extracted::Naive(naive)),
                Some(Extracted::Correlogram(correlogram)),
                Some(Extracted::Glcm(glcm)),
                Some(Extracted::ColorHistogram(histogram)),
            ] = cells
            else {
                unreachable!("each frame's cells are extracted in COST_ORDER");
            };
            FeatureSet { histogram, glcm, gabor, tamura, correlogram, naive, regions }
        })
        .collect()
}

/// Ingest one video under `name`. The whole operation is one atomic
/// batch: a failure leaves the database exactly as it was.
///
/// Every failed ingest — bad input, encode error, or a storage error
/// surfaced by the commit — bumps `ingest.failures`.
pub fn ingest_video<B: Backend>(
    db: &mut CbvrDatabase<B>,
    name: &str,
    video: &Video,
    config: &IngestConfig,
) -> Result<IngestReport> {
    let result = ingest_video_impl(db, name, video, config);
    if result.is_err() {
        Registry::global().counter("ingest.failures").inc();
    }
    result
}

fn ingest_video_impl<B: Backend>(
    db: &mut CbvrDatabase<B>,
    name: &str,
    video: &Video,
    config: &IngestConfig,
) -> Result<IngestReport> {
    if name.is_empty() {
        return Err(CoreError::Config("video name must not be empty".into()));
    }
    let registry = Registry::global();
    registry.counter("ingest.requests").inc();

    // 1. Key frames.
    let keyframes: Vec<Keyframe> = {
        let _t = registry.span("ingest.keyframes_nanos");
        extract_keyframes(video, &config.keyframe)
    };
    registry
        .counter("ingest.keyframes")
        .add(keyframes.len() as u64);

    // 2. Features, fanned out.
    let frames: Vec<&RgbImage> = keyframes.iter().map(|k| &k.frame).collect();
    let features = {
        let _t = registry.span("ingest.extract_nanos");
        extract_feature_sets_parallel(&frames, config.threads)
    };

    // 3. Range keys from the luminance histogram (§4.2).
    let ranges: Vec<RangeKey> = {
        let _t = registry.span("ingest.range_nanos");
        keyframes
            .iter()
            .map(|k| paper_range(&Histogram256::of_rgb_luma(&k.frame)))
            .collect()
    };

    // 4. Blobs.
    let _encode = registry.span("ingest.encode_nanos");
    let video_bytes = encode_vsc(video, FrameCodec::Delta);
    let stream_frames: Vec<RgbImage> = keyframes.iter().map(|k| k.frame.clone()).collect();
    let stream_bytes = encode_vsc(
        &Video::new(1, stream_frames).map_err(CoreError::Video)?,
        FrameCodec::Delta,
    );
    drop(_encode);

    // 5. One atomic batch.
    let _store = registry.span("ingest.store_nanos");
    let video_record = VideoRecord {
        v_name: name.to_string(),
        video: video_bytes,
        stream: stream_bytes,
        dostore: config.timestamp,
    };
    let report = db.run_batch(|db| {
        let v_id = db.insert_video(&video_record)?;
        let mut keyframe_ids = Vec::with_capacity(keyframes.len());
        for ((kf, set), range) in keyframes.iter().zip(&features).zip(&ranges) {
            let record = KeyFrameRecord {
                i_name: format!("v{v_id}_kf_{:05}", kf.index),
                image: encode(&kf.frame, ImageFormat::Ppm),
                min: range.min,
                max: range.max,
                sch: set.histogram.to_feature_string(),
                glcm: set.glcm.to_feature_string(),
                gabor: set.gabor.to_feature_string(),
                tamura: set.tamura.to_feature_string(),
                acc: set.correlogram.to_feature_string(),
                naive: set.naive.to_feature_string(),
                srg: set.regions.to_feature_string(),
                majorregions: set.regions.major_regions,
                v_id,
            };
            keyframe_ids.push(db.insert_key_frame(&record)?);
        }
        // Seal the batch as one catalog segment. Same atomic unit as the
        // rows: a crash recovers to the previous published snapshot.
        if let (Some(&min_i_id), Some(&max_i_id)) = (keyframe_ids.first(), keyframe_ids.last()) {
            db.append_manifest_segment(ManifestSegment {
                min_i_id,
                max_i_id,
                rows: keyframe_ids.len() as u64,
            })?;
        }
        Ok((v_id, keyframe_ids))
    })?;

    Ok(IngestReport {
        v_id: report.0,
        keyframe_ids: report.1,
        keyframe_indices: keyframes.iter().map(|k| k.index).collect(),
        ranges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_video::{Category, GeneratorConfig, VideoGenerator};

    fn small_clip(seed: u64) -> Video {
        let config = GeneratorConfig {
            width: 64,
            height: 48,
            shots_per_video: 2,
            min_shot_frames: 4,
            max_shot_frames: 6,
            ..GeneratorConfig::default()
        };
        VideoGenerator::new(config)
            .unwrap()
            .generate(Category::Cartoon, seed)
            .unwrap()
    }

    #[test]
    fn ingest_stores_video_and_keyframes() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let video = small_clip(1);
        let report = ingest_video(&mut db, "cartoon_01", &video, &IngestConfig::default()).unwrap();
        assert!(!report.keyframe_ids.is_empty());
        assert_eq!(report.keyframe_ids.len(), report.ranges.len());
        assert_eq!(report.keyframe_ids.len(), report.keyframe_indices.len());

        // The video round-trips.
        let full = db.get_video(report.v_id).unwrap();
        assert_eq!(full.v_name, "cartoon_01");
        let bytes = db.read_video_bytes(&full.row).unwrap();
        let decoded = cbvr_video::decode_vsc(&bytes).unwrap();
        assert_eq!(decoded, video);

        // The key-frame stream decodes to the key frames.
        let stream = db.read_stream_bytes(&full.row).unwrap();
        let stream_video = cbvr_video::decode_vsc(&stream).unwrap();
        assert_eq!(stream_video.frame_count(), report.keyframe_ids.len());

        // Rows carry parseable feature strings and matching ranges.
        let row = db.get_key_frame(report.keyframe_ids[0]).unwrap();
        assert_eq!(row.v_id, report.v_id);
        assert_eq!(row.min, report.ranges[0].min);
        assert_eq!(row.max, report.ranges[0].max);
        assert!(cbvr_features::histogram::ColorHistogram::parse(&row.sch).is_ok());
        assert!(cbvr_features::glcm::GlcmTexture::parse(&row.glcm).is_ok());
        assert!(cbvr_features::gabor::GaborTexture::parse(&row.gabor).is_ok());
        assert!(cbvr_features::tamura::TamuraTexture::parse(&row.tamura).is_ok());
        assert!(cbvr_features::correlogram::AutoColorCorrelogram::parse(&row.acc).is_ok());
        assert!(cbvr_features::naive::NaiveSignature::parse(&row.naive).is_ok());
        assert!(cbvr_features::region::RegionGrowing::parse(&row.srg).is_ok());

        // The stored image decodes to the exact key frame.
        let image_bytes = db.read_image_bytes(&row).unwrap();
        let img = cbvr_imgproc::decode_auto(&image_bytes).unwrap();
        assert_eq!(&img, video.frame(report.keyframe_indices[0]).unwrap());
    }

    #[test]
    fn empty_name_rejected_without_side_effects() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let video = small_clip(2);
        let failures = Registry::global().counter("ingest.failures");
        let before = failures.get();
        assert!(ingest_video(&mut db, "", &video, &IngestConfig::default()).is_err());
        assert_eq!(db.video_count().unwrap(), 0);
        assert!(
            failures.get() > before,
            "failed ingest must bump ingest.failures"
        );
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let video = small_clip(3);
        let frames: Vec<&RgbImage> = video.frames().iter().take(4).collect();
        let seq = extract_feature_sets_parallel(&frames, 1);
        let par = extract_feature_sets_parallel(&frames, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_extraction_empty_input() {
        assert!(extract_feature_sets_parallel(&[], 4).is_empty());
    }

    #[test]
    fn two_videos_get_distinct_ids() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let a = ingest_video(&mut db, "a", &small_clip(1), &IngestConfig::default()).unwrap();
        let b = ingest_video(&mut db, "b", &small_clip(2), &IngestConfig::default()).unwrap();
        assert_ne!(a.v_id, b.v_id);
        assert_eq!(db.video_count().unwrap(), 2);
        let kf_a = db.key_frames_of_video(a.v_id).unwrap();
        assert_eq!(kf_a, a.keyframe_ids);
    }

    #[test]
    fn ingest_seals_one_manifest_segment_per_video() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let a = ingest_video(&mut db, "a", &small_clip(1), &IngestConfig::default()).unwrap();
        let b = ingest_video(&mut db, "b", &small_clip(2), &IngestConfig::default()).unwrap();
        let manifest = db.list_manifest().unwrap();
        assert_eq!(manifest.len(), 2);
        assert_eq!(manifest[0].min_i_id, *a.keyframe_ids.first().unwrap());
        assert_eq!(manifest[0].max_i_id, *a.keyframe_ids.last().unwrap());
        assert_eq!(manifest[0].rows, a.keyframe_ids.len() as u64);
        assert_eq!(manifest[1].min_i_id, *b.keyframe_ids.first().unwrap());
        assert_eq!(manifest[1].rows, b.keyframe_ids.len() as u64);
    }
}
