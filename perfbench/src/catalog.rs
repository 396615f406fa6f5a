//! Seeded inputs: labelled key frames, their extracted base descriptors,
//! and the distinct-row catalog generator.
//!
//! Extracting real features for 50k rows would take about an hour, and
//! tiling a few frames fills the catalog with exact duplicates (which the
//! early-abandon cascade prunes far more easily than real rows). The
//! generator instead extracts a small seeded base set once and builds
//! each row from seven *different* base frames, one per feature kind:
//! every descriptor is a genuine extracted value, and no two rows are
//! equal.

use crate::trace::{Ctx, Tracer};
use cbvr_core::engine::CatalogEntry;
use cbvr_core::ingest::extract_feature_sets_parallel;
use cbvr_core::{ExecPool, THREADS_AUTO};
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::{Histogram256, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_video::{Category, GeneratorConfig, Video, VideoGenerator};
use std::collections::{HashMap, HashSet};

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one run seed, so adding
    /// a stream never shifts the values another stream draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A key frame with the category of the clip it came from.
#[derive(Clone, Debug)]
pub struct LabelledFrame {
    /// Ground-truth label (Table 1 relevance).
    pub category: Category,
    /// The frame itself.
    pub frame: RgbImage,
}

/// Generator for short two-shot clips (detection has a cut to find).
pub fn short_clip_generator(width: u32, height: u32) -> VideoGenerator {
    VideoGenerator::new(GeneratorConfig {
        width,
        height,
        shots_per_video: 2,
        min_shot_frames: 4,
        max_shot_frames: 6,
        ..GeneratorConfig::default()
    })
    .expect("valid generator config")
}

/// Render `n` seeded clips, categories round robin, on the shared pool.
pub fn seeded_clips(rng: &mut Rng, n: usize, generator: &VideoGenerator) -> Vec<(Category, Video)> {
    let jobs: Vec<(Category, u64)> = (0..n)
        .map(|i| (Category::ALL[i % Category::ALL.len()], rng.next_u64()))
        .collect();
    ExecPool::global().map(&jobs, 1, THREADS_AUTO, |_, &(category, video_seed)| {
        (
            category,
            generator
                .generate(category, video_seed)
                .expect("generator config validated"),
        )
    })
}

/// One key frame from each of `n` seeded clips (categories round robin):
/// detect the clip's key frames, keep one chosen by the seed.
pub fn seeded_keyframes(
    rng: &mut Rng,
    n: usize,
    generator: &VideoGenerator,
    tracer: &Tracer,
    ctx: Ctx,
) -> Vec<LabelledFrame> {
    let clips = seeded_clips(rng, n, generator);
    let picks: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let config = KeyframeConfig::default();
    ExecPool::global().map(&clips, 1, THREADS_AUTO, |i, (category, clip)| {
        let mut keyframes = {
            let _span = tracer.span("keyframe.extract_keyframes", ctx);
            extract_keyframes(clip, &config)
        };
        let k = (picks[i] % keyframes.len() as u64) as usize;
        LabelledFrame {
            category: *category,
            frame: keyframes.swap_remove(k).frame,
        }
    })
}

/// Extract all seven descriptors of each frame on the shared pool,
/// through the ingest path's extractor (so the program's own per-kind
/// extraction histograms record the cost).
pub fn extract<'a>(frames: impl IntoIterator<Item = &'a RgbImage>) -> Vec<FeatureSet> {
    let refs: Vec<&RgbImage> = frames.into_iter().collect();
    extract_feature_sets_parallel(&refs, THREADS_AUTO)
}

/// The §4.2 range key of a frame.
pub fn range_of(frame: &RgbImage) -> RangeKey {
    paper_range(&Histogram256::of_rgb_luma(frame))
}

/// Feature kinds per row.
pub const KINDS: usize = 7;

/// Kinds in [`FeatureSet`] field order, which is also the order of the
/// `KEY_FRAMES` feature columns (`SCH`, `GLCM`, `GABOR`, `TAMURA`,
/// `ACC`, `NAIVE`, `SRG`).
pub const FIELD_KINDS: [FeatureKind; KINDS] = [
    FeatureKind::ColorHistogram,
    FeatureKind::Glcm,
    FeatureKind::Gabor,
    FeatureKind::Tamura,
    FeatureKind::Correlogram,
    FeatureKind::Naive,
    FeatureKind::Regions,
];

/// One row's base index per kind, in [`FIELD_KINDS`] order.
pub type Picks = [u16; KINDS];

/// Extracted base frames that rows are assembled from.
pub struct BaseSet {
    sets: Vec<FeatureSet>,
    ranges: Vec<RangeKey>,
    /// `strings[b][k]`: base `b`'s kind-`k` feature string.
    strings: Vec<[String; KINDS]>,
    /// `canon[b][k]`: the first base whose kind-`k` descriptor equals
    /// base `b`'s, so equal descriptors collapse before deduplication.
    canon: Vec<[u16; KINDS]>,
}

impl BaseSet {
    /// Render, detect and extract `n` seeded 160×120 key frames.
    pub fn seeded(rng: &mut Rng, n: usize, tracer: &Tracer, ctx: Ctx) -> BaseSet {
        let frames = seeded_keyframes(rng, n, &short_clip_generator(160, 120), tracer, ctx);
        let sets = {
            let _span = tracer.span("features.extract", ctx);
            extract(frames.iter().map(|f| &f.frame))
        };
        BaseSet::new(&frames, sets)
    }

    /// Build from frames and their extracted descriptors.
    pub fn new(frames: &[LabelledFrame], sets: Vec<FeatureSet>) -> BaseSet {
        assert!(
            sets.len() >= KINDS,
            "need at least {KINDS} bases for seven distinct picks"
        );
        assert!(sets.len() <= u16::MAX as usize);
        let ranges = frames.iter().map(|f| range_of(&f.frame)).collect();
        let strings: Vec<[String; KINDS]> = sets
            .iter()
            .map(|set| {
                std::array::from_fn(|k| set.descriptor_ref(FIELD_KINDS[k]).to_feature_string())
            })
            .collect();
        let mut canon = vec![[0u16; KINDS]; sets.len()];
        for k in 0..KINDS {
            let mut seen: HashMap<&str, u16> = HashMap::new();
            for (b, row) in strings.iter().enumerate() {
                canon[b][k] = *seen.entry(row[k].as_str()).or_insert(b as u16);
            }
        }
        BaseSet {
            sets,
            ranges,
            strings,
            canon,
        }
    }

    /// `n` distinct rows: each takes its seven descriptors from seven
    /// different bases, and no two rows share all seven descriptor values.
    pub fn distinct_picks(&self, rng: &mut Rng, n: usize) -> Vec<Picks> {
        let mut seen: HashSet<Picks> = HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        let mut order: Vec<u16> = (0..self.sets.len() as u16).collect();
        while out.len() < n {
            // Partial Fisher–Yates: the first seven slots are distinct.
            for k in 0..KINDS {
                let j = k + rng.below(order.len() - k);
                order.swap(k, j);
            }
            let picks: Picks = std::array::from_fn(|k| order[k]);
            let key: Picks = std::array::from_fn(|k| self.canon[picks[k] as usize][k]);
            if seen.insert(key) {
                out.push(picks);
            }
        }
        out
    }

    /// The row's descriptors and its range key (taken from the base that
    /// supplies the colour histogram, whose luma the range summarises).
    pub fn row(&self, picks: &Picks) -> (FeatureSet, RangeKey) {
        let b = |k: usize| &self.sets[picks[k] as usize];
        let set = FeatureSet {
            histogram: b(0).histogram.clone(),
            glcm: b(1).glcm,
            gabor: b(2).gabor.clone(),
            tamura: b(3).tamura.clone(),
            correlogram: b(4).correlogram.clone(),
            naive: b(5).naive.clone(),
            regions: b(6).regions,
        };
        (set, self.ranges[picks[0] as usize])
    }

    /// The row's seven feature strings in [`FIELD_KINDS`] order, and its
    /// major-region count: the `KEY_FRAMES` columns.
    pub fn row_strings(&self, picks: &Picks) -> ([&str; KINDS], u32) {
        let strings = std::array::from_fn(|k| self.strings[picks[k] as usize][k].as_str());
        (strings, self.sets[picks[6] as usize].regions.major_regions)
    }

    /// A catalog of `n` distinct rows grouped into videos of 1–8 key
    /// frames, with ids counting up from `first_i_id` / `first_v_id`.
    pub fn catalog(
        &self,
        rng: &mut Rng,
        n: usize,
        first_i_id: u64,
        first_v_id: u64,
    ) -> (Vec<CatalogEntry>, HashMap<u64, String>) {
        let picks = self.distinct_picks(rng, n);
        let mut entries = Vec::with_capacity(n);
        let mut names = HashMap::new();
        let mut v_id = first_v_id;
        let mut left_in_video = 0;
        for (i, p) in picks.iter().enumerate() {
            if left_in_video == 0 {
                left_in_video = 1 + rng.below(8);
                v_id = first_v_id + names.len() as u64;
                names.insert(v_id, format!("distinct_{v_id}"));
            }
            left_in_video -= 1;
            let (features, range) = self.row(p);
            entries.push(CatalogEntry {
                i_id: first_i_id + i as u64,
                v_id,
                range,
                features,
            });
        }
        (entries, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bases(seed: u64) -> BaseSet {
        let mut rng = Rng::stream(seed, 1);
        let tracer = Tracer::new(false);
        let frames = seeded_keyframes(
            &mut rng,
            12,
            &short_clip_generator(32, 24),
            &tracer,
            Ctx::default(),
        );
        BaseSet::new(&frames, extract(frames.iter().map(|f| &f.frame)))
    }

    fn row_key(set: &FeatureSet) -> String {
        set.to_feature_strings()
            .into_iter()
            .map(|(_, s)| s)
            .collect::<Vec<_>>()
            .join("|")
    }

    #[test]
    fn rows_are_distinct_and_use_seven_bases() {
        let bases = tiny_bases(3);
        let (entries, names) = bases.catalog(&mut Rng::stream(3, 2), 3000, 1, 0);
        assert_eq!(entries.len(), 3000);
        let keys: HashSet<String> = entries.iter().map(|e| row_key(&e.features)).collect();
        assert_eq!(keys.len(), entries.len(), "duplicate rows");
        for p in bases.distinct_picks(&mut Rng::stream(3, 2), 200) {
            let unique: HashSet<u16> = p.iter().copied().collect();
            assert_eq!(unique.len(), KINDS, "row reuses a base: {p:?}");
            // The storage strings are the row's descriptors, column by column.
            let (set, _) = bases.row(&p);
            let (strings, _) = bases.row_strings(&p);
            for (k, s) in strings.iter().enumerate() {
                assert_eq!(*s, set.descriptor_ref(FIELD_KINDS[k]).to_feature_string());
            }
        }
        assert!(entries.iter().all(|e| names.contains_key(&e.v_id)));
    }

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let bases = tiny_bases(5);
        let rows = |seed| {
            let (entries, _) = bases.catalog(&mut Rng::stream(seed, 2), 500, 1, 0);
            entries
                .iter()
                .map(|e| (e.i_id, e.v_id, row_key(&e.features)))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(9), rows(9));
        assert_ne!(rows(9), rows(10));
        // The base set itself is a function of the seed.
        assert_eq!(bases.sets, tiny_bases(5).sets);
    }
}
