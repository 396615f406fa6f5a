//! Labelled synthetic corpora.
//!
//! A corpus is a set of category-labelled clips plus the key-frame
//! feature catalog the engine searches. Categories are the ground truth:
//! a retrieved frame is *relevant* iff its source video shares the query's
//! category — the same judgement the paper's user study collected from
//! humans (our [`crate::judge`] adds their noise back when wanted).
//!
//! Built two ways:
//! - [`Corpus::build`] — in memory, straight to a [`QueryEngine`]
//!   (what the experiment drivers use; no storage round trip);
//! - [`Corpus::ingest_into`] — through the full storage engine (what the
//!   integration tests and the search-screen figure use).

use cbvr_core::engine::{CatalogEntry, QueryEngine};
use cbvr_core::ingest::{extract_feature_sets_parallel, ingest_video, IngestConfig};
use cbvr_core::Result;
use cbvr_imgproc::{Histogram256, RgbImage};
use cbvr_index::paper_range;
use cbvr_keyframe::{extract_keyframes, KeyframeConfig};
use cbvr_storage::backend::Backend;
use cbvr_storage::CbvrDatabase;
use cbvr_video::{Category, GeneratorConfig, Video, VideoGenerator};
use std::collections::HashMap;

/// Corpus parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusConfig {
    /// Videos generated per category.
    pub videos_per_category: u32,
    /// Base seed; different seeds give disjoint corpora.
    pub seed: u64,
    /// Clip geometry and shot structure.
    pub generator: GeneratorConfig,
    /// Key-frame extraction parameters.
    pub keyframe: KeyframeConfig,
    /// Feature-extraction worker threads.
    pub threads: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            videos_per_category: 6,
            seed: 1,
            generator: GeneratorConfig {
                width: 96,
                height: 72,
                shots_per_video: 6,
                min_shot_frames: 6,
                max_shot_frames: 10,
                ..GeneratorConfig::default()
            },
            // The paper's 800.0 threshold is tuned for archive.org
            // footage; the synthetic corpus has milder in-shot motion, so
            // a lower threshold keeps roughly one key frame per shot
            // instead of merging visually-close shots.
            keyframe: KeyframeConfig { threshold: 450.0 },
            threads: 4,
        }
    }
}

/// One corpus clip.
#[derive(Clone, Debug)]
pub struct CorpusVideo {
    /// Engine-visible video id.
    pub v_id: u64,
    /// Display name (`<category>_<index>`).
    pub name: String,
    /// Ground-truth label.
    pub category: Category,
    /// The clip itself.
    pub video: Video,
}

/// A built corpus: labelled clips plus the searchable engine.
pub struct Corpus {
    /// The clips, in generation order.
    pub videos: Vec<CorpusVideo>,
    /// The retrieval engine over all key frames.
    pub engine: QueryEngine,
    config: CorpusConfig,
}

impl Corpus {
    /// Generate and index a corpus entirely in memory.
    pub fn build(config: CorpusConfig) -> Result<Corpus> {
        let generator = VideoGenerator::new(config.generator.clone())
            .map_err(cbvr_core::CoreError::Video)?;
        let mut videos = Vec::new();
        let mut entries = Vec::new();
        let mut names = HashMap::new();
        let mut next_v_id = 1u64;
        let mut next_i_id = 1u64;
        for category in Category::ALL {
            for i in 0..config.videos_per_category {
                let seed = corpus_seed(config.seed, category, i);
                let video = generator.generate(category, seed).map_err(cbvr_core::CoreError::Video)?;
                let v_id = next_v_id;
                next_v_id += 1;
                let name = format!("{}_{i:02}", category.name());
                names.insert(v_id, name.clone());

                let keyframes = extract_keyframes(&video, &config.keyframe);
                let frames: Vec<&RgbImage> = keyframes.iter().map(|k| &k.frame).collect();
                let features = extract_feature_sets_parallel(&frames, config.threads);
                for (kf, set) in keyframes.iter().zip(features) {
                    entries.push(CatalogEntry {
                        i_id: next_i_id,
                        v_id,
                        range: paper_range(&Histogram256::of_rgb_luma(&kf.frame)),
                        features: set,
                    });
                    next_i_id += 1;
                }
                videos.push(CorpusVideo { v_id, name, category, video });
            }
        }
        Ok(Corpus { videos, engine: QueryEngine::from_catalog(entries, names), config })
    }

    /// The configuration the corpus was built with.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Ground-truth category of a video id (panics on unknown id).
    pub fn category_of(&self, v_id: u64) -> Category {
        self.videos
            .iter()
            .find(|v| v.v_id == v_id)
            .map(|v| v.category)
            .expect("v_id belongs to this corpus")
    }

    /// Key frames per category in the catalog.
    pub fn relevant_counts(&self) -> HashMap<Category, usize> {
        let mut counts: HashMap<Category, usize> = HashMap::new();
        for i in 0..self.engine.len() {
            let v_id = self.engine.entry(i).v_id;
            *counts.entry(self.category_of(v_id)).or_default() += 1;
        }
        counts
    }

    /// Generate *held-out* query videos: same category styles, seeds
    /// disjoint from every corpus video.
    pub fn query_videos(&self, per_category: u32) -> Result<Vec<(Category, Video)>> {
        let generator = VideoGenerator::new(self.config.generator.clone())
            .map_err(cbvr_core::CoreError::Video)?;
        let mut out = Vec::new();
        for category in Category::ALL {
            for i in 0..per_category {
                // Offset far beyond any corpus seed.
                let seed = corpus_seed(self.config.seed, category, i + 1_000_000);
                out.push((
                    category,
                    generator.generate(category, seed).map_err(cbvr_core::CoreError::Video)?,
                ));
            }
        }
        Ok(out)
    }

    /// Ingest every corpus clip into a database (full pipeline), mapping
    /// the corpus's in-memory ids to the database's assigned ids.
    pub fn ingest_into<B: Backend>(
        &self,
        db: &mut CbvrDatabase<B>,
        config: &IngestConfig,
    ) -> Result<HashMap<u64, u64>> {
        // The corpus's key-frame parameters override the ingest config's
        // so the database catalog matches the in-memory one exactly.
        let config =
            IngestConfig { keyframe: self.config.keyframe.clone(), ..config.clone() };
        let mut mapping = HashMap::new();
        for v in &self.videos {
            let report = ingest_video(db, &v.name, &v.video, &config)?;
            mapping.insert(v.v_id, report.v_id);
        }
        Ok(mapping)
    }
}

fn corpus_seed(base: u64, category: Category, index: u32) -> u64 {
    base.wrapping_mul(1_000_003)
        .wrapping_add((category as u64) << 32)
        .wrapping_add(index as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CorpusConfig {
        CorpusConfig {
            videos_per_category: 1,
            generator: GeneratorConfig {
                width: 48,
                height: 36,
                shots_per_video: 2,
                min_shot_frames: 4,
                max_shot_frames: 5,
                ..GeneratorConfig::default()
            },
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn corpus_covers_all_categories() {
        let corpus = Corpus::build(tiny_config()).unwrap();
        assert_eq!(corpus.videos.len(), 5);
        let cats: std::collections::HashSet<_> = corpus.videos.iter().map(|v| v.category).collect();
        assert_eq!(cats.len(), 5);
        assert!(!corpus.engine.is_empty());
        // Every category has catalog entries.
        let counts = corpus.relevant_counts();
        for c in Category::ALL {
            assert!(counts[&c] > 0, "{c} has no key frames");
        }
    }

    #[test]
    fn corpus_is_reproducible() {
        let a = Corpus::build(tiny_config()).unwrap();
        let b = Corpus::build(tiny_config()).unwrap();
        assert_eq!(a.videos.len(), b.videos.len());
        for (x, y) in a.videos.iter().zip(&b.videos) {
            assert_eq!(x.video, y.video);
            assert_eq!(x.name, y.name);
        }
        let mut c2 = tiny_config();
        c2.seed = 2;
        let c = Corpus::build(c2).unwrap();
        assert_ne!(a.videos[0].video, c.videos[0].video);
    }

    #[test]
    fn query_videos_are_held_out() {
        let corpus = Corpus::build(tiny_config()).unwrap();
        let queries = corpus.query_videos(1).unwrap();
        assert_eq!(queries.len(), 5);
        for (_, q) in &queries {
            for v in &corpus.videos {
                assert_ne!(*q, v.video, "query clip must not be in the corpus");
            }
        }
    }

    #[test]
    fn category_of_maps_ids() {
        let corpus = Corpus::build(tiny_config()).unwrap();
        for v in &corpus.videos {
            assert_eq!(corpus.category_of(v.v_id), v.category);
        }
    }

    #[test]
    fn ingest_into_database_round_trips() {
        let corpus = Corpus::build(tiny_config()).unwrap();
        let mut db = CbvrDatabase::in_memory().unwrap();
        let mapping = corpus.ingest_into(&mut db, &IngestConfig::default()).unwrap();
        assert_eq!(mapping.len(), corpus.videos.len());
        assert_eq!(db.video_count().unwrap(), corpus.videos.len());
        // The database-backed engine sees the same number of key frames.
        let engine = QueryEngine::from_database(&mut db).unwrap();
        assert_eq!(engine.len(), corpus.engine.len());
    }
}
