//! Command execution against a durable on-disk database.
//!
//! Every command returns its output as a `String` (printed by `main`),
//! which keeps the whole surface unit-testable.

use crate::args::Command;
use cbvr_core::{ingest_video, FeatureWeights, IngestConfig, QueryEngine, QueryOptions};
use cbvr_imgproc::codec::{encode as encode_image, ImageFormat};
use cbvr_keyframe::KeyframeConfig;
use cbvr_storage::backend::FileBackend;
use cbvr_storage::{CbvrDatabase, ManifestSegment};
use cbvr_video::{decode_vsc, GeneratorConfig, VideoGenerator};
use std::fmt;
use std::path::{Path, PathBuf};

/// A command failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(context: &str, e: impl fmt::Display) -> CliError {
    CliError(format!("{context}: {e}"))
}

type Db = CbvrDatabase<FileBackend>;

fn open(db_dir: &Path) -> Result<Db, CliError> {
    Db::open_dir(db_dir).map_err(|e| err("open database", e))
}

/// Execute a parsed command; returns the text to print.
pub fn run(db_dir: &Path, command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Generate { category, seed, name } => {
            let mut db = open(db_dir)?;
            let generator = VideoGenerator::new(GeneratorConfig::default())
                .map_err(|e| err("generator", e))?;
            let clip = generator.generate(category, seed).map_err(|e| err("generate", e))?;
            let report = ingest_video(&mut db, &name, &clip, &IngestConfig::default())
                .map_err(|e| err("ingest", e))?;
            Ok(format!(
                "added v_id={} '{name}' ({} frames, {} key frames)",
                report.v_id,
                clip.frame_count(),
                report.keyframe_ids.len()
            ))
        }
        Command::Ingest { file, name } => {
            let bytes = std::fs::read(&file).map_err(|e| err("read file", e))?;
            // The decode stage of the ingest pipeline (the library's
            // `ingest_video` takes an already-decoded clip).
            let clip = {
                let _t = cbvr_core::Registry::global().span("ingest.decode_nanos");
                decode_vsc(&bytes).map_err(|e| err("decode VSC", e))?
            };
            let name = name.unwrap_or_else(|| {
                file.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
            });
            if name.is_empty() {
                return Err(CliError("cannot derive a name; pass --name".into()));
            }
            let mut db = open(db_dir)?;
            let report = ingest_video(&mut db, &name, &clip, &IngestConfig::default())
                .map_err(|e| err("ingest", e))?;
            Ok(format!("added v_id={} '{name}' ({} key frames)", report.v_id, report.keyframe_ids.len()))
        }
        Command::List => {
            let mut db = open(db_dir)?;
            let videos = db.list_videos().map_err(|e| err("list", e))?;
            if videos.is_empty() {
                return Ok("database is empty".to_string());
            }
            let mut out = format!("{:<6} {:<30} {:<12} key frames\n", "v_id", "name", "dostore");
            for (v_id, name, dostore) in videos {
                let kf = db.key_frames_of_video(v_id).map_err(|e| err("key frames", e))?.len();
                out.push_str(&format!("{v_id:<6} {name:<30} {dostore:<12} {kf}\n"));
            }
            Ok(out)
        }
        Command::Rename { id, name } => {
            let mut db = open(db_dir)?;
            db.rename_video(id, &name).map_err(|e| err("rename", e))?;
            Ok(format!("renamed v_id={id} to '{name}'"))
        }
        Command::Delete { id } => {
            let mut db = open(db_dir)?;
            db.delete_video(id).map_err(|e| err("delete", e))?;
            Ok(format!("deleted v_id={id} (and its key frames)"))
        }
        Command::Query { image, k, feature, no_index } => {
            let bytes = std::fs::read(&image).map_err(|e| err("read image", e))?;
            let frame = cbvr_imgproc::decode_auto(&bytes).map_err(|e| err("decode image", e))?;
            let mut db = open(db_dir)?;
            let engine = QueryEngine::from_database(&mut db).map_err(|e| err("load catalog", e))?;
            if engine.is_empty() {
                return Ok("catalog is empty — ingest videos first".to_string());
            }
            let weights = match feature {
                Some(kind) => FeatureWeights::single(kind),
                None => FeatureWeights::default(),
            };
            let results =
                engine.query_frame(
                &frame,
                &QueryOptions {
                    k,
                    weights,
                    use_index: !no_index,
                    ..Default::default()
                },
            );
            let mut out = format!("{:<6} {:<30} {:<10} score\n", "rank", "video", "keyframe");
            for (rank, m) in results.iter().enumerate() {
                out.push_str(&format!(
                    "{:<6} {:<30} #{:<9} {:.4}\n",
                    rank + 1,
                    engine.video_name(m.v_id).unwrap_or_else(|| "?".to_string()),
                    m.i_id,
                    m.score
                ));
            }
            Ok(out)
        }
        Command::QueryClip { file, k } => {
            let bytes = std::fs::read(&file).map_err(|e| err("read file", e))?;
            let clip = decode_vsc(&bytes).map_err(|e| err("decode VSC", e))?;
            let mut db = open(db_dir)?;
            let engine = QueryEngine::from_database(&mut db).map_err(|e| err("load catalog", e))?;
            let results = engine.query_video(
                &clip,
                &KeyframeConfig::default(),
                &QueryOptions { k, ..Default::default() },
            );
            let mut out = format!("{:<6} {:<30} DTW distance\n", "rank", "video");
            for (rank, m) in results.iter().enumerate() {
                out.push_str(&format!(
                    "{:<6} {:<30} {:.5}\n",
                    rank + 1,
                    engine.video_name(m.v_id).unwrap_or_else(|| "?".to_string()),
                    m.distance
                ));
            }
            Ok(out)
        }
        Command::Search { name } => {
            let mut db = open(db_dir)?;
            let engine = QueryEngine::from_database(&mut db).map_err(|e| err("load catalog", e))?;
            let hits = engine.find_videos_by_name(&name);
            if hits.is_empty() {
                return Ok(format!("no video names contain '{name}'"));
            }
            Ok(hits
                .into_iter()
                .map(|(v_id, n)| format!("v_id={v_id} {n}"))
                .collect::<Vec<_>>()
                .join("\n"))
        }
        Command::Export { id, out } => {
            let mut db = open(db_dir)?;
            let full = db.get_video(id).map_err(|e| err("fetch", e))?;
            std::fs::create_dir_all(&out).map_err(|e| err("create out dir", e))?;
            let video_bytes = db.read_video_bytes(&full.row).map_err(|e| err("video blob", e))?;
            let video_path = out.join(format!("{}.vsc", sanitise(&full.v_name)));
            std::fs::write(&video_path, &video_bytes).map_err(|e| err("write video", e))?;
            let mut frames_written = 0usize;
            for i_id in db.key_frames_of_video(id).map_err(|e| err("key frames", e))? {
                let row = db.get_key_frame(i_id).map_err(|e| err("key frame", e))?;
                let image = db.read_image_bytes(&row).map_err(|e| err("image blob", e))?;
                let img = cbvr_imgproc::decode_auto(&image).map_err(|e| err("decode image", e))?;
                let path = out.join(format!("{}.bmp", sanitise(&row.i_name)));
                std::fs::write(path, encode_image(&img, ImageFormat::Bmp))
                    .map_err(|e| err("write key frame", e))?;
                frames_written += 1;
            }
            Ok(format!(
                "exported '{}' to {} ({} key frames)",
                full.v_name,
                video_path.display(),
                frames_written
            ))
        }
        Command::Stats { telemetry } => {
            let mut db = open(db_dir)?;
            let s = db.stats().map_err(|e| err("stats", e))?;
            let mut out = format!(
                "pages: {}\nvideos: {}\nkey frames: {}\nnext v_id: {}\nnext i_id: {}\n\
                 manifest segments: {}",
                s.pages, s.videos, s.key_frames, s.next_v_id, s.next_i_id, s.manifest_segments
            );
            if telemetry {
                // Load the catalog so the query-engine counters exist
                // (notably `query.arena.bytes`, recorded at arena build).
                let engine =
                    QueryEngine::from_database(&mut db).map_err(|e| err("load catalog", e))?;
                out.push_str(&format!(
                    "\n\nsegments ({} live rows, {} tombstoned videos):\n{:<6} {:<8} {:<10} arena bytes\n",
                    engine.len(),
                    engine.tombstone_count(),
                    "id",
                    "rows",
                    "live"
                ));
                for seg in engine.segment_stats() {
                    out.push_str(&format!(
                        "{:<6} {:<8} {:<10} {}\n",
                        seg.id, seg.rows, seg.live_rows, seg.arena_bytes
                    ));
                }
                // The process-wide registry plus the storage engine's
                // counters, merged and sorted like `GET /metrics`.
                let mut lines = cbvr_core::Registry::global().render_lines();
                lines.extend(db.telemetry().render_lines());
                lines.sort();
                out.push_str("\n\ntelemetry:\n");
                for line in &lines {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Ok(out)
        }
        Command::Vacuum => {
            let mut db = open(db_dir)?;
            let before = db.stats().map_err(|e| err("stats", e))?;
            // Vacuum into a sibling temp dir, then swap files.
            let tmp = db_dir.join("vacuum-tmp");
            let _ = std::fs::remove_dir_all(&tmp);
            std::fs::create_dir_all(&tmp).map_err(|e| err("create temp dir", e))?;
            let data = FileBackend::open(&tmp.join("cbvr.db")).map_err(|e| err("temp db", e))?;
            let wal = FileBackend::open(&tmp.join("cbvr.wal")).map_err(|e| err("temp wal", e))?;
            let fresh = db.vacuum_into(data, wal).map_err(|e| err("vacuum", e))?;
            let after_pages = fresh.page_count();
            drop(fresh);
            drop(db);
            std::fs::rename(tmp.join("cbvr.db"), db_dir.join("cbvr.db"))
                .map_err(|e| err("swap db", e))?;
            std::fs::rename(tmp.join("cbvr.wal"), db_dir.join("cbvr.wal"))
                .map_err(|e| err("swap wal", e))?;
            let _ = std::fs::remove_dir_all(&tmp);
            Ok(format!("vacuumed: {} pages -> {} pages", before.pages, after_pages))
        }
        Command::Compact => {
            let mut db = open(db_dir)?;
            let engine = QueryEngine::from_database(&mut db).map_err(|e| err("load catalog", e))?;
            let report = engine.compact();
            // Persist the merged layout: replace the WAL manifest with one
            // record spanning the live rows, so the next catalog load sees
            // a single segment too.
            let manifest = if engine.is_empty() {
                Vec::new()
            } else {
                vec![ManifestSegment {
                    min_i_id: engine.entry(0).i_id,
                    max_i_id: engine.entry(engine.len() - 1).i_id,
                    rows: engine.len() as u64,
                }]
            };
            db.replace_manifest(&manifest).map_err(|e| err("write manifest", e))?;
            Ok(format!(
                "compacted: {} segments -> {} ({} rows dropped, {} live rows, calibration refreshed)",
                report.segments_before,
                report.segments_after,
                report.rows_dropped,
                engine.len()
            ))
        }
    }
}

fn sanitise(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' }).collect()
}

/// `main` body: parse, run, print; returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    match crate::args::parse(args) {
        Err(e) => {
            eprintln!("error: {e}\n\n{}", crate::args::USAGE);
            2
        }
        Ok((db, command)) => match run(&db, command) {
            Ok(output) => {
                println!("{output}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    }
}

#[allow(unused)]
fn unused_pathbuf(_: PathBuf) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn temp_db(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbvr-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cli(db: &Path, args: &[&str]) -> Result<String, CliError> {
        let mut full: Vec<String> = vec!["--db".into(), db.to_string_lossy().into_owned()];
        full.extend(args.iter().map(|s| s.to_string()));
        let (dir, cmd) = parse(&full).expect("parse");
        run(&dir, cmd)
    }

    #[test]
    fn full_admin_and_user_workflow() {
        let db = temp_db("flow");

        // Admin: generate two clips.
        let out = cli(&db, &["generate", "--category", "sports", "--seed", "1", "--name", "s1"])
            .unwrap();
        assert!(out.contains("added v_id=1"), "{out}");
        cli(&db, &["generate", "--category", "movie", "--seed", "2", "--name", "m1"]).unwrap();

        // List shows both.
        let out = cli(&db, &["list"]).unwrap();
        assert!(out.contains("s1") && out.contains("m1"), "{out}");

        // Rename, search by metadata.
        cli(&db, &["rename", "--id", "1", "--name", "sports_final"]).unwrap();
        let out = cli(&db, &["search", "--name", "SPORTS"]).unwrap();
        assert!(out.contains("sports_final"), "{out}");

        // Export, then query with an exported key frame: self-match first.
        let out_dir = db.join("export");
        cli(&db, &["export", "--id", "1", "--out", out_dir.to_str().unwrap()]).unwrap();
        let bmp = std::fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "bmp"))
            .expect("exported key frame");
        let out = cli(&db, &["query", "--image", bmp.path().to_str().unwrap(), "--k", "3"]).unwrap();
        let first_line = out.lines().nth(1).unwrap();
        assert!(first_line.contains("sports_final"), "{out}");
        assert!(first_line.contains("1.0000"), "self-match scores 1: {out}");

        // Single-feature query also runs.
        let out = cli(
            &db,
            &["query", "--image", bmp.path().to_str().unwrap(), "--feature", "glcm", "--no-index"],
        )
        .unwrap();
        assert!(out.contains("rank"), "{out}");

        // Clip query with the exported container finds its source.
        let vsc = std::fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "vsc"))
            .expect("exported container");
        let out = cli(&db, &["query-clip", "--file", vsc.path().to_str().unwrap()]).unwrap();
        assert!(out.lines().nth(1).unwrap().contains("sports_final"), "{out}");

        // Stats, delete, vacuum.
        let out = cli(&db, &["stats"]).unwrap();
        assert!(out.contains("videos: 2"), "{out}");
        cli(&db, &["delete", "--id", "2"]).unwrap();
        let out = cli(&db, &["vacuum"]).unwrap();
        assert!(out.contains("pages"), "{out}");
        let out = cli(&db, &["list"]).unwrap();
        assert!(out.contains("sports_final") && !out.contains("m1"), "{out}");

        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn errors_are_user_facing() {
        let db = temp_db("errs");
        let e = cli(&db, &["delete", "--id", "99"]).unwrap_err();
        assert!(e.to_string().contains("delete"), "{e}");
        let e = cli(&db, &["query", "--image", "/nonexistent.bmp"]).unwrap_err();
        assert!(e.to_string().contains("read image"), "{e}");
        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn empty_catalog_query_is_graceful() {
        let db = temp_db("empty");
        // Create the db by running stats once.
        cli(&db, &["stats"]).unwrap();
        // Write a query image.
        let img = cbvr_imgproc::RgbImage::filled(16, 16, cbvr_imgproc::Rgb::new(1, 2, 3)).unwrap();
        let path = db.join("q.bmp");
        std::fs::write(&path, encode_image(&img, ImageFormat::Bmp)).unwrap();
        let out = cli(&db, &["query", "--image", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("catalog is empty"), "{out}");
        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn ingest_from_file_round_trips() {
        let db = temp_db("ingest");
        std::fs::create_dir_all(&db).unwrap();
        // Write a VSC clip to disk.
        let generator = VideoGenerator::new(GeneratorConfig {
            width: 48,
            height: 36,
            shots_per_video: 2,
            min_shot_frames: 3,
            max_shot_frames: 4,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let clip = generator.generate(cbvr_video::Category::News, 5).unwrap();
        let path = db.join("news.vsc");
        std::fs::write(&path, cbvr_video::encode_vsc(&clip, cbvr_video::FrameCodec::Delta)).unwrap();

        let out = cli(&db, &["ingest", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("'news.vsc'"), "name derived from file: {out}");
        let out = cli(&db, &["list"]).unwrap();
        assert!(out.contains("news.vsc"), "{out}");
        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn compact_merges_manifest_segments() {
        let db = temp_db("compact");
        cli(&db, &["generate", "--category", "sports", "--seed", "1", "--name", "a"]).unwrap();
        cli(&db, &["generate", "--category", "movie", "--seed", "2", "--name", "b"]).unwrap();

        // Each ingest sealed one manifest segment.
        let out = cli(&db, &["stats"]).unwrap();
        assert!(out.contains("manifest segments: 2"), "{out}");

        let out = cli(&db, &["compact"]).unwrap();
        assert!(out.contains("compacted: 2 segments -> 1"), "{out}");
        assert!(out.contains("0 rows dropped"), "{out}");

        // The persisted layout is now one segment, and the telemetry view
        // renders the per-segment table plus the catalog gauges.
        let out = cli(&db, &["stats", "--telemetry"]).unwrap();
        assert!(out.contains("manifest segments: 1"), "{out}");
        assert!(out.contains("segments ("), "{out}");
        assert!(out.contains("catalog.segments 1"), "{out}");
        assert!(out.contains("catalog.tombstones 0"), "{out}");

        // Queries still work on the compacted layout.
        let out_dir = db.join("export");
        cli(&db, &["export", "--id", "1", "--out", out_dir.to_str().unwrap()]).unwrap();
        let bmp = std::fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "bmp"))
            .expect("exported key frame");
        let out = cli(&db, &["query", "--image", bmp.path().to_str().unwrap(), "--k", "2"]).unwrap();
        assert!(out.lines().nth(1).unwrap().contains("1.0000"), "{out}");

        std::fs::remove_dir_all(&db).ok();
    }

    #[test]
    fn help_prints_usage() {
        let (_, cmd) = parse(&["help".to_string()]).unwrap();
        let out = run(Path::new(""), cmd).unwrap();
        assert!(out.contains("administrator commands"));
    }
}
