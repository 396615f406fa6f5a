//! Hand-rolled argument parsing: `cbvr --db DIR <command> [flags]`.

use cbvr_features::FeatureKind;
use cbvr_video::Category;
use std::fmt;
use std::path::PathBuf;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a synthetic clip into the database (demo content).
    Generate {
        /// Clip category.
        category: Category,
        /// Generation seed.
        seed: u64,
        /// Stored name.
        name: String,
    },
    /// Ingest a VSC file from disk.
    Ingest {
        /// Path to the `.vsc` file.
        file: PathBuf,
        /// Stored name (defaults to the file name).
        name: Option<String>,
    },
    /// List stored videos.
    List,
    /// Rename a stored video.
    Rename {
        /// Video id.
        id: u64,
        /// New name.
        name: String,
    },
    /// Delete a stored video (cascades to its key frames).
    Delete {
        /// Video id.
        id: u64,
    },
    /// Query by example image file.
    Query {
        /// Path to a PPM/PGM/BMP/VJP image.
        image: PathBuf,
        /// Results to return.
        k: usize,
        /// Restrict scoring to one feature (None = combined).
        feature: Option<FeatureKind>,
        /// Disable range-index pruning.
        no_index: bool,
    },
    /// Query by example clip file (DTW).
    QueryClip {
        /// Path to a `.vsc` file.
        file: PathBuf,
        /// Results to return.
        k: usize,
    },
    /// Metadata search by name substring.
    Search {
        /// Case-insensitive substring.
        name: String,
    },
    /// Export a stored video and its key frames to a directory.
    Export {
        /// Video id.
        id: u64,
        /// Output directory.
        out: PathBuf,
    },
    /// Print database statistics.
    Stats {
        /// Also print the runtime telemetry counters and histograms.
        telemetry: bool,
    },
    /// Rewrite the database compactly.
    Vacuum,
    /// Merge the catalog's segments, dropping tombstoned rows and
    /// refreshing the score calibration; persists the merged layout to
    /// the WAL manifest.
    Compact,
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `cbvr help`.
pub const USAGE: &str = "\
cbvr — content-based video retrieval

USAGE: cbvr --db DIR <command> [flags]

administrator commands:
  generate --category CAT --seed N --name NAME    add a synthetic clip
  ingest --file F.vsc [--name NAME]               add a clip from disk
  rename --id N --name NAME                       rename a stored video
  delete --id N                                   delete a video (cascades)
  vacuum                                          rewrite the db compactly
  compact                                         merge catalog segments,
                                                  drop removed rows, recalibrate

user commands:
  query --image F [--k N] [--feature KIND] [--no-index]
  query-clip --file F.vsc [--k N]
  search --name SUBSTR
  export --id N --out DIR
  list
  stats [--telemetry]
";

struct Cursor {
    args: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<&str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value_for(&mut self, flag: &str) -> Result<String, ParseError> {
        self.next()
            .map(str::to_string)
            .ok_or_else(|| ParseError(format!("flag {flag} needs a value")))
    }
}

/// Parse an argument vector (without the program name). Returns the
/// database directory and the command.
pub fn parse(args: &[String]) -> Result<(PathBuf, Command), ParseError> {
    let mut cursor = Cursor { args: args.to_vec(), pos: 0 };
    let mut db: Option<PathBuf> = None;

    let command = loop {
        let Some(arg) = cursor.next() else {
            break Command::Help;
        };
        match arg {
            "--db" => db = Some(PathBuf::from(cursor.value_for("--db")?)),
            "help" | "--help" | "-h" => break Command::Help,
            other => {
                let name = other.to_string();
                break parse_command(&name, &mut cursor)?;
            }
        }
    };

    if matches!(command, Command::Help) {
        return Ok((db.unwrap_or_default(), command));
    }
    let db = db.ok_or_else(|| ParseError("missing --db DIR".into()))?;
    Ok((db, command))
}

fn parse_command(name: &str, cursor: &mut Cursor) -> Result<Command, ParseError> {
    let mut category: Option<Category> = None;
    let mut seed: Option<u64> = None;
    let mut id: Option<u64> = None;
    let mut k: Option<usize> = None;
    let mut video_name: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut image: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut feature: Option<FeatureKind> = None;
    let mut no_index = false;
    let mut telemetry = false;

    while let Some(flag) = cursor.next() {
        let flag = flag.to_string();
        match flag.as_str() {
            "--category" => {
                let v = cursor.value_for(&flag)?;
                category = Some(
                    Category::from_name(&v)
                        .ok_or_else(|| ParseError(format!("unknown category '{v}'")))?,
                );
            }
            "--seed" => {
                seed = Some(
                    cursor
                        .value_for(&flag)?
                        .parse()
                        .map_err(|e| ParseError(format!("bad --seed: {e}")))?,
                )
            }
            "--id" => {
                id = Some(
                    cursor
                        .value_for(&flag)?
                        .parse()
                        .map_err(|e| ParseError(format!("bad --id: {e}")))?,
                )
            }
            "--k" => {
                k = Some(
                    cursor
                        .value_for(&flag)?
                        .parse()
                        .map_err(|e| ParseError(format!("bad --k: {e}")))?,
                )
            }
            "--name" => video_name = Some(cursor.value_for(&flag)?),
            "--file" => file = Some(PathBuf::from(cursor.value_for(&flag)?)),
            "--image" => image = Some(PathBuf::from(cursor.value_for(&flag)?)),
            "--out" => out = Some(PathBuf::from(cursor.value_for(&flag)?)),
            "--feature" => {
                let v = cursor.value_for(&flag)?;
                feature = Some(
                    FeatureKind::from_name(&v)
                        .ok_or_else(|| ParseError(format!("unknown feature '{v}'")))?,
                );
            }
            "--no-index" => no_index = true,
            "--telemetry" => telemetry = true,
            other => return Err(ParseError(format!("unknown flag '{other}' for {name}"))),
        }
    }

    // A closure cannot be generic over the option's payload; a macro can.
    macro_rules! need {
        ($opt:expr, $what:expr) => {
            $opt.ok_or_else(|| ParseError(format!("{name} requires {}", $what)))?
        };
    }
    Ok(match name {
        "generate" => Command::Generate {
            category: need!(category, "--category"),
            seed: seed.unwrap_or(0),
            name: need!(video_name, "--name"),
        },
        "ingest" => Command::Ingest { file: need!(file, "--file"), name: video_name },
        "list" => Command::List,
        "rename" => Command::Rename { id: need!(id, "--id"), name: need!(video_name, "--name") },
        "delete" => Command::Delete { id: need!(id, "--id") },
        "query" => Command::Query {
            image: need!(image, "--image"),
            k: k.unwrap_or(10),
            feature,
            no_index,
        },
        "query-clip" => Command::QueryClip { file: need!(file, "--file"), k: k.unwrap_or(5) },
        "search" => Command::Search { name: need!(video_name, "--name") },
        "export" => Command::Export { id: need!(id, "--id"), out: need!(out, "--out") },
        "stats" => Command::Stats { telemetry },
        "vacuum" => Command::Vacuum,
        "compact" => Command::Compact,
        other => return Err(ParseError(format!("unknown command '{other}'"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let (db, cmd) = parse(&v(&[
            "--db", "/tmp/x", "generate", "--category", "sports", "--seed", "7", "--name", "a.vsc",
        ]))
        .unwrap();
        assert_eq!(db, PathBuf::from("/tmp/x"));
        assert_eq!(
            cmd,
            Command::Generate { category: Category::Sports, seed: 7, name: "a.vsc".into() }
        );
    }

    #[test]
    fn parses_query_with_options() {
        let (_, cmd) = parse(&v(&[
            "--db", "d", "query", "--image", "q.bmp", "--k", "25", "--feature", "gabor",
            "--no-index",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                image: PathBuf::from("q.bmp"),
                k: 25,
                feature: Some(FeatureKind::Gabor),
                no_index: true,
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let (_, cmd) = parse(&v(&["--db", "d", "query", "--image", "q.bmp"])).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                image: PathBuf::from("q.bmp"),
                k: 10,
                feature: None,
                no_index: false,
            }
        );
        let (_, cmd) = parse(&v(&["--db", "d", "generate", "--category", "news", "--name", "n"]))
            .unwrap();
        assert!(matches!(cmd, Command::Generate { seed: 0, .. }));
    }

    #[test]
    fn missing_db_is_an_error_except_for_help() {
        assert!(parse(&v(&["list"])).is_err());
        let (_, cmd) = parse(&v(&["help"])).unwrap();
        assert_eq!(cmd, Command::Help);
        let (_, cmd) = parse(&v(&[])).unwrap();
        assert_eq!(cmd, Command::Help);
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&v(&["--db", "d", "generate", "--name", "x"])).is_err());
        assert!(parse(&v(&["--db", "d", "rename", "--id", "1"])).is_err());
        assert!(parse(&v(&["--db", "d", "export", "--id", "1"])).is_err());
    }

    #[test]
    fn bad_values_error_with_context() {
        let e = parse(&v(&["--db", "d", "delete", "--id", "abc"])).unwrap_err();
        assert!(e.to_string().contains("--id"));
        let e = parse(&v(&["--db", "d", "generate", "--category", "nope", "--name", "n"]))
            .unwrap_err();
        assert!(e.to_string().contains("nope"));
        let e = parse(&v(&["--db", "d", "query", "--image", "q", "--feature", "huh"]))
            .unwrap_err();
        assert!(e.to_string().contains("huh"));
    }

    #[test]
    fn unknown_command_and_flag_error() {
        assert!(parse(&v(&["--db", "d", "frobnicate"])).is_err());
        assert!(parse(&v(&["--db", "d", "list", "--wat"])).is_err());
    }

    #[test]
    fn all_simple_commands_parse() {
        for (args, expect) in [
            (vec!["--db", "d", "list"], Command::List),
            (vec!["--db", "d", "stats"], Command::Stats { telemetry: false }),
            (vec!["--db", "d", "stats", "--telemetry"], Command::Stats { telemetry: true }),
            (vec!["--db", "d", "vacuum"], Command::Vacuum),
            (vec!["--db", "d", "compact"], Command::Compact),
        ] {
            let (_, cmd) = parse(&v(&args)).unwrap();
            assert_eq!(cmd, expect);
        }
    }
}
