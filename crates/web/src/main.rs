//! `cbvr-web` binary: serve a database directory over HTTP.
//!
//! ```text
//! cbvr-web --db DIR [--addr 127.0.0.1:8080]
//! ```

use cbvr_storage::CbvrDatabase;
use cbvr_web::{AppState, Server};
use std::path::PathBuf;

const USAGE: &str = "usage: cbvr-web --db DIR [--addr HOST:PORT]";

/// The database directory and listen address named on the command line,
/// or the message to print before exiting with status 2.
fn parse_args(args: &[String]) -> Result<(PathBuf, String), String> {
    let mut db_dir: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:8080".to_string();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--db", Some(value)) => db_dir = Some(PathBuf::from(value)),
            ("--addr", Some(value)) => addr = value.clone(),
            ("--db" | "--addr", None) => return Err(format!("{flag} needs a value\n{USAGE}")),
            (other, _) => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let db_dir = db_dir.ok_or_else(|| USAGE.to_string())?;
    Ok((db_dir, addr))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (db_dir, addr) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });

    let db = CbvrDatabase::open_dir(&db_dir).unwrap_or_else(|e| {
        eprintln!("cannot open database: {e}");
        std::process::exit(1);
    });
    let state = AppState::new(db).unwrap_or_else(|e| {
        eprintln!("cannot load catalog: {e}");
        std::process::exit(1);
    });
    let server = Server::start(state, &addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("serving http://{}/ (ctrl-c to stop)", server.addr());
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(PathBuf, String), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_in_any_order() {
        let expected = (PathBuf::from("lib"), "0.0.0.0:9".to_string());
        assert_eq!(
            parse(&["--db", "lib", "--addr", "0.0.0.0:9"]),
            Ok(expected.clone())
        );
        assert_eq!(parse(&["--addr", "0.0.0.0:9", "--db", "lib"]), Ok(expected));
        assert_eq!(
            parse(&["--db", "lib"]).unwrap().1,
            "127.0.0.1:8080",
            "default address"
        );
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error() {
        for args in [
            &["--db"][..],
            &["--addr"],
            &["--db", "lib", "--addr"],
            &["--addr", "a:1", "--db"],
        ] {
            let message = parse(args).unwrap_err();
            assert!(message.ends_with(USAGE), "{args:?}: {message}");
            assert!(message.contains("needs a value"), "{args:?}: {message}");
        }
    }

    #[test]
    fn unknown_flags_and_a_missing_db_are_usage_errors() {
        assert!(parse(&["--port", "1"])
            .unwrap_err()
            .starts_with("unknown flag --port"));
        assert_eq!(parse(&[]).unwrap_err(), USAGE);
        assert_eq!(parse(&["--addr", "a:1"]).unwrap_err(), USAGE);
    }
}
