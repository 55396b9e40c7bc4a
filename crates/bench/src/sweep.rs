//! The command line shared by the binaries that own a committed
//! `BENCH_*.json` artifact (`recovery_sweep`, `service_sweep`).
//!
//! ```text
//! <bin>                 run the full sweep, print tables, write the artifact
//! <bin> --smoke         run the reduced sweep and print it (fast CI gate)
//! <bin> --validate [F]  parse-check an existing artifact (default: the committed one)
//! ```
//!
//! Rows are validated against the sweep's [`RowSpec`] before anything is
//! written. The output path defaults to the artifact's name in the current
//! directory and can be overridden with the sweep's `out_env` variable.

use std::process::ExitCode;

use crate::harness::{print_rows, Row};
use crate::json::{rows_to_json, validate_rows, RowSpec};
use crate::profile::Profile;

/// One sweep binary: its names, its artifact contract, and its two sizes.
pub struct Sweep {
    /// Binary name, for the usage line.
    pub bin: &'static str,
    /// The committed artifact, e.g. `BENCH_recovery.json`.
    pub artifact: &'static str,
    /// Environment variable that overrides the output path.
    pub out_env: &'static str,
    /// What the artifact must contain.
    pub spec: &'static RowSpec,
    /// The full sweep.
    pub run: fn(Profile) -> Vec<Row>,
    /// The reduced sweep behind `--smoke`.
    pub smoke: fn(Profile) -> Vec<Row>,
}

/// `main` of a sweep binary.
pub fn sweep_main(sweep: &Sweep) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--validate") => {
            let path = args.get(1).map(String::as_str).unwrap_or(sweep.artifact);
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match validate_rows(&src, sweep.spec) {
                Ok(n) => {
                    println!("ok: {path} ({n} rows)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: invalid benchmark records: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--smoke") => {
            print_rows(&(sweep.smoke)(Profile::from_env()));
            ExitCode::SUCCESS
        }
        None => {
            let rows = (sweep.run)(Profile::from_env());
            print_rows(&rows);
            write(sweep, &rows)
        }
        Some(other) => {
            eprintln!("unknown flag {other}\nusage: {} [--smoke | --validate [FILE]]", sweep.bin);
            ExitCode::from(2)
        }
    }
}

fn write(sweep: &Sweep, rows: &[Row]) -> ExitCode {
    let path = std::env::var(sweep.out_env).unwrap_or_else(|_| sweep.artifact.to_string());
    let doc = rows_to_json(rows);
    if let Err(e) = validate_rows(&doc, sweep.spec) {
        eprintln!("refusing to write {path}: generated rows invalid: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {} rows to {path}", rows.len());
    ExitCode::SUCCESS
}
