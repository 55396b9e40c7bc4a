//! # matryoshka-bench
//!
//! Experiment harnesses reproducing every figure of the paper's evaluation
//! (Sec. 9) on the simulated cluster. Host (wall-clock) performance is not
//! measured here: that is the repository benchmark (`BENCHMARK.json`,
//! `benchmark/`).
//!
//! Each figure module builds the paper's workload at a modeled data volume,
//! runs every strategy the figure compares on a fresh simulated cluster, and
//! reports simulated seconds (or OOM / n-a, exactly where the paper reports
//! failures). Run all figures with `cargo bench -p matryoshka-bench` or a
//! single one with its binary, e.g. `cargo run --release --bin fig5_bounce_rate`.

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod json;
pub mod profile;

pub use harness::{print_rows, run_case, Measurement, Outcome, Row};
pub use json::rows_to_json;
pub use profile::Profile;
