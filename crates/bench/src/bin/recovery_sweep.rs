//! Runs the recovery-overhead sweep of `figures::recovery` (machine-loss
//! rate × checkpoint interval, see `docs/FAULTS.md`), prints it, and rewrites
//! the committed `BENCH_recovery.json` at the repository root. A test of
//! `figures::recovery` fails until the committed file is what this writes.

use matryoshka_bench::{figures, print_rows, rows_to_json};

fn main() -> std::io::Result<()> {
    let rows = figures::recovery::run();
    print_rows(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, rows_to_json(&rows))?;
    println!("\nwrote {} rows to {path}", rows.len());
    Ok(())
}
