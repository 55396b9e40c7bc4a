//! Runs the multi-tenant service sweep of `figures::service` (scheduling
//! policy × offered load, see `docs/SERVICE.md`), prints it, and rewrites the
//! committed `BENCH_service.json` at the repository root. A test of
//! `figures::service` fails until the committed file is what this writes.

use matryoshka_bench::{figures, print_rows, rows_to_json};

fn main() -> std::io::Result<()> {
    let rows = figures::service::run();
    print_rows(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, rows_to_json(&rows))?;
    println!("\nwrote {} rows to {path}", rows.len());
    Ok(())
}
