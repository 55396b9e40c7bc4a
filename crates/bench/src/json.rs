//! The machine-readable `BENCH_*.json` artifacts: figure [`Row`]s as a JSON
//! array, one object per line, without any external dependency.
//!
//! Every number in them is simulated, so a committed artifact is a pure
//! function of the code: the sweep that writes it also runs as a test
//! (`figures::recovery`, `figures::service`) that compares its rows with the
//! committed bytes.

use std::fmt::Write;

use crate::harness::{Outcome, Row};

/// Serialize rows as a JSON array, one object per line: `figure`, `series`,
/// `x`, `outcome` and `seconds`, then every counter of
/// [`StatsSnapshot::fields`](matryoshka_engine::StatsSnapshot::fields), in
/// table order.
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let outcome = match r.m.outcome {
            Outcome::Ok => "ok",
            Outcome::Oom => "oom",
            Outcome::Unsupported => "unsupported",
        };
        let _ = write!(
            out,
            "  {{\"figure\": {}, \"series\": {}, \"x\": {}, \"outcome\": \"{outcome}\", \
             \"seconds\": {:.3}",
            quote(&r.figure),
            quote(&r.series),
            r.x,
            r.m.seconds,
        );
        for (name, value) in r.m.stats.fields() {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("]\n");
    out
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// Assert that `rows` serialize to the committed artifact `name` at the
/// repository root, byte for byte.
#[cfg(test)]
pub(crate) fn assert_committed(name: &str, bin: &str, rows: &[Row]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let fresh = rows_to_json(rows);
    assert!(
        fresh == committed,
        "{name} is not what the sweep writes; if the change is meant, rewrite it with \
         `cargo run --release -p matryoshka-bench --bin {bin}` and review the diff. \
         The sweep writes:\n{fresh}"
    );
}
