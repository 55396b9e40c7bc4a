//! Reproduces the paper experiment implemented in `figures::fig7` and emits
//! the machine-readable `BENCH_skew.json` artifact; `--smoke` runs only the
//! adaptive skew sweep and writes its rows too (`scripts/ci.sh` re-reads
//! them). Flags and output path: see `matryoshka_bench::sweep`
//! (`BENCH_SKEW_OUT` overrides the path).

use matryoshka_bench::sweep::{sweep_main, Smoke, Sweep};
use matryoshka_bench::{figures, json};

fn main() -> std::process::ExitCode {
    let sweep = Sweep {
        bin: "fig7_skew",
        artifact: "BENCH_skew.json",
        out_env: "BENCH_SKEW_OUT",
        spec: &json::SKEW_ROWS,
        run: figures::fig7::run,
        smoke: figures::fig7::skew_sweep,
    };
    sweep_main(&sweep, Smoke::Writes)
}
