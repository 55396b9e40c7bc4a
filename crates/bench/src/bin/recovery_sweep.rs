//! Runs the recovery-overhead sweep implemented in `figures::recovery`
//! (machine-loss rate × checkpoint interval, see `docs/FAULTS.md`) and emits
//! the machine-readable `BENCH_recovery.json` artifact. Flags and output
//! path: see `matryoshka_bench::sweep` (`BENCH_RECOVERY_OUT` overrides the
//! path).

use matryoshka_bench::sweep::{sweep_main, Sweep};
use matryoshka_bench::{figures, json};

fn main() -> std::process::ExitCode {
    let sweep = Sweep {
        bin: "recovery_sweep",
        artifact: "BENCH_recovery.json",
        out_env: "BENCH_RECOVERY_OUT",
        spec: &json::RECOVERY_ROWS,
        run: figures::recovery::run,
        smoke: figures::recovery::smoke,
    };
    sweep_main(&sweep)
}
