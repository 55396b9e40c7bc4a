//! Runs the multi-tenant service sweep implemented in `figures::service`
//! (scheduling policy × offered load, see `docs/SERVICE.md`) and emits the
//! machine-readable `BENCH_service.json` artifact. Flags and output path:
//! see `matryoshka_bench::sweep` (`BENCH_SERVICE_OUT` overrides the path).

use matryoshka_bench::sweep::{sweep_main, Sweep};
use matryoshka_bench::{figures, json};

fn main() -> std::process::ExitCode {
    let sweep = Sweep {
        bin: "service_sweep",
        artifact: "BENCH_service.json",
        out_env: "BENCH_SERVICE_OUT",
        spec: &json::SERVICE_ROWS,
        run: figures::service::run,
        smoke: figures::service::smoke,
    };
    sweep_main(&sweep)
}
