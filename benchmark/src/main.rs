//! The repository's benchmark: one process per workload and mode.
//!
//! `--trace 0` measures what a user sees (the end-to-end metrics of
//! `BENCHMARK.json`); `--trace 1` times calls into each crate's public
//! functions from here, records spans around them and turns engine tracing
//! on for half of its jobs (the per-layer metrics). Every output is checked
//! against a reference that shares no code with the strategy it checks. See
//! `benchmark/README.md`.

mod batch;
mod flat;
mod harness;
mod mat;
mod metrics;
mod probes;
mod service;
mod spans;
mod typed;

use std::process::ExitCode;

use harness::{Args, Report};
use spans::Tracer;

/// A batch workload in either mode. `traced` is the workload's per-layer
/// run: its jobs plus the probes homed on it.
fn batch_workload<B: batch::Batch>(
    w: &B,
    args: &Args,
    rep: &mut Report,
    t: &mut Tracer,
    traced: impl FnOnce(&B, &Args, &mut Report, &mut Tracer),
) {
    if args.trace {
        traced(w, args, rep, t);
    } else {
        batch::run_untraced(w, args, rep);
    }
}

fn run(args: &Args, rep: &mut Report, t: &mut Tracer) -> Result<(), String> {
    match args.workload.as_str() {
        "bounce_rate" => {
            batch_workload(&typed::BounceRate::new(args), args, rep, t, |w, a, r, t| {
                typed::run_traced(w, a, r, t);
                probes::typed_operators(a, r);
            })
        }
        "pagerank" => batch_workload(&typed::PageRank::new(args), args, rep, t, |w, a, r, t| {
            typed::run_traced(w, a, r, t);
            probes::lifted_while_iteration(a, r);
        }),
        "kmeans" => batch_workload(&typed::Kmeans::new(args), args, rep, t, typed::run_traced),
        "avg_distances" => {
            batch_workload(&typed::AvgDistances::new(args), args, rep, t, |w, a, r, t| {
                typed::run_traced(w, a, r, t);
                probes::overheads(a, r);
            })
        }
        "mat_bagops" => {
            batch_workload(&mat::Mat::bagops(args)?, args, rep, t, mat::run_traced_bagops)
        }
        "mat_udf" => batch_workload(&mat::Mat::udf(args)?, args, rep, t, mat::run_traced_udf),
        "service_tcp" if args.trace => service::run_traced(args, rep, t)?,
        "service_tcp" => service::run_untraced(args, rep)?,
        other => unreachable!("Args::parse admitted `{other}`"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: matryoshka-benchmark --workload NAME [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} host_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        matryoshka_engine::pool::host_parallelism()
    );
    let mut rep = Report::new(&args);
    let mut t = Tracer::new(args.trace);
    if let Err(e) = run(&args, &mut rep, &mut t) {
        // No result line: the driver must not read a half-measured run.
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        t.print_self_time(&args.workload);
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        if let Err(e) = t.write(&path, &args.workload) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", rep.finish(&args));
    ExitCode::SUCCESS
}
