//! Quickstart: the paper's running example (Listing 1) end to end.
//!
//! Computes the per-day bounce rate of a website visit log with nested
//! parallel operations, flattened by Matryoshka onto the simulated cluster,
//! and compares against the two workarounds the paper measures.
//!
//! Run with: `cargo run --release --example quickstart`

use matryoshka::core::{group_by_key_into_nested_bag, MatryoshkaConfig};
use matryoshka::datagen::{visit_log, KeyDist, VisitSpec};
use matryoshka::engine::{ClusterConfig, Engine, EngineEvent, GB};
use matryoshka::tasks::bounce_rate;

fn main() {
    // A visit log: (day, visitor) records, modeled as a 24 GB input on the
    // paper's 25-machine cluster.
    let spec = VisitSpec {
        visits: 100_000,
        groups: 32,
        visitors_per_group: 1_000,
        bounce_fraction: 0.3,
        key_dist: KeyDist::Uniform,
        seed: 1,
    };
    let log = visit_log(&spec);
    let record_bytes = (24 * GB) as f64 / spec.visits as f64;

    // --- Matryoshka: the nested-parallel program of Listing 1, flattened.
    // Keep the events for the operator printout below.
    let engine =
        Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::paper_small_cluster() });
    let visits = engine.parallelize_with_bytes(log.clone(), 1200, record_bytes);
    let per_day = group_by_key_into_nested_bag(&engine, &visits, MatryoshkaConfig::optimized())
        .expect("grouping");
    let rates = per_day.map_with_lifted_udf(|_day, group| {
        // Everything in here is a *lifted* operation: it processes all 32
        // days' groups simultaneously, in a constant number of flat jobs.
        let counts_per_ip = group.map(|ip| (*ip, 1u64)).reduce_by_key(|a, b| *a += b);
        let num_bounces = counts_per_ip.filter(|(_, c)| *c == 1).count();
        let num_visitors = group.distinct().count();
        num_bounces.zip_with(&num_visitors, |b, v| *b as f64 / *v as f64)
    });
    let mut out = rates.collect().expect("execution");
    out.sort_by_key(|(d, _)| *d);

    println!("per-day bounce rates (first 5 of {}):", out.len());
    for (day, rate) in out.iter().take(5) {
        println!("  day {day:>3}: {rate:.3}");
    }
    let m_time = engine.sim_time();
    let m_stats = engine.stats();
    println!(
        "\nMatryoshka: {m_time} simulated, {} jobs, {:.2} GB shuffled",
        m_stats.jobs,
        m_stats.shuffle_bytes as f64 / 1e9
    );

    // --- The two workarounds (Sec. 1) on fresh clusters, for comparison.
    let inner_engine = Engine::new(ClusterConfig::paper_small_cluster());
    let groups = bounce_rate::split_by_group(&log);
    bounce_rate::inner_parallel(&inner_engine, &groups, record_bytes).expect("inner-parallel");
    println!(
        "inner-parallel: {} simulated, {} jobs (one pair of jobs per day!)",
        inner_engine.sim_time(),
        inner_engine.stats().jobs
    );

    let outer_engine = Engine::new(ClusterConfig::paper_small_cluster());
    let visits2 = outer_engine.parallelize_with_bytes(log.clone(), 1200, record_bytes);
    match bounce_rate::outer_parallel(&outer_engine, &visits2) {
        Ok(_) => println!("outer-parallel: {} simulated", outer_engine.sim_time()),
        Err(e) => println!("outer-parallel: failed as the paper observes — {e}"),
    }

    // Sanity: the distributed result matches the sequential oracle.
    let oracle = bounce_rate::reference(&log);
    assert_eq!(out.len(), oracle.len());
    for ((d1, r1), (d2, r2)) in out.iter().zip(&oracle) {
        assert_eq!(d1, d2);
        assert!((r1 - r2).abs() < 1e-12);
    }
    println!("\nresults verified against the sequential oracle ✓");

    println!("\nexecution trace of the flattened program (first 10 operators):");
    let operators = engine.events().into_iter().filter_map(|ev| match ev {
        EngineEvent::Operator { op, partitions, records, ok, at } => {
            let status = if ok { "" } else { "  [FAILED]" };
            let at = at.to_string();
            Some(format!(
                "{at:>10}  {op:<22} {records:>8} records  {partitions:>5} partitions{status}"
            ))
        }
        _ => None,
    });
    for line in operators.take(10) {
        println!("  {line}");
    }
}
