//! The Bounce Rate task (paper Sec. 2.1, Listings 1-3; evaluated in
//! Sec. 9.4-9.5): per-day bounce rate of a visit log, the nested-parallel
//! task *without* control flow.

use matryoshka_engine::{Bag, Engine, Result, WorkEstimate};

use matryoshka_core::{group_by_key_into_nested_bag, MatryoshkaConfig};

use crate::seq;

/// Per-group bounce rates, sorted by group key (the canonical output every
/// strategy must agree on).
pub type BounceRates = Vec<(u32, f64)>;

fn sort(mut v: BounceRates) -> BounceRates {
    v.sort_by_key(|(g, _)| *g);
    v
}

/// Matryoshka: the flattened nested-parallel program of Listing 3, produced
/// by lifting Listing 1's UDF — both parallelism levels in one set of flat
/// jobs.
pub fn matryoshka(
    engine: &Engine,
    visits: &Bag<(u32, u64)>,
    config: MatryoshkaConfig,
) -> Result<BounceRates> {
    let per_day = group_by_key_into_nested_bag(engine, visits, config)?;
    let rates = per_day.map_with_lifted_udf(|_day, group| {
        let counts_per_ip = group.map(|ip| (*ip, 1u64)).reduce_by_key(|a, b| *a += b);
        let num_bounces = counts_per_ip.filter(|(_, c)| *c == 1).count();
        let num_visitors = group.distinct().count();
        num_bounces.zip_with(
            &num_visitors,
            |b, v| {
                if *v == 0 {
                    0.0
                } else {
                    *b as f64 / *v as f64
                }
            },
        )
    });
    Ok(sort(rates.collect()?))
}

/// Outer-parallel workaround: `groupByKey` materializes every group in one
/// task, then the sequential bounce-rate function runs per group. Fails with
/// simulated OOM when groups do not fit in a worker (Sec. 9.4: "outer-
/// parallel runs out of memory in all the cases" at 48 GB).
pub fn outer_parallel(_engine: &Engine, visits: &Bag<(u32, u64)>) -> Result<BounceRates> {
    let record_bytes = visits.record_bytes();
    let grouped = visits.group_by_key();
    let rates = grouped.map_with_work(move |(day, ips)| {
        let r = seq::bounce_rate(ips);
        // The UDF's working set: the materialized group plus per-visitor
        // hash maps (countsPerIP, the distinct set) whose boxed entries cost
        // several times the raw record — the memory profile that makes the
        // outer-parallel/DIQL plan fail at the paper's 48 GB input
        // (Sec. 9.4).
        let mem = (ips.len() as f64 * record_bytes * BOUNCE_UDF_MEMORY_FACTOR) as u64;
        ((*day, r.value), WorkEstimate { cost_units: r.work, mem_bytes: mem })
    });
    Ok(sort(rates.collect()?))
}

/// In-memory expansion of one materialized visit group inside the
/// sequential bounce-rate UDF: the group array plus two per-visitor hash
/// structures with deserialized/boxed entries.
const BOUNCE_UDF_MEMORY_FACTOR: f64 = 12.0;

/// Inner-parallel workaround: the driver loops over the groups (pre-split,
/// as if each group were its own input file) and runs the flat-parallel
/// bounce-rate dataflow per group — two jobs per group.
pub fn inner_parallel(
    engine: &Engine,
    groups: &[(u32, Vec<u64>)],
    record_bytes: f64,
) -> Result<BounceRates> {
    let mut out = Vec::with_capacity(groups.len());
    for (day, ips) in groups {
        let partitions = crate::hdfs_partitions(engine, ips.len() as f64 * record_bytes);
        let group = engine.parallelize_with_bytes(ips.clone(), partitions, record_bytes);
        let counts = group.map(|ip| (*ip, 1u64)).reduce_by_key(|a, b| a + b);
        let bounces = counts.filter(|(_, c)| *c == 1).count()?; // job
        let visitors = group.distinct().count()?; // job
        let rate = if visitors == 0 { 0.0 } else { bounces as f64 / visitors as f64 };
        out.push((*day, rate));
    }
    Ok(sort(out))
}

/// DIQL-like baseline (Sec. 9.4): a flattening system without runtime
/// optimization that, on this program, "applied the outer-parallel
/// workaround instead" — so it inherits outer-parallel's OOM behaviour at
/// large inputs.
pub fn diql_like(engine: &Engine, visits: &Bag<(u32, u64)>) -> Result<BounceRates> {
    outer_parallel(engine, visits)
}

/// Sequential oracle over the raw records, in day order.
pub fn reference(visits: &[(u32, u64)]) -> BounceRates {
    split_by_group(visits).iter().map(|(d, ips)| (*d, seq::bounce_rate(ips).value)).collect()
}

/// Driver-side split of a visit log into per-group vectors (the pre-split
/// input files the inner-parallel workaround starts from).
pub fn split_by_group(visits: &[(u32, u64)]) -> Vec<(u32, Vec<u64>)> {
    use std::collections::HashMap;
    let mut by_day: HashMap<u32, Vec<u64>> = HashMap::new();
    for (d, ip) in visits {
        by_day.entry(*d).or_default().push(*ip);
    }
    let mut out: Vec<(u32, Vec<u64>)> = by_day.into_iter().collect();
    out.sort_by_key(|(d, _)| *d);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_datagen::{visit_log, VisitSpec};

    fn assert_rates_eq(a: &BounceRates, b: &BounceRates) {
        assert_eq!(a.len(), b.len());
        for ((d1, r1), (d2, r2)) in a.iter().zip(b) {
            assert_eq!(d1, d2);
            assert!((r1 - r2).abs() < 1e-12, "day {d1}: {r1} vs {r2}");
        }
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let e = Engine::local();
        let log = visit_log(&VisitSpec::small(6));
        let oracle = reference(&log);
        let bag = e.parallelize(log.clone(), 4);

        let m = matryoshka(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
        assert_rates_eq(&m, &oracle);

        let o = outer_parallel(&e, &bag).unwrap();
        assert_rates_eq(&o, &oracle);

        let i = inner_parallel(&e, &split_by_group(&log), 8.0).unwrap();
        assert_rates_eq(&i, &oracle);

        let d = diql_like(&e, &bag).unwrap();
        assert_rates_eq(&d, &oracle);
    }

    #[test]
    fn matryoshka_jobs_constant_in_group_count() {
        let e1 = Engine::local();
        let e2 = Engine::local();
        for (engine, groups) in [(&e1, 4u32), (&e2, 64)] {
            let log = visit_log(&VisitSpec::small(groups));
            let bag = engine.parallelize(log, 4);
            matryoshka(engine, &bag, MatryoshkaConfig::optimized()).unwrap();
        }
        assert_eq!(
            e1.stats().jobs,
            e2.stats().jobs,
            "Matryoshka job count must not depend on #groups"
        );
    }

    #[test]
    fn inner_parallel_jobs_scale_with_group_count() {
        let e = Engine::local();
        let log = visit_log(&VisitSpec::small(10));
        let s0 = e.stats();
        inner_parallel(&e, &split_by_group(&log), 8.0).unwrap();
        let d = e.stats().since(&s0);
        assert!(d.jobs >= 20, "2 jobs per group expected, got {}", d.jobs);
    }
}
