//! Property-style tests of the engine's operators against driver-side
//! oracles: for pseudo-randomly generated inputs, every distributed operator
//! must compute exactly what the obvious sequential code computes, and the
//! simulator's accounting must satisfy its structural invariants (monotonic
//! clock, memoized single-charging, trace/topology consistency).
//!
//! Inputs are drawn from a seeded SplitMix64 stream (many seeds per
//! property), so runs are deterministic and reproducible while still
//! covering varied shapes: empty inputs, single elements, colliding keys,
//! and different partition counts.

use std::collections::{HashMap, HashSet};

use matryoshka_engine::partitioner::partition_for;
use matryoshka_engine::{ClusterConfig, Engine, EngineEvent};

fn engine() -> Engine {
    Engine::new(ClusterConfig::local_test())
}

/// Deterministic 64-bit generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    /// A length in `0..max` that is often small (empty and tiny inputs are
    /// the classic edge cases).
    fn len(&mut self, max: u64) -> usize {
        match self.below(8) {
            0 => 0,
            1 => 1,
            _ => self.below(max) as usize,
        }
    }
    fn pairs(&mut self, max_len: u64) -> Vec<(u8, i64)> {
        let n = self.len(max_len);
        (0..n).map(|_| ((self.below(12)) as u8, self.below(100) as i64 - 50)).collect()
    }
}

const SEEDS: u64 = 24;

#[test]
fn map_filter_flat_map_match_iterators() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed);
        let data: Vec<i64> = (0..g.len(300)).map(|_| g.below(200) as i64 - 100).collect();
        let parts = 1 + g.below(8) as usize;
        let e = engine();
        let b = e.parallelize(data.clone(), parts);
        let got =
            b.map(|x| x * 2).filter(|x| *x >= 0).flat_map(|x| [*x, *x + 1]).collect().unwrap();
        let expect: Vec<i64> =
            data.iter().map(|x| x * 2).filter(|x| *x >= 0).flat_map(|x| [x, x + 1]).collect();
        // Order within partitions is preserved; across partitions it is the
        // concatenation order, which parallelize also preserves.
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn reduce_by_key_matches_hashmap() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0xA1);
        let data = g.pairs(200);
        let parts = 1 + g.below(8) as usize;
        let e = engine();
        let expect: HashMap<u8, i64> = data.iter().fold(HashMap::new(), |mut m, (k, v)| {
            *m.entry(*k).or_insert(0) += v;
            m
        });
        let got = e.parallelize(data, parts).reduce_by_key(|a, b| a + b).collect().unwrap();
        assert_eq!(got.len(), expect.len(), "seed {seed}");
        for (k, v) in got {
            assert_eq!(expect.get(&k), Some(&v), "seed {seed}");
        }
    }
}

#[test]
fn group_by_key_partitions_nothing_away() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0xB2);
        let data = g.pairs(200);
        let e = engine();
        let groups = e.parallelize(data.clone(), 5).group_by_key().collect().unwrap();
        let total: usize = groups.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, data.len(), "seed {seed}");
        let keys: HashSet<u8> = data.iter().map(|(k, _)| *k).collect();
        assert_eq!(groups.len(), keys.len(), "seed {seed}");
    }
}

#[test]
fn join_matches_nested_loops() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0xC3);
        let l = g.pairs(200);
        let r = g.pairs(200);
        let e = engine();
        let mut expect: Vec<(u8, (i64, i64))> = Vec::new();
        for (k, v) in &l {
            for (k2, w) in &r {
                if k == k2 {
                    expect.push((*k, (*v, *w)));
                }
            }
        }
        expect.sort();
        let mut got =
            e.parallelize(l.clone(), 4).join(&e.parallelize(r.clone(), 3)).collect().unwrap();
        got.sort();
        assert_eq!(&got, &expect, "seed {seed}");

        // Broadcast join agrees with repartition join.
        let e2 = engine();
        let mut got2 =
            e2.parallelize(l, 4).broadcast_join(&e2.parallelize(r, 3)).collect().unwrap();
        got2.sort();
        assert_eq!(got2, expect, "seed {seed}");
    }
}

#[test]
fn distinct_matches_hashset() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0xD4);
        let data: Vec<u16> = (0..g.len(300)).map(|_| g.below(64) as u16).collect();
        let e = engine();
        let got: HashSet<u16> =
            e.parallelize(data.clone(), 6).distinct().collect().unwrap().into_iter().collect();
        let expect: HashSet<u16> = data.into_iter().collect();
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// `distinct_into` is pinned, partition by partition and in order, to the
/// loop it replaced: keep first occurrences per input partition, scatter by
/// `partition_for` in input order, keep first occurrences per output
/// partition. 240 shapes: all-unique, all-equal, Zipf-ish and small-domain
/// records of a non-`Copy` type, 1–64 inputs (more inputs than records
/// leaves empty ones), 1–1,500 outputs.
#[test]
fn distinct_into_is_the_naive_first_occurrence_loop() {
    fn first_occurrences(part: &[String]) -> Vec<String> {
        let mut seen = HashSet::new();
        part.iter().filter(|x| seen.insert(*x)).cloned().collect()
    }
    for seed in 0..240u64 {
        let mut g = Gen::new(seed ^ 0xD15);
        let n = g.len(2_000);
        let data: Vec<String> = (0..n)
            .map(|i| match seed % 4 {
                0 => format!("u{i}"),
                1 => "same".to_string(),
                // Zipf-ish: squaring a uniform draw crowds the low ranks.
                2 => format!("z{}", g.below(40).pow(2) / 40),
                _ => format!("d{}", g.below(1 + n as u64 / 3)),
            })
            .collect();
        let inputs = 1 + g.below(64) as usize;
        let outputs = if g.below(4) == 0 { 1 + g.below(1_500) } else { 1 + g.below(16) } as usize;
        let e = engine();
        let base = e.parallelize(data, inputs);
        let mut expect: Vec<Vec<String>> = vec![Vec::new(); outputs];
        for part in base.collect_partitions().unwrap() {
            for x in first_occurrences(&part) {
                expect[partition_for(&x, outputs)].push(x);
            }
        }
        for part in &mut expect {
            *part = first_occurrences(part);
        }
        let got = base.distinct_into(outputs).collect_partitions().unwrap();
        assert_eq!(got, expect, "seed {seed}: {n} records, {inputs} -> {outputs}");
    }
}

#[test]
fn sort_by_is_a_permutation_in_order() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0xF6);
        let data: Vec<i64> = (0..g.len(300)).map(|_| g.below(2000) as i64 - 1000).collect();
        let parts = 1 + g.below(6) as usize;
        let e = engine();
        let got = e.parallelize(data.clone(), 5).sort_by(parts, |x| *x).collect().unwrap();
        let mut expect = data;
        expect.sort();
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn actions_agree_with_iterators() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x17);
        let data: Vec<u64> = (0..g.len(200)).map(|_| g.below(1000)).collect();
        let e = engine();
        let b = e.parallelize(data.clone(), 4);
        assert_eq!(b.count().unwrap(), data.len() as u64, "seed {seed}");
        assert_eq!(b.fold(0u64, |a, x| a + x).unwrap(), data.iter().sum::<u64>(), "seed {seed}");
        assert_eq!(b.reduce(|a, x| *a.max(x)).unwrap(), data.iter().copied().max(), "seed {seed}");
        assert_eq!(b.is_empty().unwrap(), data.is_empty(), "seed {seed}");
    }
}

#[test]
fn union_is_multiset_concatenation() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x28);
        let a = g.pairs(200);
        let b = g.pairs(200);
        let e = engine();
        let mut got =
            e.parallelize(a.clone(), 3).union(&e.parallelize(b.clone(), 2)).collect().unwrap();
        got.sort();
        let mut expect = a;
        expect.extend(b);
        expect.sort();
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn simulated_clock_is_monotone_and_trace_is_topological() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x39);
        let data = g.pairs(200);
        let e = engine();
        e.enable_tracing();
        let t0 = e.sim_time();
        let b = e.parallelize(data, 4);
        let grouped = b.map(|(k, v)| (*k, v * 2)).reduce_by_key(|a, b| a + b);
        grouped.count().unwrap();
        let t1 = e.sim_time();
        assert!(t1 >= t0, "seed {seed}");
        // Operator events: parents complete before children; timestamps
        // non-decreasing.
        let trace: Vec<_> = e
            .events()
            .iter()
            .filter_map(|ev| match ev {
                EngineEvent::Operator { op, at, .. } => Some((*op, *at)),
                _ => None,
            })
            .collect();
        assert!(!trace.is_empty(), "seed {seed}");
        for w in trace.windows(2) {
            assert!(w[0].1 <= w[1].1, "seed {seed}");
        }
        let names: Vec<&str> = trace.iter().map(|(op, _)| *op).collect();
        let src = names.iter().position(|n| *n == "parallelize").unwrap();
        let red = names.iter().position(|n| *n == "reduce_by_key").unwrap();
        assert!(src < red, "source must evaluate before the shuffle: {names:?}");
    }
}

#[test]
fn memoization_never_recharges() {
    for seed in 0..SEEDS {
        let mut g = Gen::new(seed ^ 0x4A);
        let data = g.pairs(200);
        let e = engine();
        let b = e.parallelize(data, 4).map(|(k, v)| (*k, v + 1)).reduce_by_key(|a, b| a + b);
        b.count().unwrap();
        let t1 = e.sim_time();
        let s1 = e.stats();
        b.count().unwrap();
        let d_time = e.sim_time() - t1;
        let d = e.stats().since(&s1);
        assert_eq!(d.stages, 0, "no stage re-runs on a memoized bag (seed {seed})");
        assert_eq!(
            d_time,
            e.config().costs.job_launch,
            "second action costs one job launch (seed {seed})"
        );
    }
}
