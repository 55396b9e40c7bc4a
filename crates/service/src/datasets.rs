//! Deterministic seeded datasets backing program `source(name)` references.
//!
//! Wire submissions name their inputs but cannot ship data, so the service
//! materializes every source a program reads as a seeded bag of
//! `(Long, Long)` pairs — the shape all the example programs consume. The
//! generator is a pure function of `(service seed, source name)`: the same
//! service configuration always presents the same data, which is what makes
//! per-job `sim_nanos` and statistics reproducible across runs and
//! independent of scheduling ([determinism contract](crate)).

use matryoshka_engine::{Bag, Engine};
use matryoshka_ir::Value;

/// Partition count of every generated source bag.
pub const SOURCE_PARTITIONS: usize = 8;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the source name, so distinct names get distinct streams.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of records generated for `name` under `seed`: 512..=2047,
/// deterministic per `(seed, name)`.
fn records_for(seed: u64, name: &str) -> u64 {
    512 + mix(seed ^ name_hash(name)) % 1536
}

/// Materialize the seeded `(Long, Long)` pair bag for one source name.
///
/// Keys land in a 97-value domain (plenty of collisions for `groupByKey`
/// and joins across *different* sources, since the key domain is shared);
/// values are per-source pseudo-random.
pub fn source_bag(engine: &Engine, seed: u64, name: &str) -> Bag<Value> {
    let n = records_for(seed, name);
    let stream = mix(seed ^ name_hash(name).rotate_left(17));
    let vals: Vec<Value> = (0..n)
        .map(|i| {
            let r = mix(stream ^ i);
            Value::tuple(vec![Value::Long((r % 97) as i64), Value::Long((mix(r) % 10_000) as i64)])
        })
        .collect();
    engine.parallelize(vals, SOURCE_PARTITIONS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let e1 = Engine::local();
        let e2 = Engine::local();
        let a = source_bag(&e1, 7, "visits").collect().unwrap();
        let b = source_bag(&e2, 7, "visits").collect().unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y), "same seed + name => same data");
    }

    #[test]
    fn seed_and_name_change_the_stream() {
        let e = Engine::local();
        let a = source_bag(&e, 7, "visits").collect().unwrap();
        let b = source_bag(&e, 8, "visits").collect().unwrap();
        let c = source_bag(&e, 7, "edges").collect().unwrap();
        assert!(a.len() != b.len() || a.iter().zip(&b).any(|(x, y)| x != y));
        assert!(a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x != y));
    }

    #[test]
    fn record_counts_are_bounded() {
        for name in ["visits", "points", "edges", "orders", "customers", "xs", "ys"] {
            let n = records_for(42, name);
            assert!((512..=2047).contains(&n), "{name}: {n}");
        }
    }
}
