//! Narrow-stage fusion inside lifted control flow: a `lifted_while` whose
//! body builds a fresh narrow chain every iteration must (a) compute the
//! same answer and the same simulated cost whether the body's chain fuses or
//! its intermediates are kept bound (which forces one pass per operator),
//! and (b) fuse every iteration's chain without allocating a new composite
//! name per iteration (DESIGN.md "Narrow-stage fusion": iteration stability).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use matryoshka::core::{group_by_key_into_nested_bag, lifted_while, InnerBag, MatryoshkaConfig};
use matryoshka::engine::{ClusterConfig, Engine, Rule};

const BODY_CHAIN: &str = "fused(map|filter|map)";

/// Run a grouped iterative shrink: each iteration maps and filters every
/// group's survivors through a three-op narrow chain until a group drops to
/// 40 elements or fewer. With `hold`, every iteration's two intermediates
/// stay alive past the run, so the multi-consumer barrier keeps the body's
/// chain from fusing. Returns the flattened survivors, the simulated time,
/// the number of fused stages, and the distinct fused-chain names logged.
fn run(hold: bool) -> (Vec<(u32, u64)>, u64, u64, BTreeSet<&'static str>) {
    let e = Engine::new(ClusterConfig::local_test());
    let data: Vec<(u32, u64)> = (0..600u64).map(|i| ((i % 6) as u32, i)).collect();
    let bag = e.parallelize(data, 4);
    let nested = group_by_key_into_nested_bag(&e, &bag, MatryoshkaConfig::optimized()).unwrap();
    // Owned out here so the handles outlive the closure and the final collect.
    let held: Arc<Mutex<Vec<InnerBag<u32, u64>>>> = Arc::default();
    let keeper = Arc::clone(&held);
    let survivors = nested
        .map_with_lifted_udf(move |_g, group: &InnerBag<u32, u64>| {
            let keeper = Arc::clone(&keeper);
            lifted_while(
                group,
                move |state: &InnerBag<u32, u64>| {
                    // A fresh map -> filter -> map chain per iteration.
                    let mapped = state.map(|&x| x.wrapping_mul(3).wrapping_add(1));
                    let filtered = mapped.filter(|&x| x % 4 != 0);
                    let next = filtered.map(|&x| x >> 1);
                    if hold {
                        keeper.lock().unwrap().extend([mapped, filtered]);
                    }
                    let cond = next.count().map(|c| *c > 40);
                    Ok((next, cond))
                },
                Some(5),
            )
        })
        .unwrap();
    let mut out = survivors.collect().unwrap();
    out.sort_unstable();
    let fused_names: BTreeSet<&'static str> = e
        .decisions()
        .into_iter()
        .filter_map(|d| match d.rule {
            Rule::NarrowFusion { ops, .. } => Some(ops),
            _ => None,
        })
        .collect();
    (out, e.sim_time().as_nanos(), e.stats().stages_fused, fused_names)
}

#[test]
fn lifted_loop_is_identical_however_the_body_chain_is_cut() {
    let (out_h, nanos_h, fused_h, names_h) = run(true);
    let (out_f, nanos_f, fused_f, names_f) = run(false);
    assert_eq!(out_h, out_f, "fusion changed a lifted loop's results");
    assert_eq!(nanos_h, nanos_f, "fusion changed a lifted loop's simulated cost");
    assert!(!names_h.contains(BODY_CHAIN), "held intermediates were fused through: {names_h:?}");
    // Every iteration's body chain fused (several iterations ran), and the
    // per-iteration chains — identical in shape — share one interned
    // composite name instead of minting a new one per iteration.
    assert!(names_f.contains(BODY_CHAIN), "the loop body's chain must fuse, got {names_f:?}");
    assert!(
        fused_f >= fused_h + 3,
        "expected one more fused stage per loop iteration: {fused_f} vs {fused_h} held"
    );
    // Iteration stability: many fused stages, but only as many interned
    // names as there are distinct chain *shapes*: the loop body's, plus the
    // chains lifted_while builds internally (the condition's tag split, the
    // count's reduce side heading the condition's `map`, and the tag join
    // that retires finished groups).
    assert!(
        names_f.len() <= 4,
        "composite names must be interned per shape, not per iteration: {names_f:?}"
    );
}
