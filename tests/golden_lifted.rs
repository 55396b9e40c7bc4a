//! Golden determinism tests for the *lifted* path: what a lowered workload
//! costs on the simulated cluster is frozen.
//!
//! `crates/engine/tests/golden_sim.rs` pins programs written against the
//! engine; this file pins the plans of `tests/workloads` — the paper
//! workloads' `matryoshka` strategies under each lowering config and every
//! shipped `.mat` program — on `ClusterConfig::local_test()`: the simulated
//! clock to the nanosecond and every [`StatsSnapshot`] counter except
//! `stages_fused` / `intermediates_elided`, which say where host-side passes
//! were cut, not what the program cost. The last column is the FNV-1a of the
//! plan's lowering-decision log as `export_json` renders it, `narrow_fusion`
//! entries left out for the same reason. A host-side optimisation of a lifted
//! operator (`crates/core`), of the lowering (`crates/ir/src/lower.rs`) or of
//! the engine operators they call must leave every row as it is.
//!
//! To regenerate after an *intentional* model change, run:
//!
//! ```text
//! cargo test --test golden_lifted -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN` below.

mod workloads;

use matryoshka::engine::trace::export_json;
use matryoshka::engine::{ClusterConfig, Engine, StatsSnapshot};
use workloads::{lowering_configs, paper_workloads, shipped_programs, Plan};

/// `(plan, sim_time().as_nanos(), counters, decisions_fnv1a)`; the counters
/// are rendered by [`counters`] (`name=value`, zero-valued ones left out), the
/// decision log is hashed by [`decisions_fnv1a`]. Every decision hash moved
/// when the task-retry counter was deleted: the exported document's summary
/// lost that counter's key (always 0 here), and nothing else.
const GOLDEN: &[(&str, u64, &str, u64)] = &[
    (
        "optimized/bounce_rate",
        637_668_212,
        "jobs=2 stages=6 tasks=34 records=56542 shuffle_bytes=108000 broadcast_bytes=256 collected_records=32 peak_memory_bytes=84432 peak_partition_bytes=7168 peak_partition_skew_milli=2500",
        0xe459697293c4bed7,
    ),
    (
        "optimized/pagerank",
        2_394_677_747,
        "jobs=7 stages=47 tasks=291 records=73879 shuffle_bytes=89747 broadcast_bytes=2336 collected_records=306 peak_memory_bytes=65808 peak_partition_bytes=5880 peak_partition_skew_milli=2086",
        0x751f3ae1e9c08663,
    ),
    (
        "optimized/kmeans",
        3_066_044_738,
        "jobs=10 stages=12 tasks=25 records=34798 shuffle_bytes=17344 broadcast_bytes=5568 collected_records=60 peak_memory_bytes=9216 peak_partition_bytes=1536 peak_partition_skew_milli=1600",
        0x3f753184e2a4a01f,
    ),
    (
        "optimized/kmeans_grouped",
        1_571_614_400,
        "jobs=5 stages=13 tasks=29 records=13994 shuffle_bytes=16064 broadcast_bytes=5568 collected_records=60 peak_memory_bytes=9216 peak_partition_bytes=1536 peak_partition_skew_milli=2000",
        0x76684b5360760c84,
    ),
    (
        "optimized/avg_distances",
        4_484_126_979,
        "jobs=14 stages=45 tasks=292 records=21737 shuffle_bytes=51040 broadcast_bytes=10008 collected_records=433 peak_memory_bytes=13248 peak_partition_bytes=4416 peak_partition_skew_milli=3428",
        0x1b73ba173078c378,
    ),
    (
        "checkpointing/bounce_rate",
        637_668_212,
        "jobs=2 stages=6 tasks=34 records=56542 shuffle_bytes=108000 broadcast_bytes=256 collected_records=32 peak_memory_bytes=84432 peak_partition_bytes=7168 peak_partition_skew_milli=2500",
        0xe459697293c4bed7,
    ),
    (
        "checkpointing/pagerank",
        2_394_679_177,
        "jobs=7 stages=47 tasks=291 records=73879 shuffle_bytes=89747 broadcast_bytes=2336 collected_records=306 peak_memory_bytes=65808 peak_partition_bytes=5880 peak_partition_skew_milli=2086 checkpoint_bytes=864",
        0xc44f609eb9c3260c,
    ),
    (
        "checkpointing/kmeans",
        3_066_045_162,
        "jobs=10 stages=12 tasks=25 records=34798 shuffle_bytes=17344 broadcast_bytes=5568 collected_records=60 peak_memory_bytes=9216 peak_partition_bytes=1536 peak_partition_skew_milli=1600 checkpoint_bytes=256",
        0x7b55a65f8c8f4b47,
    ),
    (
        "checkpointing/kmeans_grouped",
        1_571_614_824,
        "jobs=5 stages=13 tasks=29 records=13994 shuffle_bytes=16064 broadcast_bytes=5568 collected_records=60 peak_memory_bytes=9216 peak_partition_bytes=1536 peak_partition_skew_milli=2000 checkpoint_bytes=256",
        0x29f5e60b550a262f,
    ),
    (
        "checkpointing/avg_distances",
        4_484_137_108,
        "jobs=14 stages=45 tasks=292 records=21737 shuffle_bytes=51040 broadcast_bytes=10008 collected_records=433 peak_memory_bytes=13248 peak_partition_bytes=4416 peak_partition_skew_milli=3428 checkpoint_bytes=6112",
        0x983899d9c472de60,
    ),
    (
        "bounce_rate.mat",
        640_073_083,
        "jobs=2 stages=6 tasks=48 records=20104 shuffle_bytes=98536 broadcast_bytes=6208 collected_records=291 peak_memory_bytes=36288 peak_partition_bytes=3192 peak_partition_skew_milli=1215",
        0xd68c36d19e62b591,
    ),
    (
        "closure_distinct.mat",
        940_000_211,
        "jobs=3 stages=6 tasks=48 records=15083 shuffle_bytes=86496 broadcast_bytes=9312 collected_records=291 peak_memory_bytes=49752 peak_partition_bytes=4296 peak_partition_skew_milli=1213",
        0x7596f9a78e1b21ea,
    ),
    (
        "half_lifted_closure.mat",
        626_613_808,
        "jobs=2 stages=4 tasks=32 records=7598 shuffle_bytes=31584 broadcast_bytes=6208 collected_records=291 peak_memory_bytes=31296 peak_partition_bytes=2752 peak_partition_skew_milli=1256",
        0x5afa507d46628f1f,
    ),
    (
        "invariant_loop.mat",
        9_929_574_276,
        "jobs=33 stages=4 tasks=32 records=36210 shuffle_bytes=78016 broadcast_bytes=393872 collected_records=9305 peak_memory_bytes=58896 peak_partition_bytes=5064 peak_partition_skew_milli=1277",
        0xcf9752cd3120446f,
    ),
    (
        "join_enrichment.mat",
        322_992_929,
        "jobs=1 stages=3 tasks=24 records=36533 shuffle_bytes=49416 collected_records=10805 peak_memory_bytes=52056 peak_partition_bytes=8304 peak_partition_skew_milli=1344",
        0x41de2052ee25120d,
    ),
    (
        "lifted_if.mat",
        620_095_451,
        "jobs=2 stages=3 tasks=24 records=8458 shuffle_bytes=33624 broadcast_bytes=18624 collected_records=485 peak_memory_bytes=34848 peak_partition_bytes=3104 peak_partition_skew_milli=1208",
        0x9c4903f61c535028,
    ),
    (
        "per_group_loop.mat",
        6_921_747_735,
        "jobs=23 stages=3 tasks=24 records=22712 shuffle_bytes=40624 broadcast_bytes=257952 collected_records=5471 peak_memory_bytes=43104 peak_partition_bytes=3904 peak_partition_skew_milli=1277",
        0x785347bd8c8befbb,
    ),
    (
        "union_distinct.mat",
        320_042_903,
        "jobs=1 stages=3 tasks=24 records=10200 shuffle_bytes=81600 peak_memory_bytes=129168 peak_partition_bytes=10920 peak_partition_skew_milli=1070",
        0x41de2052ee25120d,
    ),
    (
        "visit_counts.mat",
        619_985_473,
        "jobs=2 stages=3 tasks=24 records=7585 shuffle_bytes=33624 broadcast_bytes=3104 collected_records=194 peak_memory_bytes=34848 peak_partition_bytes=3104 peak_partition_skew_milli=1208",
        0xf735e7a8b87319b1,
    ),
];

/// Every pinned counter of `stats` that is not zero, in `FIELDS` order.
fn counters(stats: &StatsSnapshot) -> String {
    let pinned = stats.fields().into_iter().filter(|(name, value)| {
        !matches!(*name, "stages_fused" | "intermediates_elided") && *value != 0
    });
    pinned.map(|(name, value)| format!("{name}={value}")).collect::<Vec<_>>().join(" ")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of the decision log without its `narrow_fusion` entries, rendered
/// by the JSON exporter.
fn decisions_fnv1a(engine: &Engine) -> u64 {
    let mut decisions = engine.decisions();
    decisions.retain(|d| d.site != "narrow_fusion");
    fnv1a(export_json(&[], &decisions).as_bytes())
}

fn plans() -> Vec<(String, Plan)> {
    let paper = lowering_configs().into_iter().flat_map(|(config_name, config)| {
        paper_workloads(&config)
            .into_iter()
            .map(move |(workload, plan)| (format!("{config_name}/{workload}"), plan))
    });
    paper.chain(shipped_programs()).collect()
}

fn run(plan: &Plan) -> (u64, String, u64) {
    let engine = Engine::new(ClusterConfig::local_test());
    plan(&engine);
    (engine.sim_time().as_nanos(), counters(&engine.stats()), decisions_fnv1a(&engine))
}

#[test]
fn lifted_workload_simulation_is_frozen() {
    let plans = plans();
    assert_eq!(
        plans.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
        GOLDEN.iter().map(|(name, ..)| *name).collect::<Vec<_>>(),
        "one golden row per plan, in plan order"
    );
    for ((name, plan), (_, sim_nanos, stats, decisions)) in plans.iter().zip(GOLDEN) {
        let (got_nanos, got_stats, got_decisions) = run(plan);
        assert_eq!(got_nanos, *sim_nanos, "{name}: sim_time");
        assert_eq!(got_stats, *stats, "{name}: StatsSnapshot");
        assert_eq!(got_decisions, *decisions, "{name}: decision log");
    }
}

/// Regeneration helper (see module docs): prints the current values in the
/// shape of the `GOLDEN` rows.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_actual_values() {
    for (name, plan) in plans() {
        let (sim_nanos, stats, decisions) = run(&plan);
        println!("    ({name:?}, {sim_nanos}, {stats:?}, {decisions:#018x}),");
    }
}
