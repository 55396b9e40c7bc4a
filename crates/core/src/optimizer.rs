//! The runtime optimizer of the lowering phase (paper Sec. 8).
//!
//! Because the two-phase flattening defers physical operator selection to
//! runtime, the lowering phase can use *actual* intermediate cardinalities —
//! most importantly the InnerScalar size, which is known structurally at the
//! beginning of every lifted UDF (Sec. 8.1) — to pick partition counts
//! (Sec. 8.1), tag-join algorithms (Sec. 8.2), and the broadcast side of
//! half-lifted cross products (Sec. 8.3).

use matryoshka_engine::{Engine, JoinAlgorithm, Rule};

/// Strategy for joins between InnerBags and InnerScalars on tags (Sec. 8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinChoice {
    /// Runtime choice from the tracked InnerScalar size (the paper's
    /// optimizer): repartition when the InnerScalar has enough elements to
    /// give work to all cores, broadcast otherwise.
    #[default]
    Auto,
    /// Always broadcast the InnerScalar side (ablation; fails with OOM for
    /// very large InnerScalars, Fig. 8 left).
    ForceBroadcast,
    /// Always repartition-join (ablation; up to an order of magnitude slower
    /// for small InnerScalars, Fig. 8 left).
    ForceRepartition,
}

/// Strategy for half-lifted `mapWithClosure` cross products (Sec. 8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossChoice {
    /// Runtime choice: broadcast the InnerScalar if it is small (single
    /// partition after Sec. 8.1 tuning), otherwise broadcast whichever input
    /// the size estimator says is smaller.
    #[default]
    Auto,
    /// Always broadcast the InnerScalar side (ablation, Fig. 8 right).
    ForceBroadcastScalar,
    /// Always broadcast the flat-bag side (ablation, Fig. 8 right).
    ForceBroadcastBag,
}

/// Kept for the benchmark's pinned call (`PlanRewriteConfig::enabled()`
/// handed to `matryoshka-ir`'s `rewrite_plan`). The plan rewrites — hoist,
/// then CSE + auto-caching, then DCE — are a step of lowering with no switch,
/// so this carries nothing and is ignored wherever it is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanRewriteConfig;

impl PlanRewriteConfig {
    /// Kept for the benchmark's pinned call; the same value as `default()`.
    pub fn enabled() -> Self {
        PlanRewriteConfig
    }
}

/// Knobs of the lowering phase. [`MatryoshkaConfig::optimized`] is the full
/// optimizer; the derived `Default` is the same except that
/// `partition_tuning` is off (every lifted operator at the engine's default
/// parallelism), which is what the job service and its tests run on. The
/// forced variants exist for the ablation experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatryoshkaConfig {
    /// InnerBag-InnerScalar join strategy (Sec. 8.2).
    pub tag_join: JoinChoice,
    /// Half-lifted cross-product strategy (Sec. 8.3).
    pub cross: CrossChoice,
    /// Derive partition counts from InnerScalar sizes (Sec. 8.1). When
    /// false, every lifted operator uses the engine's default parallelism.
    pub partition_tuning: bool,
    /// Checkpoint the loop state of [`lifted_while`](crate::lifted_while)
    /// every this many iterations, truncating lineage for the engine's
    /// machine-loss fault model (see `docs/FAULTS.md`). `0` (the default)
    /// disables periodic checkpointing: plans, decision logs, and simulated
    /// times are unchanged.
    pub checkpoint_interval: usize,
}

impl MatryoshkaConfig {
    /// The full optimizer (what the paper evaluates as "Matryoshka").
    pub fn optimized() -> Self {
        MatryoshkaConfig {
            tag_join: JoinChoice::Auto,
            cross: CrossChoice::Auto,
            partition_tuning: true,
            checkpoint_interval: 0,
        }
    }
}

/// Target number of InnerScalar records per partition when deriving
/// partition counts from sizes (Sec. 8.1). Small bags collapse to a single
/// partition, which also makes the common case of Sec. 8.3 ("InnerScalar has
/// only 1 partition => broadcast it") cheap to detect.
const SCALAR_RECORDS_PER_PARTITION: u64 = 4096;

/// Partition count for a bag of `records` InnerScalar records (Sec. 8.1).
///
/// Every call appends to the engine's lowering-decision log
/// ([`Engine::decisions`]) with the driving cardinality, so traces show why
/// each physical partition count was picked.
pub fn scalar_partitions(cfg: &MatryoshkaConfig, engine: &Engine, records: u64) -> usize {
    let default = engine.config().default_parallelism as u64;
    let by_records = records.div_ceil(SCALAR_RECORDS_PER_PARTITION).clamp(1, default);
    let (partitions, rule) = if cfg.partition_tuning {
        let per_partition = SCALAR_RECORDS_PER_PARTITION;
        (by_records, Rule::TuningByRecords { partitions: by_records, records, per_partition })
    } else {
        (default, Rule::TuningOff { partitions: default, records, bytes: 0 })
    };
    engine.record_decision(rule);
    partitions as usize
}

/// Target partition size (bytes) when deriving partition counts from data
/// volume (one partition per ~128 MB, like a filesystem block).
const TARGET_PARTITION_BYTES: u64 = 128 << 20;

/// Partition count for a bag of `records` records totalling `bytes`
/// (Sec. 8.1, extended to weigh bytes as well as cardinality).
pub fn partitions_for(cfg: &MatryoshkaConfig, engine: &Engine, records: u64, bytes: u64) -> usize {
    let default = engine.config().default_parallelism as u64;
    let by_records = records.div_ceil(SCALAR_RECORDS_PER_PARTITION);
    let by_bytes = bytes.div_ceil(TARGET_PARTITION_BYTES);
    let partitions =
        if cfg.partition_tuning { by_records.max(by_bytes).clamp(1, default) } else { default };
    engine.record_decision(if cfg.partition_tuning {
        Rule::TuningByRecordsAndBytes { partitions, records, bytes, by_records, by_bytes }
    } else {
        Rule::TuningOff { partitions, records, bytes }
    });
    partitions as usize
}

/// Fraction of a worker's memory beyond which an InnerScalar is too big to
/// broadcast profitably (shipping it to every machine, and holding the
/// deserialized hash table on each, stops paying off well before it OOMs).
pub const BROADCAST_CAP_FRACTION: f64 = 0.02;

/// The broadcast cap in bytes on `engine`'s cluster.
fn broadcast_cap(engine: &Engine) -> u64 {
    (engine.config().memory_per_machine as f64 * BROADCAST_CAP_FRACTION) as u64
}

/// Join algorithm for an InnerBag-InnerScalar tag join, given the
/// InnerScalar's size in `records` and total `bytes` (Sec. 8.2): broadcast
/// while the InnerScalar is too small to give work to all CPU cores; beyond
/// that, repartition once its payload is big enough that replicating it to
/// every machine costs more than shuffling it once.
pub fn tag_join_algorithm(
    cfg: &MatryoshkaConfig,
    engine: &Engine,
    records: u64,
    bytes: u64,
) -> JoinAlgorithm {
    use JoinAlgorithm::{BroadcastRight, Repartition};
    let (cores, cap) = (engine.total_cores() as u64, broadcast_cap(engine));
    let (algorithm, rule) = match cfg.tag_join {
        JoinChoice::ForceBroadcast => {
            (BroadcastRight, Rule::TagJoinForced { records, bytes, choice: "broadcast" })
        }
        JoinChoice::ForceRepartition => {
            (Repartition, Rule::TagJoinForced { records, bytes, choice: "repartition" })
        }
        JoinChoice::Auto if records < 2 * cores => {
            (BroadcastRight, Rule::TagJoinWorkThreshold { records, bytes, cores })
        }
        JoinChoice::Auto if bytes > cap => {
            (Repartition, Rule::TagJoinOverCap { records, bytes, cap })
        }
        JoinChoice::Auto => (BroadcastRight, Rule::TagJoinUnderCap { records, bytes, cap }),
    };
    engine.record_decision(rule);
    algorithm
}

/// Which side of a half-lifted cross product to broadcast (Sec. 8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossSide {
    /// Broadcast the InnerScalar; the flat bag stays partitioned.
    Scalar,
    /// Broadcast the flat bag; the InnerScalar stays partitioned.
    Bag,
}

/// Decide the broadcast side for a half-lifted cross product: a small,
/// single-partition InnerScalar (the common case after Sec. 8.1 tuning) is
/// broadcast outright; otherwise the estimated sizes are compared and the
/// smaller input is shipped (the paper's use of Spark's SizeEstimator).
pub fn cross_side(
    cfg: &MatryoshkaConfig,
    engine: &Engine,
    scalar_partitions: usize,
    bytes: u64,
    bag_bytes: Option<u64>,
) -> CrossSide {
    let (partitions, cap) = (scalar_partitions as u64, broadcast_cap(engine));
    let (side, rule) = match (cfg.cross, bag_bytes) {
        (CrossChoice::ForceBroadcastScalar, _) => {
            (CrossSide::Scalar, Rule::CrossForced { partitions, bytes, choice: "broadcast_scalar" })
        }
        (CrossChoice::ForceBroadcastBag, _) => {
            (CrossSide::Bag, Rule::CrossForced { partitions, bytes, choice: "broadcast_bag" })
        }
        (CrossChoice::Auto, _) if partitions <= 1 && bytes <= cap => {
            (CrossSide::Scalar, Rule::CrossSinglePartition { partitions, bytes, cap })
        }
        (CrossChoice::Auto, Some(bag_bytes)) if bag_bytes < bytes => {
            (CrossSide::Bag, Rule::CrossBagSmaller { partitions, bytes, bag_bytes })
        }
        (CrossChoice::Auto, Some(bag_bytes)) => {
            (CrossSide::Scalar, Rule::CrossScalarSmaller { partitions, bytes, bag_bytes })
        }
        (CrossChoice::Auto, None) => {
            (CrossSide::Scalar, Rule::CrossBagUnknown { partitions, bytes })
        }
    };
    engine.record_decision(rule);
    side
}

#[cfg(test)]
pub(crate) fn tests_gb() -> u64 {
    1 << 30
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_engine::ClusterConfig;

    fn engine() -> Engine {
        Engine::new(ClusterConfig::local_test()) // 8 cores
    }

    #[test]
    fn partition_tuning_collapses_small_scalars() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine();
        assert_eq!(scalar_partitions(&cfg, &e, 10), 1);
        assert_eq!(scalar_partitions(&cfg, &e, 4096), 1);
        assert!(scalar_partitions(&cfg, &e, 100_000) > 1);
    }

    #[test]
    fn without_tuning_uses_default_parallelism() {
        let cfg = MatryoshkaConfig { partition_tuning: false, ..Default::default() };
        let e = engine();
        assert_eq!(scalar_partitions(&cfg, &e, 10), e.config().default_parallelism);
    }

    #[test]
    fn partition_count_never_exceeds_default_parallelism() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine();
        assert_eq!(scalar_partitions(&cfg, &e, u64::MAX / 2), e.config().default_parallelism);
    }

    #[test]
    fn auto_join_small_scalars_broadcast() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine(); // 8 cores -> size threshold 16
        assert_eq!(tag_join_algorithm(&cfg, &e, 4, 1 << 40), JoinAlgorithm::BroadcastRight);
        assert_eq!(tag_join_algorithm(&cfg, &e, 15, 100), JoinAlgorithm::BroadcastRight);
    }

    #[test]
    fn auto_join_large_scalars_repartition_only_when_payload_is_big() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine(); // 4 GB/machine -> cap ~200 MB
                          // Many tags but tiny payload: still broadcast.
        assert_eq!(tag_join_algorithm(&cfg, &e, 10_000, 170_000), JoinAlgorithm::BroadcastRight);
        // Many tags, fat payload: repartition.
        assert_eq!(
            tag_join_algorithm(&cfg, &e, 10_000, 4 * crate::optimizer::tests_gb()),
            JoinAlgorithm::Repartition
        );
    }

    #[test]
    fn forced_join_choices_override_auto() {
        let e = engine();
        let b = MatryoshkaConfig { tag_join: JoinChoice::ForceBroadcast, ..Default::default() };
        let r = MatryoshkaConfig { tag_join: JoinChoice::ForceRepartition, ..Default::default() };
        assert_eq!(tag_join_algorithm(&b, &e, 1 << 40, 1 << 40), JoinAlgorithm::BroadcastRight);
        assert_eq!(tag_join_algorithm(&r, &e, 1, 1), JoinAlgorithm::Repartition);
    }

    #[test]
    fn cross_side_prefers_small_single_partition_scalar() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine();
        assert_eq!(cross_side(&cfg, &e, 1, 100, Some(1 << 40)), CrossSide::Scalar);
        // A single-partition but over-cap scalar falls back to comparison.
        assert_eq!(cross_side(&cfg, &e, 1, 1 << 40, Some(100)), CrossSide::Bag);
    }

    #[test]
    fn cross_side_uses_size_estimates_when_scalar_is_large() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine();
        assert_eq!(cross_side(&cfg, &e, 8, 1000, Some(10)), CrossSide::Bag);
        assert_eq!(cross_side(&cfg, &e, 8, 10, Some(1000)), CrossSide::Scalar);
        assert_eq!(cross_side(&cfg, &e, 8, 10, None), CrossSide::Scalar);
    }

    #[test]
    fn every_choice_lands_in_the_decision_log() {
        let cfg = MatryoshkaConfig::optimized();
        let e = engine(); // 8 cores, default parallelism 8
        scalar_partitions(&cfg, &e, 10);
        partitions_for(&cfg, &e, 10_000, 1 << 30);
        tag_join_algorithm(&cfg, &e, 4, 100);
        tag_join_algorithm(&cfg, &e, 10_000, 4 * tests_gb());
        cross_side(&cfg, &e, 1, 100, Some(1 << 40));
        let cap = broadcast_cap(&e);
        let rules: Vec<Rule> = e.decisions().into_iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            [
                Rule::TuningByRecords { partitions: 1, records: 10, per_partition: 4096 },
                Rule::TuningByRecordsAndBytes {
                    partitions: 8,
                    records: 10_000,
                    bytes: 1 << 30,
                    by_records: 3,
                    by_bytes: 8,
                },
                Rule::TagJoinWorkThreshold { records: 4, bytes: 100, cores: 8 },
                Rule::TagJoinOverCap { records: 10_000, bytes: 4 * tests_gb(), cap },
                Rule::CrossSinglePartition { partitions: 1, bytes: 100, cap },
            ]
        );
    }

    #[test]
    fn forced_choices_are_logged_as_forced() {
        let e = engine();
        let b = MatryoshkaConfig { tag_join: JoinChoice::ForceBroadcast, ..Default::default() };
        tag_join_algorithm(&b, &e, 1 << 40, 1 << 40);
        let want = Rule::TagJoinForced { records: 1 << 40, bytes: 1 << 40, choice: "broadcast" };
        assert_eq!(e.decisions().last().unwrap().rule, want);
    }

    #[test]
    fn forced_cross_choices_override_auto() {
        let e = engine();
        let s = MatryoshkaConfig { cross: CrossChoice::ForceBroadcastScalar, ..Default::default() };
        let b = MatryoshkaConfig { cross: CrossChoice::ForceBroadcastBag, ..Default::default() };
        assert_eq!(cross_side(&s, &e, 100, u64::MAX, Some(0)), CrossSide::Scalar);
        assert_eq!(cross_side(&b, &e, 1, 0, None), CrossSide::Bag);
    }
}
