//! The runtime optimizer of the lowering phase (paper Sec. 8).
//!
//! Because the two-phase flattening defers physical operator selection to
//! runtime, the lowering phase can use *actual* intermediate cardinalities —
//! most importantly the InnerScalar size, which is known structurally at the
//! beginning of every lifted UDF (Sec. 8.1) — to pick partition counts
//! (Sec. 8.1), tag-join algorithms (Sec. 8.2), and the broadcast side of
//! half-lifted cross products (Sec. 8.3).

use matryoshka_engine::{Engine, JoinAlgorithm};

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

/// Partition count for a bag of `size` InnerScalar records (Sec. 8.1).
///
/// Every call appends to the engine's lowering-decision log
/// ([`Engine::decisions`]) with the driving cardinality, so traces show why
/// each physical partition count was picked.
pub fn scalar_partitions(cfg: &MatryoshkaConfig, engine: &Engine, size: u64) -> usize {
    if !cfg.partition_tuning {
        let p = engine.config().default_parallelism;
        engine.record_decision(
            "partition_tuning",
            p.to_string(),
            size,
            0,
            "tuning disabled: default parallelism",
        );
        return p;
    }
    let by_size = size.div_ceil(SCALAR_RECORDS_PER_PARTITION) as usize;
    let p = by_size.clamp(1, engine.config().default_parallelism);
    engine.record_decision(
        "partition_tuning",
        p.to_string(),
        size,
        0,
        format!("{size} records / {SCALAR_RECORDS_PER_PARTITION} per partition"),
    );
    p
}

/// Target partition size (bytes) when deriving partition counts from data
/// volume (one partition per ~128 MB, like a filesystem block).
const TARGET_PARTITION_BYTES: u64 = 128 << 20;

/// Partition count for a bag of `size` records totalling `total_bytes`
/// (Sec. 8.1, extended to weigh bytes as well as cardinality).
pub fn partitions_for(
    cfg: &MatryoshkaConfig,
    engine: &Engine,
    size: u64,
    total_bytes: u64,
) -> usize {
    if !cfg.partition_tuning {
        let p = engine.config().default_parallelism;
        engine.record_decision(
            "partition_tuning",
            p.to_string(),
            size,
            total_bytes,
            "tuning disabled: default parallelism",
        );
        return p;
    }
    let by_size = size.div_ceil(SCALAR_RECORDS_PER_PARTITION) as usize;
    let by_bytes = total_bytes.div_ceil(TARGET_PARTITION_BYTES) as usize;
    let p = by_size.max(by_bytes).clamp(1, engine.config().default_parallelism);
    engine.record_decision(
        "partition_tuning",
        p.to_string(),
        size,
        total_bytes,
        format!("max(by records: {by_size}, by bytes: {by_bytes})"),
    );
    p
}

/// Fraction of a worker's memory beyond which an InnerScalar is too big to
/// broadcast profitably (shipping it to every machine, and holding the
/// deserialized hash table on each, stops paying off well before it OOMs).
pub const BROADCAST_CAP_FRACTION: f64 = 0.02;

/// Join algorithm for an InnerBag-InnerScalar tag join, given the
/// InnerScalar's size and total bytes (Sec. 8.2): broadcast while the
/// InnerScalar is too small to give work to all CPU cores; beyond that,
/// repartition once its payload is big enough that replicating it to every
/// machine costs more than shuffling it once.
pub fn tag_join_algorithm(
    cfg: &MatryoshkaConfig,
    engine: &Engine,
    scalar_size: u64,
    scalar_bytes: u64,
) -> JoinAlgorithm {
    let record = |algorithm: JoinAlgorithm, detail: String| {
        let choice = match algorithm {
            JoinAlgorithm::BroadcastRight => "broadcast",
            JoinAlgorithm::Repartition => "repartition",
        };
        engine.record_decision("tag_join", choice, scalar_size, scalar_bytes, detail);
        algorithm
    };
    match cfg.tag_join {
        JoinChoice::ForceBroadcast => {
            record(JoinAlgorithm::BroadcastRight, "forced by config".into())
        }
        JoinChoice::ForceRepartition => {
            record(JoinAlgorithm::Repartition, "forced by config".into())
        }
        JoinChoice::Auto => {
            let work_threshold = 2 * engine.total_cores() as u64;
            if scalar_size < work_threshold {
                return record(
                    JoinAlgorithm::BroadcastRight,
                    format!("{scalar_size} records < 2 x {} cores", engine.total_cores()),
                );
            }
            let cap = (engine.config().memory_per_machine as f64 * BROADCAST_CAP_FRACTION) as u64;
            if scalar_bytes > cap {
                record(
                    JoinAlgorithm::Repartition,
                    format!("{scalar_bytes} bytes > broadcast cap {cap}"),
                )
            } else {
                record(
                    JoinAlgorithm::BroadcastRight,
                    format!("{scalar_bytes} bytes <= broadcast cap {cap}"),
                )
            }
        }
    }
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
    scalar_bytes: u64,
    bag_bytes: Option<u64>,
) -> CrossSide {
    let record = |side: CrossSide, detail: String| {
        let choice = match side {
            CrossSide::Scalar => "broadcast_scalar",
            CrossSide::Bag => "broadcast_bag",
        };
        engine.record_decision(
            "cross_product",
            choice,
            scalar_partitions as u64,
            scalar_bytes,
            detail,
        );
        side
    };
    match cfg.cross {
        CrossChoice::ForceBroadcastScalar => record(CrossSide::Scalar, "forced by config".into()),
        CrossChoice::ForceBroadcastBag => record(CrossSide::Bag, "forced by config".into()),
        CrossChoice::Auto => {
            let cap = (engine.config().memory_per_machine as f64 * BROADCAST_CAP_FRACTION) as u64;
            if scalar_partitions <= 1 && scalar_bytes <= cap {
                return record(
                    CrossSide::Scalar,
                    format!("single-partition scalar of {scalar_bytes} bytes under cap {cap}"),
                );
            }
            match bag_bytes {
                Some(bb) if bb < scalar_bytes => record(
                    CrossSide::Bag,
                    format!("bag estimate {bb} bytes < scalar {scalar_bytes} bytes"),
                ),
                // Unknown bag size or bigger bag: ship the scalar.
                Some(bb) => record(
                    CrossSide::Scalar,
                    format!("scalar {scalar_bytes} bytes <= bag estimate {bb} bytes"),
                ),
                None => record(CrossSide::Scalar, "bag size unknown: ship the scalar".into()),
            }
        }
    }
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
        let e = engine();
        scalar_partitions(&cfg, &e, 10);
        partitions_for(&cfg, &e, 10_000, 1 << 30);
        tag_join_algorithm(&cfg, &e, 4, 100);
        tag_join_algorithm(&cfg, &e, 10_000, 4 * tests_gb());
        cross_side(&cfg, &e, 1, 100, Some(1 << 40));
        let log = e.decisions();
        assert_eq!(log.len(), 5);
        assert_eq!(log[0].site, "partition_tuning");
        assert_eq!(log[0].choice, "1");
        assert_eq!(log[0].cardinality, 10);
        assert_eq!(log[2].site, "tag_join");
        assert_eq!(log[2].choice, "broadcast");
        assert_eq!(log[3].choice, "repartition");
        assert_eq!(log[3].bytes, 4 * tests_gb());
        assert!(log[3].detail.contains("broadcast cap"));
        assert_eq!(log[4].site, "cross_product");
        assert_eq!(log[4].choice, "broadcast_scalar");
    }

    #[test]
    fn forced_choices_are_logged_as_forced() {
        let e = engine();
        let b = MatryoshkaConfig { tag_join: JoinChoice::ForceBroadcast, ..Default::default() };
        tag_join_algorithm(&b, &e, 1 << 40, 1 << 40);
        let log = e.decisions();
        assert_eq!(log.last().unwrap().detail, "forced by config");
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
