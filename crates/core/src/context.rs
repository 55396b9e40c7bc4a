//! [`LiftingContext`]: per-lifted-UDF metadata (paper Sec. 8.1).
//!
//! Each lifted UDF has an associated context that stores the bag of lifting
//! tags and — crucially — the number of tags, which equals the size of
//! *every* InnerScalar inside the UDF. This size is known when the context
//! is created (before any InnerScalar is computed), which is what enables
//! the runtime optimizations of Sec. 8.

use std::sync::Arc;

use matryoshka_engine::{Bag, Engine, JoinAlgorithm, Key, Result};

use crate::adaptive::AdaptivePlanner;
use crate::optimizer::{self, JoinChoice, MatryoshkaConfig};

struct CtxInner<T: Key> {
    engine: Engine,
    /// All tags of this lifted UDF: one per invocation the original
    /// (unlifted) UDF would have had. Needed to zero-fill aggregations over
    /// empty inner bags (Sec. 4.4: "we store the bag of tags once per lifted
    /// UDF").
    tags: Bag<T>,
    /// Number of tags = size of every InnerScalar in this UDF (Sec. 8.1).
    size: u64,
    config: Arc<MatryoshkaConfig>,
}

/// Metadata shared by all lifted values of one lifted UDF. Cheap to clone.
pub struct LiftingContext<T: Key> {
    inner: Arc<CtxInner<T>>,
}

impl<T: Key> Clone for LiftingContext<T> {
    fn clone(&self) -> Self {
        LiftingContext { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Key> LiftingContext<T> {
    /// Create a context from a bag of tags whose cardinality is already
    /// known (the caller typically just computed it, e.g. while grouping).
    pub fn new(engine: Engine, tags: Bag<T>, size: u64, config: MatryoshkaConfig) -> Self {
        LiftingContext {
            inner: Arc::new(CtxInner { engine, tags, size, config: Arc::new(config) }),
        }
    }

    /// Create a context, counting the tags with one engine job (one of the
    /// "several different ways" of determining the InnerScalar size the
    /// paper mentions in Sec. 8.1).
    pub fn counted(engine: Engine, tags: Bag<T>, config: MatryoshkaConfig) -> Result<Self> {
        let size = tags.count()?;
        Ok(Self::new(engine, tags, size, config))
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The bag of tags of this lifted UDF.
    pub fn tags(&self) -> &Bag<T> {
        &self.inner.tags
    }

    /// Number of tags = InnerScalar size (Sec. 8.1).
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// The lowering-phase configuration.
    pub fn config(&self) -> &MatryoshkaConfig {
        &self.inner.config
    }

    /// Partition count the optimizer assigns to InnerScalar-sized bags
    /// (Sec. 8.1).
    pub fn scalar_partitions(&self) -> usize {
        optimizer::scalar_partitions(self.config(), self.engine(), self.size())
    }

    /// Join algorithm the optimizer picks for a tag join against an
    /// InnerScalar of this context's size whose records weigh
    /// `scalar_record_bytes` (Sec. 8.2).
    pub fn tag_join_algorithm(&self, scalar_record_bytes: f64) -> JoinAlgorithm {
        let bytes = (self.size() as f64 * scalar_record_bytes) as u64;
        optimizer::tag_join_algorithm(self.config(), self.engine(), self.size(), bytes)
    }

    /// Execute a tag join of `left` against a scalar-sized `right` with the
    /// optimizer's choices: broadcast vs. repartition by the InnerScalar's
    /// size and bytes (Sec. 8.2), and — for the repartition case — a
    /// partition count that accounts for the scalar's data volume
    /// (Sec. 8.1), so a fat InnerScalar never collapses onto one build task.
    pub fn tag_join<A: matryoshka_engine::Data, B: matryoshka_engine::Data>(
        &self,
        left: &Bag<(T, A)>,
        right: &Bag<(T, B)>,
    ) -> Bag<(T, (A, B))> {
        let acfg = &self.config().adaptive;
        // A forced `JoinChoice` wins over the adaptive re-decision.
        let adaptive_choice =
            acfg.enabled && acfg.switch_joins && self.config().tag_join == JoinChoice::Auto;
        let algorithm = if adaptive_choice {
            self.adaptive_tag_join_algorithm(left.size_estimate(), right)
        } else {
            self.tag_join_algorithm(right.record_bytes())
        };
        match algorithm {
            JoinAlgorithm::BroadcastRight => left.broadcast_join(right),
            JoinAlgorithm::Repartition => {
                let scalar_bytes = (self.size() as f64 * right.record_bytes()) as u64;
                let static_p = optimizer::partitions_for(
                    self.config(),
                    self.engine(),
                    self.size(),
                    scalar_bytes,
                )
                .max(left.num_partitions())
                .min(self.engine().config().default_parallelism);
                if !acfg.enabled {
                    return left.join_into(static_p, right);
                }
                let planner = AdaptivePlanner::new(self.engine(), acfg);
                let p = planner.coalesced_partitions("tag_join", static_p, left.size_estimate());
                let right_bytes = right.size_estimate().unwrap_or(scalar_bytes);
                match planner.salt_factor_gated("join", Some(right_bytes)) {
                    Some(salt) => self.salted_tag_join(left, right, p, salt),
                    None => left.join_into(p, right),
                }
            }
        }
    }

    /// Re-decide the tag-join algorithm from *observed* sizes (the adaptive
    /// re-optimizer's join switching): prefer the materialized right side;
    /// fall back to the most recent per-tag aggregation the engine observed
    /// (a scalar-producing `reduce_by_key` has at most one record per live
    /// tag); fall back to the context estimate. Inside `lifted_while` this
    /// runs once per iteration against the narrowed context, so the decision
    /// tracks the shrinking live-tag set.
    ///
    /// Unlike the static rule, which only caps the broadcast side by memory,
    /// this compares actual data movement when the left side's observed
    /// bytes are known: a broadcast ships the scalar to every machine
    /// (`right x machines`), a repartition shuffles both sides once — a
    /// few-but-fat scalar joined against a lean bag repartitions even though
    /// it would fit in memory.
    fn adaptive_tag_join_algorithm<B: matryoshka_engine::Data>(
        &self,
        left_bytes: Option<u64>,
        right: &Bag<(T, B)>,
    ) -> JoinAlgorithm {
        let engine = self.engine();
        // The history gives observed *cardinality*; bytes are always derived
        // from the side being joined now (`right.record_bytes()`), since a
        // history entry's own byte total belongs to whatever aggregation
        // produced it, not to this scalar.
        let (size, source) = if let Some(n) = right.cached_count() {
            (n, "materialized scalar")
        } else if let Some(s) = engine
            .map_output_history()
            .iter()
            .rev()
            .find(|s| s.operator == "reduce_by_key" && s.total_records <= self.size())
        {
            (s.total_records, "map-output history")
        } else {
            (self.size(), "context estimate")
        };
        let bytes = (size as f64 * right.record_bytes()) as u64;
        let work_threshold = 2 * engine.total_cores() as u64;
        let cap =
            (engine.config().memory_per_machine as f64 * optimizer::BROADCAST_CAP_FRACTION) as u64;
        // The byte cap is checked first: a scalar of few-but-fat records
        // must not be broadcast just because its cardinality is small.
        let machines = engine.config().machines as u64;
        let (algorithm, choice, why) = if bytes > cap {
            (
                JoinAlgorithm::Repartition,
                "repartition",
                format!("{bytes} observed bytes > broadcast cap {cap}"),
            )
        } else if let Some(lb) = left_bytes {
            let broadcast_cost = bytes.saturating_mul(machines);
            let repartition_cost = lb.saturating_add(bytes);
            if broadcast_cost <= repartition_cost {
                (
                    JoinAlgorithm::BroadcastRight,
                    "broadcast",
                    format!(
                        "ships {broadcast_cost} bytes ({bytes} x {machines} machines) vs \
                         {repartition_cost} shuffled"
                    ),
                )
            } else {
                (
                    JoinAlgorithm::Repartition,
                    "repartition",
                    format!(
                        "shuffles {repartition_cost} bytes vs {broadcast_cost} broadcast \
                         ({bytes} x {machines} machines)"
                    ),
                )
            }
        } else if size < work_threshold {
            (
                JoinAlgorithm::BroadcastRight,
                "broadcast",
                format!("{size} observed records < 2 x {} cores", engine.total_cores()),
            )
        } else {
            (
                JoinAlgorithm::BroadcastRight,
                "broadcast",
                format!("{bytes} observed bytes <= broadcast cap {cap}"),
            )
        };
        engine.record_decision(
            "adaptive_tag_join",
            choice,
            size,
            bytes,
            format!("{source}: {why}"),
        );
        algorithm
    }

    /// Skew-mitigated repartition tag join: salt the (hot, shuffled) left
    /// side's tag with a deterministic per-record suffix so one hot tag
    /// spreads over `salt` reduce partitions, replicate the (light) scalar
    /// side once per salt value, join on the salted composite, and strip the
    /// salt in a cheap narrow map.
    fn salted_tag_join<A: matryoshka_engine::Data, B: matryoshka_engine::Data>(
        &self,
        left: &Bag<(T, A)>,
        right: &Bag<(T, B)>,
        partitions: usize,
        salt: u32,
    ) -> Bag<(T, (A, B))> {
        let s = salt.max(2);
        let lbytes = left.record_bytes();
        let rbytes = right.record_bytes();
        let salted = left
            .map_indexed(move |pi, i, (t, a)| ((t.clone(), (pi + i) as u32 % s), a.clone()))
            .with_record_bytes(lbytes);
        let replicated = right
            .flat_map(move |(t, b)| (0..s).map(|k| ((t.clone(), k), b.clone())).collect::<Vec<_>>())
            .with_record_bytes(rbytes);
        salted
            .join_into(partitions, &replicated)
            .map(|((t, _), ab)| (t.clone(), ab.clone()))
            .with_record_bytes(lbytes + rbytes)
    }

    /// A context over a subset of this context's tags (used by lifted
    /// control flow when loops/branches retire tags, Sec. 6.2).
    pub fn narrowed(&self, tags: Bag<T>, size: u64) -> LiftingContext<T> {
        LiftingContext {
            inner: Arc::new(CtxInner {
                engine: self.inner.engine.clone(),
                tags,
                size,
                config: Arc::clone(&self.inner.config),
            }),
        }
    }
}

impl<T: Key> std::fmt::Debug for LiftingContext<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiftingContext").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_engine::ClusterConfig;

    #[test]
    fn counted_context_knows_its_size() {
        let e = Engine::new(ClusterConfig::local_test());
        let tags = e.parallelize((0..37u64).collect(), 4);
        let ctx = LiftingContext::counted(e.clone(), tags, MatryoshkaConfig::optimized()).unwrap();
        assert_eq!(ctx.size(), 37);
        assert_eq!(ctx.scalar_partitions(), 1);
    }

    #[test]
    fn narrowed_context_shares_config() {
        let e = Engine::new(ClusterConfig::local_test());
        let tags = e.parallelize((0..10u64).collect(), 2);
        let ctx = LiftingContext::new(e.clone(), tags, 10, MatryoshkaConfig::optimized());
        let sub = ctx.narrowed(e.parallelize(vec![1u64, 2], 1), 2);
        assert_eq!(sub.size(), 2);
        assert!(sub.config().partition_tuning);
    }

    #[test]
    fn forced_join_choice_wins_over_adaptive_switching() {
        let e = Engine::new(ClusterConfig::local_test());
        let cfg = MatryoshkaConfig {
            tag_join: JoinChoice::ForceRepartition,
            ..MatryoshkaConfig::adaptive()
        };
        let ctx = LiftingContext::new(e.clone(), e.parallelize((0..4u64).collect(), 2), 4, cfg);
        let left = e.parallelize((0..40u64).map(|i| (i % 4, i)).collect(), 4);
        let right = e.parallelize((0..4u64).map(|t| (t, t * 10)).collect(), 2);
        // Four tiny scalars: the adaptive rule (and `Auto`) would broadcast.
        assert_eq!(ctx.tag_join(&left, &right).count().unwrap(), 40);
        let log = e.decisions();
        let forced: Vec<_> = log.iter().filter(|d| d.site == "tag_join").collect();
        assert_eq!(forced.len(), 1, "{log:?}");
        assert_eq!(
            (forced[0].choice.as_str(), forced[0].detail.as_str()),
            ("repartition", "forced by config")
        );
        assert!(log.iter().all(|d| d.site != "adaptive_tag_join"), "{log:?}");
    }
}
