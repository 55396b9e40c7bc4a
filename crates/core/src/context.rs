//! [`LiftingContext`]: per-lifted-UDF metadata (paper Sec. 8.1).
//!
//! Each lifted UDF has an associated context that stores the bag of lifting
//! tags and — crucially — the number of tags, which equals the size of
//! *every* InnerScalar inside the UDF. This size is known when the context
//! is created (before any InnerScalar is computed), which is what enables
//! the runtime optimizations of Sec. 8.

use std::sync::Arc;

use matryoshka_engine::{Bag, Engine, JoinAlgorithm, Joined, Key, Result};

use crate::optimizer::{self, MatryoshkaConfig};

struct CtxInner<T: Key> {
    engine: Engine,
    /// All tags of this lifted UDF: one per invocation the original
    /// (unlifted) UDF would have had. Needed to zero-fill aggregations over
    /// empty inner bags (Sec. 4.4: "we store the bag of tags once per lifted
    /// UDF").
    tags: Bag<T>,
    /// Number of tags = size of every InnerScalar in this UDF (Sec. 8.1).
    size: u64,
    config: MatryoshkaConfig,
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
        LiftingContext { inner: Arc::new(CtxInner { engine, tags, size, config }) }
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

    /// Plan a tag join of `left` against a scalar-sized `right` with the
    /// optimizer's choices (the caller picks what a match becomes, see
    /// [`Joined`]): broadcast vs. repartition by the InnerScalar's
    /// size and bytes (Sec. 8.2), and — for the repartition case — a
    /// partition count that accounts for the scalar's data volume
    /// (Sec. 8.1), so a fat InnerScalar never collapses onto one build task.
    pub fn tag_join<A: matryoshka_engine::Data, B: matryoshka_engine::Data>(
        &self,
        left: &Bag<(T, A)>,
        right: &Bag<(T, B)>,
    ) -> Joined<T, A, B> {
        match self.tag_join_algorithm(right.record_bytes()) {
            algorithm @ JoinAlgorithm::BroadcastRight => left.joined_with(right, algorithm),
            JoinAlgorithm::Repartition => {
                let scalar_bytes = (self.size() as f64 * right.record_bytes()) as u64;
                let p = optimizer::partitions_for(
                    self.config(),
                    self.engine(),
                    self.size(),
                    scalar_bytes,
                )
                .max(left.num_partitions())
                .min(self.engine().config().default_parallelism);
                left.joined_into(p, right)
            }
        }
    }

    /// A context over a subset of this context's tags (used by lifted
    /// control flow when loops/branches retire tags, Sec. 6.2).
    pub fn narrowed(&self, tags: Bag<T>, size: u64) -> LiftingContext<T> {
        LiftingContext {
            inner: Arc::new(CtxInner {
                engine: self.inner.engine.clone(),
                tags,
                size,
                config: self.inner.config,
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
}
