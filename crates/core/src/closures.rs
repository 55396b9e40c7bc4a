//! Half-lifted `mapWithClosure` (paper Sec. 5.2, optimized per Sec. 8.3):
//! the cross product between an InnerScalar from *inside* a lifted UDF and a
//! flat bag from *outside* it (a closure of the enclosing UDF).
//!
//! The canonical example is K-means (Sec. 8.3): the current means are an
//! InnerScalar (one centroid set per hyperparameter configuration), the
//! points are a plain bag defined at the outermost level. Re-assigning
//! points to centroids is a cross product: every point must meet every
//! configuration's means.

use matryoshka_engine::{Bag, Data, Key, Result};

use crate::inner_bag::InnerBag;
use crate::optimizer::{cross_side, CrossSide};
use crate::scalar::InnerScalar;

impl<T: Key, C: Data> InnerScalar<T, C> {
    /// Half-lifted `mapWithClosure` as a cross product (Sec. 8.3): for every
    /// `(tag, scalar)` and every element of `bag`, emit `f(tag, scalar,
    /// element)`'s outputs tagged with the scalar's tag.
    ///
    /// The optimizer decides which side to broadcast: the InnerScalar when
    /// it fits in one partition (the common case after Sec. 8.1 partition
    /// tuning), otherwise whichever side the size estimator says is smaller.
    /// A forced strategy (ablation) that broadcasts an over-large side fails
    /// with a simulated OutOfMemory — the crash the paper's Fig. 8 (right)
    /// shows for the non-optimized strategies.
    pub fn cross_with_bag<P: Data, U: Data, I>(
        &self,
        bag: &Bag<P>,
        f: impl Fn(&T, &C, &P) -> I + Send + Sync + 'static,
    ) -> Result<InnerBag<T, U>>
    where
        I: IntoIterator<Item = U>,
    {
        let engine = self.ctx().engine().clone();
        let scalar_bytes = (self.ctx().size() as f64 * self.repr().record_bytes()) as u64;
        let side = cross_side(
            self.ctx().config(),
            &engine,
            self.repr().num_partitions(),
            scalar_bytes,
            bag.size_estimate(),
        );
        // The cross's outputs are per-(tag, element) tuples of roughly the
        // bag element's size (e.g. a point's cluster assignment).
        let out_bytes = bag.record_bytes();
        let repr = match side {
            CrossSide::Scalar => {
                // Ship the (tag, scalar) pairs to every worker; the big bag
                // stays partitioned in place.
                let pairs = self.repr().collect()?;
                let bc = engine.broadcast(pairs, scalar_bytes)?;
                bag.flat_map(move |p| {
                    let mut out = Vec::with_capacity(bc.value().len());
                    for (t, c) in bc.value() {
                        out.extend(f(t, c, p).into_iter().map(|u| (t.clone(), u)));
                    }
                    out
                })
                .with_record_bytes(out_bytes)
            }
            CrossSide::Bag => {
                // Ship the whole bag to every worker; the InnerScalar stays
                // partitioned in place.
                let items = bag.collect()?;
                let bag_bytes = (items.len() as f64 * bag.record_bytes()) as u64;
                let bc = engine.broadcast(items, bag_bytes)?;
                // Give the scalar side enough partitions to parallelize the
                // cross (Sec. 8.1 partition tuning, by data volume).
                let p = ((scalar_bytes / (128 << 20)) as usize)
                    .clamp(1, engine.config().default_parallelism)
                    .max(self.repr().num_partitions());
                let scalars = if self.repr().num_partitions() < p {
                    self.repr().repartition(p)
                } else {
                    self.repr().clone()
                };
                scalars
                    .flat_map(move |(t, c)| {
                        let mut out = Vec::with_capacity(bc.value().len());
                        for p in bc.value() {
                            out.extend(f(t, c, p).into_iter().map(|u| (t.clone(), u)));
                        }
                        out
                    })
                    .with_record_bytes(out_bytes)
            }
        };
        Ok(InnerBag::from_repr(repr, self.ctx().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LiftingContext;
    use crate::optimizer::{CrossChoice, MatryoshkaConfig};
    use matryoshka_engine::Engine;

    fn sorted<X: Ord>(mut v: Vec<X>) -> Vec<X> {
        v.sort();
        v
    }

    fn scalar(e: &Engine, cfg: MatryoshkaConfig) -> InnerScalar<u64, i64> {
        let tags = e.parallelize(vec![0u64, 1], 1);
        let ctx = LiftingContext::new(e.clone(), tags, 2, cfg);
        InnerScalar::from_repr(e.parallelize(vec![(0u64, 10i64), (1, 100)], 1), ctx)
    }

    #[test]
    fn cross_produces_all_pairs() {
        let e = Engine::local();
        let s = scalar(&e, MatryoshkaConfig::optimized());
        let bag = e.parallelize(vec![1i64, 2, 3], 2);
        let out = s.cross_with_bag(&bag, |_, c, p| Some(c * p)).unwrap();
        let got = sorted(out.collect().unwrap());
        assert_eq!(got, vec![(0, 10), (0, 20), (0, 30), (1, 100), (1, 200), (1, 300)]);
    }

    #[test]
    fn both_forced_strategies_agree_with_auto() {
        let e = Engine::local();
        let bag = e.parallelize((1..=5i64).collect::<Vec<_>>(), 3);
        bag.count().unwrap(); // warm the size estimator
        let mut results = Vec::new();
        for cross in
            [CrossChoice::Auto, CrossChoice::ForceBroadcastScalar, CrossChoice::ForceBroadcastBag]
        {
            let cfg = MatryoshkaConfig { cross, ..MatryoshkaConfig::optimized() };
            let s = scalar(&e, cfg);
            let out = s.cross_with_bag(&bag, |t, c, p| Some((*t as i64) + c + p)).unwrap();
            results.push(sorted(out.collect().unwrap()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn forced_broadcast_of_oversized_bag_ooms() {
        let mut cc = matryoshka_engine::ClusterConfig::local_test();
        cc.memory_per_machine = matryoshka_engine::MB;
        let e = Engine::new(cc);
        let cfg = MatryoshkaConfig {
            cross: CrossChoice::ForceBroadcastBag,
            ..MatryoshkaConfig::optimized()
        };
        let tags = e.parallelize(vec![0u64], 1);
        let ctx = LiftingContext::new(e.clone(), tags, 1, cfg);
        let s = InnerScalar::from_repr(e.parallelize(vec![(0u64, 1i64)], 1), ctx);
        // A bag whose modeled size exceeds one machine's memory.
        let bag = e.parallelize((0..100_000i64).collect::<Vec<_>>(), 4).with_record_bytes(1000.0);
        let err = s.cross_with_bag(&bag, |_, c, p| Some(c + p)).unwrap_err();
        assert!(matches!(err, matryoshka_engine::EngineError::OutOfMemory { .. }));
    }
}
