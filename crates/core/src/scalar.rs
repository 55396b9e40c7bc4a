//! [`InnerScalar`]: the lifted representation of a scalar inside a UDF
//! (paper Sec. 4.3).
//!
//! A scalar variable inside a lifted UDF stands for *many* scalar values —
//! one per original UDF invocation. Its flat representation is a
//! `Bag<(Tag, S)>` where the tag identifies the invocation. Unary scalar
//! operations lift to a `map`; binary scalar operations lift to an equi-join
//! on the tag followed by a `map`, with the join algorithm picked by the
//! runtime optimizer (Sec. 8.2).

use matryoshka_engine::{Bag, Data, Key, Result};

use crate::context::LiftingContext;
use crate::inner_bag::InnerBag;

/// The lifted form of a scalar: one `(tag, value)` record per original UDF
/// invocation. The tag is a unique key within the bag.
pub struct InnerScalar<T: Key, S: Data> {
    repr: Bag<(T, S)>,
    ctx: LiftingContext<T>,
}

impl<T: Key, S: Data> Clone for InnerScalar<T, S> {
    fn clone(&self) -> Self {
        InnerScalar { repr: self.repr.clone(), ctx: self.ctx.clone() }
    }
}

impl<T: Key, S: Data> InnerScalar<T, S> {
    /// Wrap an existing flat representation.
    pub fn from_repr(repr: Bag<(T, S)>, ctx: LiftingContext<T>) -> Self {
        InnerScalar { repr, ctx }
    }

    /// The flat `Bag<(Tag, S)>` representation.
    pub fn repr(&self) -> &Bag<(T, S)> {
        &self.repr
    }

    /// The lifting context (tags, size, optimizer config).
    pub fn ctx(&self) -> &LiftingContext<T> {
        &self.ctx
    }

    /// Lifted unary scalar operation (`unaryScalarOp`, Sec. 4.3):
    /// `s.map(f)` resolves to `s'.map((t, x) => (t, f(x)))`.
    pub fn map<S2: Data>(
        &self,
        f: impl Fn(&S) -> S2 + Send + Sync + 'static,
    ) -> InnerScalar<T, S2> {
        InnerScalar { repr: self.repr.map(move |(t, x)| (t.clone(), f(x))), ctx: self.ctx.clone() }
    }

    /// Lifted binary scalar operation (`binaryScalarOp`, Sec. 4.3):
    /// `binaryScalarOp(a, b)(f)` resolves to
    /// `a'.join(b').map((t, (x, y)) => (t, f(x, y)))`, joining on the tag.
    /// The join algorithm (broadcast vs. repartition) is the optimizer's
    /// runtime choice from the known InnerScalar size (Sec. 8.2).
    pub fn zip_with<S2: Data, S3: Data>(
        &self,
        other: &InnerScalar<T, S2>,
        f: impl Fn(&S, &S2) -> S3 + Send + Sync + 'static,
    ) -> InnerScalar<T, S3> {
        let joined = self.ctx.tag_join(&self.repr, other.repr());
        // The result is one scalar per tag, comparable in size to the
        // inputs — not the concatenation the join's static estimate assumes
        // (which would compound across loop iterations).
        let bytes = self.repr.record_bytes().max(other.repr().record_bytes());
        InnerScalar {
            repr: joined.map(move |t, x, y| (t.clone(), f(x, y))).with_record_bytes(bytes),
            ctx: self.ctx.clone(),
        }
    }

    /// Reinterpret each scalar as a one-element inner bag (used when a
    /// scalar value flows into bag position, e.g. a BFS frontier seeded from
    /// one vertex).
    pub fn to_inner_bag(&self) -> InnerBag<T, S> {
        InnerBag::from_repr(self.repr.clone(), self.ctx.clone())
    }

    /// Materialize all `(tag, value)` pairs on the driver (an action).
    pub fn collect(&self) -> Result<Vec<(T, S)>> {
        self.repr.collect()
    }

    /// Override the modeled bytes per `(tag, value)` record (see
    /// [`Bag::with_record_bytes`]). Used when the per-tag scalar stands for
    /// a larger payload than its in-memory size (e.g. per-topic auxiliary
    /// state in Topic-Sensitive PageRank).
    pub fn with_record_bytes(&self, bytes: f64) -> Self {
        InnerScalar { repr: self.repr.with_record_bytes(bytes), ctx: self.ctx.clone() }
    }
}

impl<T: Key> LiftingContext<T> {
    /// The identity InnerScalar: each tag paired with itself. This is what
    /// the outer component of a `groupByKeyIntoNestedBag` starts from
    /// (Sec. 4.5).
    pub fn tags_scalar(&self) -> InnerScalar<T, T> {
        InnerScalar::from_repr(self.tags().map(|t| (t.clone(), t.clone())), self.clone())
    }

    /// Lift a driver-side constant into an InnerScalar: the value replicated
    /// for every tag. This is the lifted-UDF closure case of Sec. 5.2 (a
    /// plain scalar referenced inside a lifted UDF must be replicated per
    /// tag).
    pub fn constant<S: Data>(&self, value: S) -> InnerScalar<T, S> {
        let bytes = (std::mem::size_of::<(T, S)>() as f64).max(16.0);
        InnerScalar::from_repr(
            self.tags().map(move |t| (t.clone(), value.clone())).with_record_bytes(bytes),
            self.clone(),
        )
    }
}

impl<T: Key, S: Data> std::fmt::Debug for InnerScalar<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InnerScalar").field("ctx", self.ctx()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::MatryoshkaConfig;
    use matryoshka_engine::Engine;

    fn ctx_with_tags(e: &Engine, tags: Vec<u64>) -> LiftingContext<u64> {
        let n = tags.len() as u64;
        let bag = e.parallelize(tags, 2);
        LiftingContext::new(e.clone(), bag, n, MatryoshkaConfig::optimized())
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn unary_op_applies_per_tag() {
        let e = Engine::local();
        let ctx = ctx_with_tags(&e, vec![0, 1, 2]);
        let s = InnerScalar::from_repr(e.parallelize(vec![(0u64, 10), (1, 20), (2, 30)], 2), ctx);
        let out = sorted(s.map(|x| x + 1).collect().unwrap());
        assert_eq!(out, vec![(0, 11), (1, 21), (2, 31)]);
    }

    #[test]
    fn binary_op_joins_on_tags() {
        let e = Engine::local();
        let ctx = ctx_with_tags(&e, vec![0, 1]);
        let a = InnerScalar::from_repr(e.parallelize(vec![(0u64, 6), (1, 10)], 2), ctx.clone());
        let b = InnerScalar::from_repr(e.parallelize(vec![(1u64, 5), (0, 2)], 1), ctx);
        // Division: order matters, so this also checks tags matched right.
        let out = sorted(a.zip_with(&b, |x, y| x / y).collect().unwrap());
        assert_eq!(out, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn constant_replicates_per_tag() {
        let e = Engine::local();
        let ctx = ctx_with_tags(&e, vec![7, 8, 9]);
        let c = ctx.constant(1.5f64);
        let out =
            sorted(c.collect().unwrap().into_iter().map(|(t, v)| (t, (v * 2.0) as i64)).collect());
        assert_eq!(out, vec![(7, 3), (8, 3), (9, 3)]);
    }

    #[test]
    fn tags_scalar_is_identity() {
        let e = Engine::local();
        let ctx = ctx_with_tags(&e, vec![3, 4]);
        assert_eq!(sorted(ctx.tags_scalar().collect().unwrap()), vec![(3, 3), (4, 4)]);
    }

    #[test]
    fn binary_op_with_forced_repartition_agrees_with_broadcast() {
        let e = Engine::local();
        let tags: Vec<u64> = (0..100).collect();
        let pairs: Vec<(u64, u64)> = tags.iter().map(|&t| (t, t * 2)).collect();
        for choice in [
            crate::optimizer::JoinChoice::ForceBroadcast,
            crate::optimizer::JoinChoice::ForceRepartition,
        ] {
            let cfg = MatryoshkaConfig { tag_join: choice, ..MatryoshkaConfig::optimized() };
            let ctx = LiftingContext::new(e.clone(), e.parallelize(tags.clone(), 4), 100, cfg);
            let a = InnerScalar::from_repr(e.parallelize(pairs.clone(), 4), ctx.clone());
            let b = ctx.constant(1u64);
            let out = sorted(a.zip_with(&b, |x, y| x + y).collect().unwrap());
            let expect: Vec<(u64, u64)> = tags.iter().map(|&t| (t, t * 2 + 1)).collect();
            assert_eq!(out, expect);
        }
    }
}
