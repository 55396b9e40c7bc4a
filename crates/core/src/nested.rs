//! [`NestedBag`]: the lifted representation of a nested bag outside a UDF
//! (paper Sec. 4.5), plus entry points into lifted execution and the
//! multi-level (≥ 2 nesting levels) tag helpers of Sec. 7.

use matryoshka_engine::{Bag, Data, Engine, Key, Result};

use crate::context::LiftingContext;
use crate::inner_bag::InnerBag;
use crate::optimizer::MatryoshkaConfig;
use crate::scalar::InnerScalar;

/// The flattened form of `Bag[(O, Bag[I])]`: an `InnerScalar<T, O>` for the
/// outer components plus an `InnerBag<T, I>` for the inner elements, sharing
/// one set of tags (Sec. 4.5).
pub struct NestedBag<T: Key, O: Data, I: Data> {
    outer: InnerScalar<T, O>,
    inner: InnerBag<T, I>,
}

impl<T: Key, O: Data, I: Data> Clone for NestedBag<T, O, I> {
    fn clone(&self) -> Self {
        NestedBag { outer: self.outer.clone(), inner: self.inner.clone() }
    }
}

impl<T: Key, O: Data, I: Data> NestedBag<T, O, I> {
    /// Assemble from parts (the parts must share the same tag set).
    pub fn from_parts(outer: InnerScalar<T, O>, inner: InnerBag<T, I>) -> Self {
        NestedBag { outer, inner }
    }

    /// The outer components, one per tag.
    pub fn outer(&self) -> &InnerScalar<T, O> {
        &self.outer
    }

    /// The inner elements, tagged.
    pub fn inner(&self) -> &InnerBag<T, I> {
        &self.inner
    }

    /// The shared lifting context.
    pub fn ctx(&self) -> &LiftingContext<T> {
        self.inner.ctx()
    }

    /// `mapWithLiftedUDF` (Sec. 4.2): the UDF is invoked **once**, in the
    /// driver, over the lifted primitives; every operation inside it is a
    /// lifted operation that processes all inner bags at the same time.
    pub fn map_with_lifted_udf<R>(
        &self,
        udf: impl FnOnce(&InnerScalar<T, O>, &InnerBag<T, I>) -> R,
    ) -> R {
        udf(&self.outer, &self.inner)
    }

    /// Reconstruct the nested collection on the driver: `Vec<(O, Vec<I>)>`
    /// (an output operation in the sense of the correctness proof, Sec. 7:
    /// it applies the inverse isomorphism `m^-1` at the last moment).
    pub fn collect_nested(&self) -> Result<Vec<(O, Vec<I>)>>
    where
        T: Ord,
    {
        let outers = self.outer.collect()?;
        let inners = self.inner.collect()?;
        let mut by_tag: matryoshka_engine::FxHashMap<T, Vec<I>> =
            matryoshka_engine::FxHashMap::with_capacity_and_hasher(
                outers.len(),
                matryoshka_engine::FxBuildHasher,
            );
        for (t, i) in inners {
            by_tag.entry(t).or_default().push(i);
        }
        let mut pairs: Vec<(T, O)> = outers;
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(pairs
            .into_iter()
            .map(|(t, o)| {
                let is = by_tag.remove(&t).unwrap_or_default();
                (o, is)
            })
            .collect())
    }
}

/// `groupByKeyIntoNestedBag` (Sec. 4.5, Listing 2 line 3): group a flat
/// key-value bag into a NestedBag whose tags are the grouping keys.
///
/// Note what this does *not* do: unlike a real `groupByKey`, no shuffle and
/// no in-memory group materialization happens — the inner representation
/// **is** the input bag. The only cost is one counting job to learn the
/// number of groups (the InnerScalar size of Sec. 8.1). This is the heart of
/// why flattening beats the outer-parallel workaround.
pub fn group_by_key_into_nested_bag<K: Key, V: Data>(
    engine: &Engine,
    bag: &Bag<(K, V)>,
    config: MatryoshkaConfig,
) -> Result<NestedBag<K, K, V>> {
    // Projecting to the key drops the record payload: weigh the key bag by
    // the key's own size, not the full record's.
    let key_bytes = (std::mem::size_of::<K>() as f64).max(8.0);
    let keys = bag.map(|(k, _)| k.clone()).with_record_bytes(key_bytes);
    let tags = keys.distinct_into(keys.num_partitions().min(engine.config().default_parallelism));
    let ctx = LiftingContext::counted(engine.clone(), tags, config)?;
    let outer = ctx.tags_scalar();
    let inner = InnerBag::from_repr(bag.clone(), ctx);
    Ok(NestedBag::from_parts(outer, inner))
}

// ---------------------------------------------------------------------------
// Multi-level nesting (Sec. 7): "Lifting tags for three or more levels are
// composed of one lifting tag for each outer level. These tags are combined
// into a composite key."
// ---------------------------------------------------------------------------

impl<T: Key, K: Key, V: Data> InnerBag<T, (K, V)> {
    /// A second-level `groupByKeyIntoNestedBag` *inside* a lifted UDF: the
    /// new tags are `(outer_tag, key)` composites.
    pub fn group_by_key_into_nested_bag(&self) -> Result<NestedBag<(T, K), (T, K), V>> {
        let engine = self.ctx().engine().clone();
        let repr = self.repr().map_into(|(t, (k, v))| ((t, k), v));
        let tags = repr.map(|(tk, _)| tk.clone()).distinct();
        let ctx = LiftingContext::counted(engine, tags, *self.ctx().config())?;
        let outer = ctx.tags_scalar();
        let inner = InnerBag::from_repr(repr, ctx);
        Ok(NestedBag::from_parts(outer, inner))
    }
}

impl<T: Key, E: Key> InnerBag<T, E> {
    /// Lift each *element* of each inner bag to its own tag at the next
    /// nesting level: the result is an `InnerScalar` over `(outer_tag,
    /// element)` composite tags, holding the element as the per-tag scalar.
    ///
    /// This is how a lifted UDF maps over an inner bag with a second-level
    /// lifted UDF (e.g. Average Distances: for every component, for every
    /// source vertex, run a BFS — the `(component, source)` pair becomes the
    /// level-2 tag).
    pub fn lift_elements(&self) -> Result<InnerScalar<(T, E), E>> {
        let engine = self.ctx().engine().clone();
        let repr = self.repr().map_into(|(t, e)| ((t, e.clone()), e));
        let tags = repr.map(|(te, _)| te.clone());
        let ctx = LiftingContext::counted(engine, tags, *self.ctx().config())?;
        Ok(InnerScalar::from_repr(repr, ctx))
    }
}

impl<T: Key, L: Key, S: Data> InnerScalar<(T, L), S> {
    /// Demote one nesting level: an `InnerScalar` over composite `(T, L)`
    /// tags becomes an `InnerBag` over `T` tags whose elements carry the
    /// inner tag (`(L, S)` pairs). This is how per-`(component, source)`
    /// results flow back into per-`component` computations.
    pub fn demote(&self, level1_ctx: &LiftingContext<T>) -> InnerBag<T, (L, S)> {
        let repr = self.repr().map_into(|((t, l), s)| (t, (l, s)));
        InnerBag::from_repr(repr, level1_ctx.clone())
    }
}

impl<T: Key, L: Key, E: Data> InnerBag<(T, L), E> {
    /// Demote one nesting level for inner bags (see
    /// [`InnerScalar::demote`]).
    pub fn demote(&self, level1_ctx: &LiftingContext<T>) -> InnerBag<T, (L, E)> {
        let repr = self.repr().map_into(|((t, l), e)| (t, (l, e)));
        InnerBag::from_repr(repr, level1_ctx.clone())
    }
}

impl<T: Key, L: Key, I: Data> InnerBag<T, (L, I)> {
    /// Promote elements carrying an inner tag into an `InnerBag` over
    /// composite `(T, L)` tags, sharing an existing level-2 context.
    pub fn promote(&self, level2_ctx: &LiftingContext<(T, L)>) -> InnerBag<(T, L), I> {
        let repr = self.repr().map_into(|(t, (l, i))| ((t, l), i));
        InnerBag::from_repr(repr, level2_ctx.clone())
    }
}

impl<T: Key, O: Data, I: Data> std::fmt::Debug for NestedBag<T, O, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NestedBag").field("ctx", self.ctx()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_engine::Engine;

    fn sorted<X: Ord>(mut v: Vec<X>) -> Vec<X> {
        v.sort();
        v
    }

    #[test]
    fn group_by_key_into_nested_bag_builds_both_parts() {
        let e = Engine::local();
        let visits = e.parallelize(vec![(1u32, 'a'), (1, 'b'), (2, 'c')], 2);
        let nested =
            group_by_key_into_nested_bag(&e, &visits, MatryoshkaConfig::optimized()).unwrap();
        assert_eq!(nested.ctx().size(), 2);
        assert_eq!(sorted(nested.outer().collect().unwrap()), vec![(1, 1), (2, 2)]);
        let mut n = nested.collect_nested().unwrap();
        n.iter_mut().for_each(|(_, v)| v.sort());
        assert_eq!(n, vec![(1, vec!['a', 'b']), (2, vec!['c'])]);
    }

    #[test]
    fn grouping_into_nested_bag_does_not_shuffle() {
        let e = Engine::local();
        let visits = e.parallelize((0..1000u32).map(|i| (i % 10, i)).collect::<Vec<_>>(), 4);
        // Force the input to be computed first so the delta below only
        // covers the grouping itself.
        visits.count().unwrap();
        let s0 = e.stats();
        let _nested =
            group_by_key_into_nested_bag(&e, &visits, MatryoshkaConfig::optimized()).unwrap();
        let d = e.stats().since(&s0);
        // Only the tag-distinct + count job; the inner repr is the input
        // bag itself. The distinct shuffles the keys only, never the data
        // records (1000 keys at the pair record size of 8 bytes).
        assert!(
            d.shuffle_bytes <= 1000 * 8,
            "must not shuffle the data records: {}",
            d.shuffle_bytes
        );
        assert_eq!(d.spill_bytes, 0);
    }

    #[test]
    fn second_level_grouping_uses_composite_tags() {
        let e = Engine::local();
        let ctx = LiftingContext::new(
            e.clone(),
            e.parallelize(vec![0u64, 1], 1),
            2,
            MatryoshkaConfig::optimized(),
        );
        // Tag 0 has keys {a}, tag 1 has keys {a, b}: 3 composite groups.
        let b = InnerBag::from_repr(
            e.parallelize(vec![(0u64, ('a', 1)), (0, ('a', 2)), (1, ('a', 3)), (1, ('b', 4))], 2),
            ctx,
        );
        let nested = b.group_by_key_into_nested_bag().unwrap();
        assert_eq!(nested.ctx().size(), 3);
        let mut n = nested.collect_nested().unwrap();
        n.iter_mut().for_each(|(_, v)| v.sort());
        assert_eq!(n, vec![((0, 'a'), vec![1, 2]), ((1, 'a'), vec![3]), ((1, 'b'), vec![4])]);
    }

    #[test]
    fn lift_demote_roundtrip() {
        let e = Engine::local();
        let ctx = LiftingContext::new(
            e.clone(),
            e.parallelize(vec![0u64, 1], 1),
            2,
            MatryoshkaConfig::optimized(),
        );
        let b = InnerBag::from_repr(
            e.parallelize(vec![(0u64, 10u32), (1, 20), (1, 30)], 2),
            ctx.clone(),
        );
        let lifted = b.lift_elements().unwrap();
        assert_eq!(lifted.ctx().size(), 3);
        // Square each element at level 2, then demote back to level 1.
        let squared = lifted.map(|x| x * x);
        let back = squared.demote(&ctx);
        let out = sorted(back.collect().unwrap());
        assert_eq!(out, vec![(0, (10, 100)), (1, (20, 400)), (1, (30, 900))]);
    }
}
