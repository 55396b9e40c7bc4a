//! [`InnerBag`]: the lifted representation of a bag inside a UDF
//! (paper Sec. 4.4).
//!
//! A bag variable inside a lifted UDF stands for many bags — one per
//! original UDF invocation. Its flat representation is a `Bag<(Tag, E)>`
//! holding all elements of all inner bags, tagged by invocation. The
//! operations below are the *lifted* versions of the classic bag operations:
//! stateless ones forward the tags; stateful ones (aggregations, grouping,
//! joins) re-key by `(tag, key)` composites.

use matryoshka_engine::{Bag, Data, JoinAlgorithm, Key, Result, Rule};

use crate::context::LiftingContext;
use crate::scalar::InnerScalar;

/// The lifted form of a bag: all inner-bag elements, each tagged with the
/// original UDF invocation it belongs to.
pub struct InnerBag<T: Key, E: Data> {
    repr: Bag<(T, E)>,
    ctx: LiftingContext<T>,
}

impl<T: Key, E: Data> Clone for InnerBag<T, E> {
    fn clone(&self) -> Self {
        InnerBag { repr: self.repr.clone(), ctx: self.ctx.clone() }
    }
}

impl<T: Key, E: Data> InnerBag<T, E> {
    /// Wrap an existing flat representation.
    pub fn from_repr(repr: Bag<(T, E)>, ctx: LiftingContext<T>) -> Self {
        InnerBag { repr, ctx }
    }

    /// The flat `Bag<(Tag, E)>` representation.
    pub fn repr(&self) -> &Bag<(T, E)> {
        &self.repr
    }

    /// The lifting context.
    pub fn ctx(&self) -> &LiftingContext<T> {
        &self.ctx
    }

    /// Lifted `map`: apply to the element, forward the tag (Sec. 4.4).
    pub fn map<U: Data>(&self, f: impl Fn(&E) -> U + Send + Sync + 'static) -> InnerBag<T, U> {
        InnerBag { repr: self.repr.map(move |(t, e)| (t.clone(), f(e))), ctx: self.ctx.clone() }
    }

    /// Lifted `filter`: predicate on the element, tag forwarded.
    pub fn filter(&self, f: impl Fn(&E) -> bool + Send + Sync + 'static) -> InnerBag<T, E> {
        InnerBag { repr: self.repr.filter(move |(_, e)| f(e)), ctx: self.ctx.clone() }
    }

    /// Lifted `flatMap`: each output element inherits the input's tag.
    pub fn flat_map<U: Data, I>(
        &self,
        f: impl Fn(&E) -> I + Send + Sync + 'static,
    ) -> InnerBag<T, U>
    where
        I: IntoIterator<Item = U>,
    {
        InnerBag {
            repr: self.repr.flat_map(move |(t, e)| {
                let t = t.clone();
                f(e).into_iter().map(move |u| (t.clone(), u))
            }),
            ctx: self.ctx.clone(),
        }
    }

    /// Lifted `union`: identical to flat union (Sec. 4.4: "some other
    /// operations' lifted versions are simply identical to the original").
    pub fn union(&self, other: &InnerBag<T, E>) -> InnerBag<T, E> {
        InnerBag { repr: self.repr.union(other.repr()), ctx: self.ctx.clone() }
    }

    /// Natural modeled size of one `(tag, X)` scalar record. Aggregation
    /// outputs have *structural* cardinality (one record per tag), so they
    /// must not inherit the data-scaled record weight of the bag they
    /// aggregate — a per-day counter is a few bytes even when the day's
    /// visits are gigabytes.
    fn scalar_record_bytes<X>(&self) -> f64 {
        (std::mem::size_of::<(T, X)>() as f64).max(16.0)
    }

    /// Lifted `count`: per-tag element count, **including zero for tags
    /// whose inner bag is empty** (Sec. 4.4: operations that produce output
    /// for empty inputs need the stored bag of tags).
    pub fn count(&self) -> InnerScalar<T, u64> {
        let p = self.ctx.scalar_partitions();
        let bytes = self.scalar_record_bytes::<u64>();
        let counts = self.repr.map(|(t, _)| (t.clone(), 1u64)).with_record_bytes(bytes);
        let zeros = self.ctx.tags().map(|t| (t.clone(), 0u64)).with_record_bytes(bytes);
        let all = merged(counts.union(&zeros), p, |a, b| *a += b);
        InnerScalar::from_repr(all, self.ctx.clone())
    }

    /// Lifted `fold`: per-tag fold seeded with `zero` for **every** tag, so
    /// empty inner bags yield `zero` (via the stored tags bag, Sec. 4.4).
    ///
    /// `zero` is applied once per element (`f(&zero, e)` makes its partial)
    /// and once more per tag (the seed that `combine` merges with the
    /// partials), so it must be `combine`'s identity. A front end whose
    /// `fold` applies the zero once per tag passes an `f` that ignores it.
    /// `combine(acc, a)` folds the partial `a` into `acc` in place.
    pub fn fold<A: Data>(
        &self,
        zero: A,
        f: impl Fn(&A, &E) -> A + Send + Sync + 'static,
        combine: impl Fn(&mut A, &A) + Send + Sync + 'static,
    ) -> InnerScalar<T, A> {
        let p = self.ctx.scalar_partitions();
        let bytes = self.scalar_record_bytes::<A>();
        let z = zero.clone();
        let mapped: Bag<(T, A)> =
            self.repr.map(move |(t, e)| (t.clone(), f(&z, e))).with_record_bytes(bytes);
        let zeros =
            self.ctx.tags().map(move |t| (t.clone(), zero.clone())).with_record_bytes(bytes);
        let folded = merged(mapped.union(&zeros), p, combine);
        InnerScalar::from_repr(folded, self.ctx.clone())
    }

    /// Remove the nesting structure: drop the tags, yielding one flat bag of
    /// all elements. This is `flatten`, the lowered form of `flatMap`'s
    /// nesting removal (Sec. 4.6: "Flatten's implementation simply removes
    /// the tags from an InnerBag").
    pub fn flatten(&self) -> Bag<E> {
        self.repr.map_into(|(_, e)| e)
    }

    /// Gather each tag's inner bag into a driver-visible `Vec` scalar
    /// (useful for small per-tag state such as K-means centroids). The
    /// engine's memory model sees the real per-tag sizes.
    pub fn collect_per_tag(&self) -> InnerScalar<T, Vec<E>> {
        let p = self.ctx.scalar_partitions();
        let grouped = self.repr.map_into(|te| te).group_by_key_into(p).map_into(|tes| tes);
        // Zero-fill: tags with no elements get an empty Vec. (Structural
        // cardinality: weigh these as small records, whatever the tags bag's
        // own record weight is.)
        let zeros = self
            .ctx
            .tags()
            .map(|t| (t.clone(), Vec::<E>::new()))
            .with_record_bytes(self.scalar_record_bytes::<Vec<E>>());
        let all = merged(grouped.union(&zeros), p, |a, b| a.extend(b.iter().cloned()));
        InnerScalar::from_repr(all, self.ctx.clone())
    }

    /// Lifted `distinct`: identical to flat distinct on the tagged pairs
    /// (Sec. 4.4) — requires hashable elements.
    pub fn distinct(&self) -> InnerBag<T, E>
    where
        E: Key,
    {
        InnerBag { repr: self.repr.distinct(), ctx: self.ctx.clone() }
    }

    /// `mapWithClosure` (Sec. 5.1): a map whose UDF reads a scalar defined
    /// outside the (unlifted) UDF. Lifted, this is a tag join between the
    /// InnerBag and the InnerScalar, with the join algorithm chosen by the
    /// runtime optimizer (Sec. 8.2).
    pub fn map_with_scalar<C: Data, U: Data>(
        &self,
        closure: &InnerScalar<T, C>,
        f: impl Fn(&E, &C) -> U + Send + Sync + 'static,
    ) -> InnerBag<T, U> {
        let joined = self.ctx.tag_join(&self.repr, closure.repr());
        // Consulting the scalar does not fatten the elements: keep the bag
        // side's modeled record size.
        let bytes = self.repr.record_bytes();
        InnerBag {
            repr: joined.map(move |t, e, c| (t.clone(), f(e, c))).with_record_bytes(bytes),
            ctx: self.ctx.clone(),
        }
    }

    /// `flatMapWithClosure`: [`InnerBag::map_with_scalar`] element-to-many.
    /// Each output element inherits its input's tag.
    pub fn flat_map_with_scalar<C: Data, U: Data, I>(
        &self,
        closure: &InnerScalar<T, C>,
        f: impl Fn(&E, &C) -> I + Send + Sync + 'static,
    ) -> InnerBag<T, U>
    where
        I: IntoIterator<Item = U>,
    {
        let joined = self.ctx.tag_join(&self.repr, closure.repr());
        let bytes = self.repr.record_bytes();
        let repr = joined.flat_map(move |t, e, c| {
            let t = t.clone();
            f(e, c).into_iter().map(move |u| (t.clone(), u))
        });
        InnerBag { repr: repr.with_record_bytes(bytes), ctx: self.ctx.clone() }
    }

    /// Filter with access to a per-tag scalar (used by lifted control flow).
    pub fn filter_with_scalar<C: Data>(
        &self,
        closure: &InnerScalar<T, C>,
        f: impl Fn(&E, &C) -> bool + Send + Sync + 'static,
    ) -> InnerBag<T, E> {
        let joined = self.ctx.tag_join(&self.repr, closure.repr());
        let bytes = self.repr.record_bytes();
        InnerBag {
            repr: joined.filter(move |_, e, c| f(e, c)).with_record_bytes(bytes),
            ctx: self.ctx.clone(),
        }
    }

    /// Override the modeled bytes per element (see
    /// [`Bag::with_record_bytes`]). Pin this on loop-carried state whose
    /// shape is constant across iterations, so static size estimates cannot
    /// compound through the loop's joins.
    pub fn with_record_bytes(&self, bytes: f64) -> InnerBag<T, E> {
        InnerBag { repr: self.repr.with_record_bytes(bytes), ctx: self.ctx.clone() }
    }

    /// Materialize all `(tag, element)` pairs on the driver (an action).
    pub fn collect(&self) -> Result<Vec<(T, E)>> {
        self.repr.collect()
    }
}

/// `bag` reduced by key into `partitions` with the in-place `f`, its partials
/// weighed as its records.
fn merged<K: Key, V: Data>(
    bag: Bag<(K, V)>,
    partitions: usize,
    f: impl Fn(&mut V, &V) + Send + Sync + 'static,
) -> Bag<(K, V)> {
    let bytes = bag.record_bytes();
    bag.reduce_by_key_partials(partitions, bytes, f)
}

/// Lifted key-value operations: the re-keying of Sec. 4.4 ("we lift
/// operations that already have a per-key state by creating a composite key
/// from the original key plus the tag"). Every re-keying map takes its record
/// by value ([`Bag::map_into`]): inside a stage it moves the record's parts
/// into the new shape, and only a materialized input is cloned, once.
impl<T: Key, K: Key, V: Data> InnerBag<T, (K, V)> {
    /// Lifted `reduceByKey`: `b'.map{(t,(k,v)) => ((t,k),v)}.reduceByKey(f)
    /// .map{((t,k),v) => (t,(k,v))}` — exactly the paper's rewrite.
    /// `f(acc, v)` folds `v` into `acc` in place.
    pub fn reduce_by_key(
        &self,
        f: impl Fn(&mut V, &V) + Send + Sync + 'static,
    ) -> InnerBag<T, (K, V)> {
        self.reduce_by_key_partials(self.repr.record_bytes(), f)
    }

    /// [`InnerBag::reduce_by_key`] with an explicit modeled size for the
    /// post-combine partial records (see
    /// [`Bag::reduce_by_key_partials`]): use when the per-`(tag, key)`
    /// partial is a small structural record regardless of how much data it
    /// aggregates.
    pub fn reduce_by_key_partials(
        &self,
        partial_bytes: f64,
        f: impl Fn(&mut V, &V) + Send + Sync + 'static,
    ) -> InnerBag<T, (K, V)> {
        let rekeyed = self.repr.map_into(|(t, (k, v))| ((t, k), v));
        let p = rekeyed.num_partitions().min(self.ctx.engine().config().default_parallelism);
        let reduced = rekeyed.reduce_by_key_partials(p, partial_bytes, f);
        InnerBag { repr: reduced.map_into(|((t, k), v)| (t, (k, v))), ctx: self.ctx.clone() }
    }

    /// Lifted `groupByKey` with the same composite-key re-keying.
    pub fn group_by_key(&self) -> InnerBag<T, (K, Vec<V>)> {
        let rekeyed = self.repr.map_into(|(t, (k, v))| ((t, k), v));
        let grouped = rekeyed.group_by_key();
        InnerBag { repr: grouped.map_into(|((t, k), vs)| (t, (k, vs))), ctx: self.ctx.clone() }
    }

    /// Lifted equi-join: join on the `(tag, key)` composite so that only
    /// pairs from the *same original UDF invocation* match (Sec. 4.4: "we
    /// also lift joins with a similar rekeying").
    pub fn join<W: Data>(&self, other: &InnerBag<T, (K, W)>) -> InnerBag<T, (K, (V, W))> {
        let l = self.repr.map_into(|(t, (k, v))| ((t, k), v));
        let r = other.repr.map_into(|(t, (k, w))| ((t, k), w));
        let joined = l.joined_with(&r, JoinAlgorithm::Repartition);
        InnerBag {
            repr: joined.map(|(t, k), v, w| (t.clone(), (k.clone(), (v.clone(), w.clone())))),
            ctx: self.ctx.clone(),
        }
    }

    /// Half-lifted equi-join (Sec. 5.2): the left side is an InnerBag, the
    /// right side is a plain bag from outside the lifted UDF (a closure).
    /// Implemented exactly as the paper's three-liner: re-key the InnerBag
    /// by the join key, join against the outer bag, then restore the tag.
    pub fn half_lifted_join<W: Data>(&self, right: &Bag<(K, W)>) -> InnerBag<T, (K, (V, W))> {
        let rekeyed = self.repr.map_into(|(t, (k, v))| (k, (t, v)));
        let joined = rekeyed.joined_with(right, JoinAlgorithm::Repartition);
        InnerBag {
            repr: joined.map(|k, (t, v), w| (t.clone(), (k.clone(), (v.clone(), w.clone())))),
            ctx: self.ctx.clone(),
        }
    }

    /// Pre-shuffle this InnerBag by its `(tag, key)` composite once, so that
    /// repeated lifted joins against it (e.g. the static edge relation inside
    /// a lifted PageRank loop) become co-partitioned narrow dependencies —
    /// the lifted equivalent of Spark's `partitionBy` + cache idiom.
    pub fn co_partition(&self) -> CoPartitioned<T, K, V> {
        let p = self.ctx.engine().config().default_parallelism;
        let (partitions, records) = (p as u64, self.ctx.size());
        self.ctx.engine().record_decision(Rule::CoPartition { partitions, records });
        let repr = self.repr.map_into(|(t, (k, v))| ((t, k), v)).partition_by_key(p);
        CoPartitioned { repr, ctx: self.ctx.clone() }
    }

    /// Lifted equi-join against a [`CoPartitioned`] right side: only the
    /// left side shuffles; the right side's placement is computed once and
    /// reused by every call (every loop iteration).
    pub fn join_co_partitioned<W: Data>(
        &self,
        right: &CoPartitioned<T, K, W>,
    ) -> InnerBag<T, (K, (V, W))> {
        let p = right.repr.num_partitions();
        let l = self.repr.map_into(|(t, (k, v))| ((t, k), v)).partition_by_key(p);
        let joined = l.joined_into(p, &right.repr);
        InnerBag {
            repr: joined.map(|(t, k), v, w| (t.clone(), (k.clone(), (v.clone(), w.clone())))),
            ctx: self.ctx.clone(),
        }
    }
}

/// An [`InnerBag`] whose flat representation has been hash-partitioned by
/// its `(tag, key)` composite (see [`InnerBag::co_partition`]).
pub struct CoPartitioned<T: Key, K: Key, V: Data> {
    repr: Bag<((T, K), V)>,
    ctx: LiftingContext<T>,
}

impl<T: Key, K: Key, V: Data> Clone for CoPartitioned<T, K, V> {
    fn clone(&self) -> Self {
        CoPartitioned { repr: self.repr.clone(), ctx: self.ctx.clone() }
    }
}

impl<T: Key, K: Key, V: Data> CoPartitioned<T, K, V> {
    /// View as a plain InnerBag again (records unchanged, placement kept).
    pub fn to_inner_bag(&self) -> InnerBag<T, (K, V)> {
        InnerBag { repr: self.repr.map_into(|((t, k), v)| (t, (k, v))), ctx: self.ctx.clone() }
    }
}

impl<T: Key, E: Data> std::fmt::Debug for InnerBag<T, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InnerBag").field("ctx", self.ctx()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::MatryoshkaConfig;
    use matryoshka_engine::Engine;

    fn ctx(e: &Engine, tags: Vec<u64>) -> LiftingContext<u64> {
        let n = tags.len() as u64;
        LiftingContext::new(e.clone(), e.parallelize(tags, 2), n, MatryoshkaConfig::optimized())
    }

    fn bag(e: &Engine, c: &LiftingContext<u64>, data: Vec<(u64, i64)>) -> InnerBag<u64, i64> {
        InnerBag::from_repr(e.parallelize(data, 3), c.clone())
    }

    fn sorted<X: Ord>(mut v: Vec<X>) -> Vec<X> {
        v.sort();
        v
    }

    #[test]
    fn map_filter_preserve_tags() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let b = bag(&e, &c, vec![(0, 1), (0, 2), (1, 3)]);
        let out = sorted(b.map(|x| x * 10).filter(|x| *x >= 20).collect().unwrap());
        assert_eq!(out, vec![(0, 20), (1, 30)]);
    }

    #[test]
    fn count_zero_fills_empty_tags() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1, 2]); // tag 2 has no elements
        let b = bag(&e, &c, vec![(0, 1), (0, 2), (1, 3)]);
        let out = sorted(b.count().collect().unwrap());
        assert_eq!(out, vec![(0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn fold_fills_empty_tags() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1, 2]);
        let b = bag(&e, &c, vec![(0, 5), (0, 7), (1, 1)]);
        let folded = b.fold(0i64, |z, x| z + x, |a, b| *a += b);
        assert_eq!(sorted(folded.collect().unwrap()), vec![(0, 12), (1, 1), (2, 0)]);
    }

    #[test]
    fn reduce_by_key_keys_within_tag_only() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        // Same inner key 9 in both tags: must NOT merge across tags.
        let b = InnerBag::from_repr(
            e.parallelize(vec![(0u64, (9u32, 1i64)), (0, (9, 2)), (1, (9, 100))], 2),
            c.clone(),
        );
        let out = sorted(b.reduce_by_key(|a, x| *a += x).collect().unwrap());
        assert_eq!(out, vec![(0, (9, 3)), (1, (9, 100))]);
    }

    #[test]
    fn join_matches_within_tag_only() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let l = InnerBag::from_repr(
            e.parallelize(vec![(0u64, (1u32, 'a')), (1, (1, 'b'))], 2),
            c.clone(),
        );
        let r = InnerBag::from_repr(
            e.parallelize(vec![(0u64, (1u32, 10)), (1, (1, 20))], 2),
            c.clone(),
        );
        let out = sorted(l.join(&r).collect().unwrap());
        assert_eq!(out, vec![(0, (1, ('a', 10))), (1, (1, ('b', 20)))]);
    }

    #[test]
    fn half_lifted_join_replicates_outer_per_tag() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let l = InnerBag::from_repr(
            e.parallelize(vec![(0u64, (1u32, 'a')), (1, (1, 'b')), (1, (2, 'c'))], 2),
            c.clone(),
        );
        let outer = e.parallelize(vec![(1u32, 100), (2, 200)], 2);
        let out = sorted(l.half_lifted_join(&outer).collect().unwrap());
        assert_eq!(out, vec![(0, (1, ('a', 100))), (1, (1, ('b', 100))), (1, (2, ('c', 200)))]);
    }

    #[test]
    fn map_with_scalar_matches_tags() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let b = bag(&e, &c, vec![(0, 1), (0, 2), (1, 3)]);
        let s = InnerScalar::from_repr(e.parallelize(vec![(0u64, 10i64), (1, 100)], 1), c.clone());
        let out = sorted(b.map_with_scalar(&s, |e, c| e * c).collect().unwrap());
        assert_eq!(out, vec![(0, 10), (0, 20), (1, 300)]);
    }

    #[test]
    fn distinct_dedups_within_tag() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let b = bag(&e, &c, vec![(0, 1), (0, 1), (1, 1)]);
        let out = sorted(b.distinct().collect().unwrap());
        assert_eq!(out, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn flatten_drops_tags() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let b = bag(&e, &c, vec![(0, 1), (1, 2)]);
        assert_eq!(sorted(b.flatten().collect().unwrap()), vec![1, 2]);
    }

    #[test]
    fn collect_per_tag_gathers_and_zero_fills() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1, 2]);
        let b = bag(&e, &c, vec![(0, 3), (0, 1), (1, 9)]);
        let mut out = b.collect_per_tag().collect().unwrap();
        out.sort_by_key(|(t, _)| *t);
        assert_eq!(out.len(), 3);
        assert_eq!(sorted(out[0].1.clone()), vec![1, 3]);
        assert_eq!(out[1].1, vec![9]);
        assert!(out[2].1.is_empty());
    }

    static POINT_CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A point whose clones are counted.
    #[derive(Debug, PartialEq)]
    struct Point(u64);

    impl Clone for Point {
        fn clone(&self) -> Self {
            POINT_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Point(self.0)
        }
    }

    /// The K-means assignment stage (`map_with_scalar` then
    /// `reduce_by_key_partials`: each point meets its tag's centroids, then
    /// per-`(tag, cluster)` sums) clones a point once, in the UDF. The
    /// re-keying maps around the reduce, its combine and its scatter move it.
    #[test]
    fn a_lifted_assignment_stage_clones_each_point_once() {
        use std::sync::atomic::Ordering::Relaxed;
        const N: u64 = 3_000;
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1, 2]);
        let data = (0..N).map(|i| (i % 3, Point(i))).collect();
        let points = InnerBag::from_repr(e.parallelize(data, 4), c.clone());
        let modulus = vec![(0u64, 5u64), (1, 7), (2, 11)];
        let centroids = InnerScalar::from_repr(e.parallelize(modulus, 1), c);
        points.repr().count().unwrap();
        centroids.repr().count().unwrap();
        POINT_CLONES.store(0, Relaxed);
        let sums = points
            .map_with_scalar(&centroids, |p, m| (p.0 % m, (p.clone(), 1u64)))
            .reduce_by_key_partials(16.0, |(a, n), (b, m)| {
                a.0 += b.0;
                *n += m;
            });
        assert_eq!(sums.repr().count().unwrap(), 5 + 7 + 11, "one sum per (tag, cluster)");
        assert_eq!(POINT_CLONES.load(Relaxed), N as usize, "one clone per point, the UDF's");
    }

    #[test]
    fn group_by_key_composite() {
        let e = Engine::local();
        let c = ctx(&e, vec![0, 1]);
        let b = InnerBag::from_repr(
            e.parallelize(vec![(0u64, (5u32, 'x')), (0, (5, 'y')), (1, (5, 'z'))], 2),
            c.clone(),
        );
        let mut out = b.group_by_key().collect().unwrap();
        out.sort_by_key(|(t, _)| *t);
        assert_eq!(out[0].0, 0);
        assert_eq!(sorted(out[0].1 .1.clone()), vec!['x', 'y']);
        assert_eq!(out[1], (1, (5, vec!['z'])));
    }
}
