//! Per-group PageRank (paper Sec. 9.1): the graph's edges are grouped and a
//! separate PageRank runs for each group, "similarly to Topic-Sensitive
//! PageRank and BlockRank". This is the iterative two-level task: a lifted
//! `while` loop whose original loops converge at different iterations.

use matryoshka_engine::{Bag, Engine, Result, WorkEstimate};

use matryoshka_core::{group_by_key_into_nested_bag, lifted_while, InnerBag, MatryoshkaConfig};

use crate::seq::{self, PageRankParams};

/// A rank/contribution message is a ~16-byte `(vertex, f64)` pair while a
/// logical edge record (with its metadata) is several times that: derived
/// message bags weigh this fraction of the edge record.
pub(crate) const MSG_WEIGHT_FRACTION: f64 = 0.2;

/// Flattened output: `(group, (vertex, rank))`, sorted.
pub type GroupRanks = Vec<(u32, (u64, f64))>;

fn sort(mut v: GroupRanks) -> GroupRanks {
    v.sort_by_key(|a| (a.0, a.1 .0));
    v
}

/// Matryoshka: one set of flat jobs computes every group's PageRank, with
/// the lifted loop retiring groups as they converge.
///
/// `per_group_scalar_bytes`, when nonzero, sets the modeled payload of the
/// per-group InnerScalars (vertex count, teleport base, convergence state).
/// The paper's Fig. 8 (left) join ablation uses this to model per-topic
/// auxiliary state of Topic-Sensitive PageRank; the main experiments leave
/// it at 0 (the scalars' natural size).
pub fn matryoshka(
    engine: &Engine,
    edges: &Bag<(u32, (u64, u64))>,
    params: &PageRankParams,
    config: MatryoshkaConfig,
    per_group_scalar_bytes: f64,
) -> Result<GroupRanks> {
    let nested = group_by_key_into_nested_bag(engine, edges, config)?;
    let damping = params.damping;
    let epsilon = params.epsilon;
    let msg_bytes = edges.record_bytes() * MSG_WEIGHT_FRACTION;
    let ranks = nested.map_with_lifted_udf(|_g, edges| -> Result<InnerBag<u32, (u64, f64)>> {
        let vertices = edges.flat_map(|&(s, d)| [s, d]).distinct().with_record_bytes(msg_bytes);
        let mut n = vertices.count();
        if per_group_scalar_bytes > 0.0 {
            n = n.with_record_bytes(per_group_scalar_bytes);
        }
        let out_deg = edges
            .map(|&(s, _)| (s, 1u64))
            .with_record_bytes(msg_bytes)
            .reduce_by_key(|a, b| *a += b);
        // The initWeight closure of Sec. 5: 1/n reaches every vertex via a
        // tag join (mapWithClosure).
        let init = vertices.map_with_scalar(&n, |v, n| (*v, 1.0 / *n as f64));
        let rank_bytes = init.repr().record_bytes();
        // The static relations are co-partitioned once, outside the loop:
        // every iteration's joins then only shuffle the (small) rank side.
        let edges_p = edges.co_partition();
        let degrees_p = out_deg.co_partition();
        let vertices2 = vertices.clone();
        let n2 = n.clone();
        lifted_while(
            &init,
            move |ranks: &InnerBag<u32, (u64, f64)>| {
                let with_deg = ranks.join_co_partitioned(&degrees_p); // (v, (rank, deg))
                let contribs = with_deg
                    .join_co_partitioned(&edges_p)
                    .map(|&(_, ((rank, deg), dst))| (dst, rank / deg as f64))
                    .with_record_bytes(msg_bytes);
                let sums =
                    contribs.union(&vertices2.map(|v| (*v, 0.0f64))).reduce_by_key(|a, b| *a += b);
                // Per-group dangling mass: 1 - mass that flowed along edges.
                let flowed =
                    with_deg.map(|(_, (rank, _))| *rank).fold(0.0f64, |a, r| a + r, |a, b| *a += b);
                let mut base = flowed.zip_with(&n2, move |f, n| {
                    let dangling = (1.0 - f).max(0.0);
                    (1.0 - damping) / *n as f64 + damping * dangling / *n as f64
                });
                if per_group_scalar_bytes > 0.0 {
                    base = base.with_record_bytes(per_group_scalar_bytes);
                }
                let new_ranks = sums
                    .map_with_scalar(&base, move |(v, s), b| (*v, b + damping * s))
                    .with_record_bytes(rank_bytes);
                let delta = new_ranks.join(ranks).map(|(_, (a, b))| (a - b).abs()).fold(
                    0.0f64,
                    |m, d| m.max(*d),
                    |a, b| *a = a.max(*b),
                );
                let mut cond = delta.map(move |d| *d > epsilon);
                if per_group_scalar_bytes > 0.0 {
                    cond = cond.with_record_bytes(per_group_scalar_bytes);
                }
                Ok((new_ranks, cond))
            },
            Some(params.max_iterations),
        )
    })?;
    Ok(sort(ranks.collect()?))
}

/// Outer-parallel workaround: `groupByKey` the edges (one task per group),
/// sequential PageRank per group. Parallelism is capped at the group count;
/// a big group is one big task (and one big working set).
pub fn outer_parallel(
    engine: &Engine,
    edges: &Bag<(u32, (u64, u64))>,
    params: &PageRankParams,
) -> Result<GroupRanks> {
    let record_bytes = edges.record_bytes();
    let factor = engine.config().costs.materialize_factor;
    let p = *params;
    let grouped = edges.group_by_key();
    let ranks = grouped.map_with_work(move |(g, group_edges)| {
        let r = seq::pagerank(group_edges, &p);
        let mem = (group_edges.len() as f64 * record_bytes * factor) as u64;
        ((*g, r.value), WorkEstimate { cost_units: r.work, mem_bytes: mem })
    });
    let flat = ranks.flat_map(|(g, vs)| vs.iter().map(|vr| (*g, *vr)).collect::<Vec<_>>());
    Ok(sort(flat.collect()?))
}

/// Inner-parallel workaround: the driver loops over groups (pre-split) and
/// runs the flat-parallel PageRank per group — at least one job per group
/// per iteration, the overhead that "just gets amplified with iterative
/// tasks" (Sec. 9.2).
pub fn inner_parallel(
    engine: &Engine,
    groups: &[(u32, Vec<(u64, u64)>)],
    params: &PageRankParams,
    record_bytes: f64,
) -> Result<GroupRanks> {
    let mut out = Vec::new();
    for (g, group_edges) in groups {
        let partitions = crate::hdfs_partitions(engine, group_edges.len() as f64 * record_bytes);
        let bag = engine.parallelize_with_bytes(group_edges.clone(), partitions, record_bytes);
        for (v, r) in crate::flat::pagerank(&bag, params)? {
            out.push((*g, (v, r)));
        }
    }
    Ok(sort(out))
}

/// Sequential oracle.
pub fn reference(edges: &[(u32, (u64, u64))], params: &PageRankParams) -> GroupRanks {
    let mut out = Vec::new();
    for (g, group_edges) in split_by_group(edges) {
        for vr in seq::pagerank(&group_edges, params).value {
            out.push((g, vr));
        }
    }
    sort(out)
}

/// Driver-side split into per-group edge lists (inner-parallel's pre-split
/// input).
pub fn split_by_group(edges: &[(u32, (u64, u64))]) -> Vec<(u32, Vec<(u64, u64)>)> {
    use std::collections::HashMap;
    let mut by_group: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for (g, e) in edges {
        by_group.entry(*g).or_default().push(*e);
    }
    let mut out: Vec<_> = by_group.into_iter().collect();
    out.sort_by_key(|(g, _)| *g);
    out
}

/// Per-group InnerScalar count of the final ranks: a cheap scalar digest for
/// comparing strategies at scale (sum of ranks per group, which must be ~1).
pub fn rank_mass_per_group(ranks: &GroupRanks) -> Vec<(u32, f64)> {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
    for (g, (_, r)) in ranks {
        *sums.entry(*g).or_insert(0.0) += r;
    }
    sums.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_datagen::{grouped_edges, GroupedGraphSpec};

    fn assert_ranks_close(a: &GroupRanks, b: &GroupRanks, tol: f64) {
        assert_eq!(a.len(), b.len(), "different vertex sets");
        for ((g1, (v1, r1)), (g2, (v2, r2))) in a.iter().zip(b) {
            assert_eq!((g1, v1), (g2, v2));
            assert!((r1 - r2).abs() < tol, "group {g1} vertex {v1}: {r1} vs {r2}");
        }
    }

    fn small_input() -> Vec<(u32, (u64, u64))> {
        grouped_edges(&GroupedGraphSpec {
            total_edges: 600,
            vertices_per_group: 20,
            ..GroupedGraphSpec::small(4)
        })
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let e = Engine::local();
        let edges = small_input();
        let params = PageRankParams::default();
        let oracle = reference(&edges, &params);

        let bag = e.parallelize(edges.clone(), 4);
        let m = matryoshka(&e, &bag, &params, MatryoshkaConfig::optimized(), 0.0).unwrap();
        assert_ranks_close(&m, &oracle, 1e-4);

        let o = outer_parallel(&e, &bag, &params).unwrap();
        assert_ranks_close(&o, &oracle, 1e-12); // same sequential code

        let i = inner_parallel(&e, &split_by_group(&edges), &params, 16.0).unwrap();
        assert_ranks_close(&i, &oracle, 1e-4);
    }

    #[test]
    fn rank_mass_is_one_per_group() {
        let e = Engine::local();
        let edges = small_input();
        let bag = e.parallelize(edges, 4);
        let m =
            matryoshka(&e, &bag, &PageRankParams::default(), MatryoshkaConfig::optimized(), 0.0)
                .unwrap();
        for (g, mass) in rank_mass_per_group(&m) {
            assert!((mass - 1.0).abs() < 1e-6, "group {g} mass {mass}");
        }
    }

    #[test]
    fn matryoshka_jobs_do_not_scale_with_group_count() {
        // Same total edges, 2 vs 16 groups; iteration counts can differ a
        // little, so compare against a generous multiple.
        let count_jobs = |groups: u32| {
            let e = Engine::local();
            let spec = GroupedGraphSpec { total_edges: 800, ..GroupedGraphSpec::small(groups) };
            let bag = e.parallelize(grouped_edges(&spec), 4);
            matryoshka(&e, &bag, &PageRankParams::default(), MatryoshkaConfig::optimized(), 0.0)
                .unwrap();
            e.stats().jobs
        };
        let j2 = count_jobs(2);
        let j16 = count_jobs(16);
        assert!(j16 < j2 * 3, "matryoshka jobs should track iterations, not groups: {j2} vs {j16}");
    }

    #[test]
    fn forced_join_strategies_agree() {
        let e = Engine::local();
        let edges = small_input();
        let params = PageRankParams::default();
        let oracle = reference(&edges, &params);
        for join in [
            matryoshka_core::JoinChoice::ForceBroadcast,
            matryoshka_core::JoinChoice::ForceRepartition,
        ] {
            let cfg = MatryoshkaConfig { tag_join: join, ..MatryoshkaConfig::optimized() };
            let bag = e.parallelize(edges.clone(), 4);
            let m = matryoshka(&e, &bag, &params, cfg, 0.0).unwrap();
            assert_ranks_close(&m, &oracle, 1e-4);
        }
    }
}
