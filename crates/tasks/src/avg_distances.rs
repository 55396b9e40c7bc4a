//! Average Distances (paper Sec. 2.2): for every connected component of a
//! graph, the average shortest-path distance over all vertex pairs. The
//! paper's **three-level** task: components (level 1) × source vertices
//! (level 2) × the BFS's own data-parallel loop (level 3). Matryoshka
//! parallelizes all three levels with composite `(component, source)` tags;
//! outer-parallel can only parallelize level 1, inner-parallel only level 3.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use matryoshka_engine::{Bag, Engine, Result, WorkEstimate};

use matryoshka_core::{group_by_key_into_nested_bag, lifted_while, InnerBag, MatryoshkaConfig};

use crate::seq;

/// Per-component average distances, sorted by component label.
pub type AvgDistances = Vec<(u64, f64)>;

fn sort(mut v: AvgDistances) -> AvgDistances {
    v.sort_by_key(|(c, _)| *c);
    v
}

/// Tag each edge with its component label using a flat connected-components
/// pass (the outermost, non-nested part of the task, shared by every
/// strategy: `connectedComps(g)` in the paper's composition example).
fn tag_edges_by_component(
    engine: &Engine,
    edges: &Bag<(u64, u64)>,
) -> Result<Bag<(u64, (u64, u64))>> {
    let cc = crate::flat::connected_components(edges)?;
    let bytes = (cc.len() * 16) as u64;
    let comp_of: HashMap<u64, u64> = cc.into_iter().collect();
    let bc = engine.broadcast(comp_of, bytes)?;
    Ok(edges.map(move |&(u, v)| (bc.value()[&u], (u, v))))
}

/// Matryoshka: components become level-1 tags, `(component, source)` pairs
/// become level-2 tags (Sec. 7's composite lifting tags), and one lifted BFS
/// loop advances every BFS of every component simultaneously.
pub fn matryoshka(
    engine: &Engine,
    edges: &Bag<(u64, u64)>,
    config: MatryoshkaConfig,
    max_depth: usize,
) -> Result<AvgDistances> {
    let tagged = tag_edges_by_component(engine, edges)?;
    let nested = group_by_key_into_nested_bag(engine, &tagged, config)?;
    let avgs = nested.map_with_lifted_udf(|_c, comp_edges| -> Result<_> {
        let ctx1 = comp_edges.ctx().clone();
        // BFS state records (vertex ids, distances) are small pairs; only
        // the edge records carry the data weight.
        let msg_bytes = 16.0;
        // Undirected adjacency, keyed by the source endpoint.
        let adj = comp_edges.flat_map(|&(u, v)| [(u, v), (v, u)]);
        let vertices =
            comp_edges.flat_map(|&(u, v)| [u, v]).distinct().with_record_bytes(msg_bytes);
        let n = vertices.count();
        // Level 2: every vertex of every component becomes its own tag.
        let sources = vertices.lift_elements()?;
        let ctx2 = sources.ctx().clone();
        let visited0 = sources.map(|v| (*v, 0u64)).to_inner_bag();
        let frontier0 = sources.to_inner_bag();
        let depth = AtomicU64::new(0);
        // Static adjacency co-partitioned once; each BFS level only
        // shuffles the frontier.
        let adj_p = adj.co_partition();
        let ctx1_loop = ctx1.clone();
        let (visited, _frontier) = lifted_while(
            &(visited0, frontier0),
            move |(visited, frontier): &(
                InnerBag<(u64, u64), (u64, u64)>,
                InnerBag<(u64, u64), u64>,
            )| {
                let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
                // Expand the frontier through the level-1 adjacency: a
                // half-lifted join across nesting levels — demote the
                // level-2 frontier to level 1, join on (component, vertex),
                // promote the discovered neighbours back to level 2.
                let keyed = frontier.demote(&ctx1_loop).map(|&(src, cur)| (cur, src));
                let discovered =
                    keyed.join_co_partitioned(&adj_p).map(|&(_, (src, nbr))| (src, nbr));
                let candidates = discovered
                    .promote(&ctx2)
                    .map(move |nbr| (*nbr, d))
                    .with_record_bytes(msg_bytes);
                let new_visited =
                    visited.union(&candidates).reduce_by_key(|a, b| *a = (*a).min(*b));
                let new_frontier = new_visited.filter(move |&(_, dist)| dist == d).map(|&(v, _)| v);
                let cond = new_frontier.count().map(|c| *c > 0);
                Ok(((new_visited, new_frontier), cond))
            },
            Some(max_depth),
        )?;
        // Sum of distances per (component, source), demoted to per-component.
        let per_source = visited.map(|&(_, dist)| dist).fold(0u64, |a, x| a + x, |a, b| *a += b);
        let per_comp =
            per_source.demote(&ctx1).map(|&(_, s)| s).fold(0u64, |a, x| a + x, |a, b| *a += b);
        Ok(per_comp.zip_with(&n, |total, n| {
            if *n <= 1 {
                0.0
            } else {
                *total as f64 / (*n * (*n - 1)) as f64
            }
        }))
    })?;
    Ok(sort(avgs.collect()?))
}

/// Outer-parallel workaround: one task per component, sequential all-pairs
/// BFS inside (levels 2 and 3 run on a single simulated core).
pub fn outer_parallel(engine: &Engine, edges: &Bag<(u64, u64)>) -> Result<AvgDistances> {
    let tagged = tag_edges_by_component(engine, edges)?;
    let record_bytes = tagged.record_bytes();
    let factor = engine.config().costs.materialize_factor;
    let grouped = tagged.group_by_key();
    let avgs = grouped.map_with_work(move |(c, comp_edges)| {
        let r = seq::avg_distances(comp_edges);
        let mem = (comp_edges.len() as f64 * record_bytes * factor) as u64;
        ((*c, r.value), WorkEstimate { cost_units: r.work, mem_bytes: mem })
    });
    Ok(sort(avgs.collect()?))
}

/// Inner-parallel workaround: the driver loops over components *and* source
/// vertices, launching a flat-parallel BFS (jobs per BFS level) for each —
/// the job count explodes with both outer levels (Sec. 9.2: "outer-parallel
/// can parallelize only the first level while inner-parallel only the
/// third").
pub fn inner_parallel(
    engine: &Engine,
    components: &[(u64, Vec<(u64, u64)>)],
    record_bytes: f64,
) -> Result<AvgDistances> {
    let mut out = Vec::new();
    for (c, comp_edges) in components {
        let partitions = crate::hdfs_partitions(engine, comp_edges.len() as f64 * record_bytes);
        let bag = engine.parallelize_with_bytes(comp_edges.clone(), partitions, record_bytes);
        // A competent inner-parallel user prepares the adjacency once per
        // component and reuses it across the per-vertex BFS runs.
        let adj = crate::flat::bfs_adjacency(&bag);
        let mut vertices: Vec<u64> = comp_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        vertices.sort_unstable();
        vertices.dedup();
        let n = vertices.len() as u64;
        let mut total = 0u64;
        for &src in &vertices {
            for (_, dist) in crate::flat::bfs(engine, &adj, src)? {
                total += dist;
            }
        }
        let avg = if n <= 1 { 0.0 } else { total as f64 / (n * (n - 1)) as f64 };
        out.push((*c, avg));
    }
    Ok(sort(out))
}

/// Sequential oracle.
pub fn reference(edges: &[(u64, u64)]) -> AvgDistances {
    sort(
        split_by_component(edges)
            .into_iter()
            .map(|(c, es)| (c, seq::avg_distances(&es).value))
            .collect(),
    )
}

/// Driver-side split into per-component edge lists (inner-parallel's
/// pre-split input).
pub fn split_by_component(edges: &[(u64, u64)]) -> Vec<(u64, Vec<(u64, u64)>)> {
    let comp_of: HashMap<u64, u64> = seq::connected_components(edges).into_iter().collect();
    let mut by_comp: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for &(u, v) in edges {
        by_comp.entry(comp_of[&u]).or_default().push((u, v));
    }
    let mut out: Vec<_> = by_comp.into_iter().collect();
    out.sort_by_key(|(c, _)| *c);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_datagen::{component_graph, ComponentGraphSpec};

    fn assert_close(a: &AvgDistances, b: &AvgDistances) {
        assert_eq!(a.len(), b.len());
        for ((c1, d1), (c2, d2)) in a.iter().zip(b) {
            assert_eq!(c1, c2);
            assert!((d1 - d2).abs() < 1e-9, "component {c1}: {d1} vs {d2}");
        }
    }

    fn small_graph() -> Vec<(u64, u64)> {
        component_graph(&ComponentGraphSpec {
            vertices_per_component: 8,
            ..ComponentGraphSpec::small(3)
        })
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let e = Engine::local();
        let edges = small_graph();
        let oracle = reference(&edges);
        let bag = e.parallelize(edges.clone(), 4);

        let m = matryoshka(&e, &bag, MatryoshkaConfig::optimized(), 32).unwrap();
        assert_close(&m, &oracle);

        let o = outer_parallel(&e, &bag).unwrap();
        assert_close(&o, &oracle);

        let i = inner_parallel(&e, &split_by_component(&edges), 16.0).unwrap();
        assert_close(&i, &oracle);
    }

    #[test]
    fn handles_a_path_graph_precisely() {
        let e = Engine::local();
        // One component: path 0-1-2. Average = 8/6.
        let bag = e.parallelize(vec![(0u64, 1u64), (1, 2)], 2);
        let m = matryoshka(&e, &bag, MatryoshkaConfig::optimized(), 16).unwrap();
        assert_eq!(m.len(), 1);
        assert!((m[0].1 - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn inner_parallel_job_count_explodes() {
        let e = Engine::local();
        let edges = small_graph(); // 3 components x 8 vertices
        let s0 = e.stats();
        inner_parallel(&e, &split_by_component(&edges), 16.0).unwrap();
        let d = e.stats().since(&s0);
        // One BFS per (component, vertex) = 24 BFS runs, each several jobs.
        assert!(d.jobs >= 24 * 2, "expected a job explosion, got {}", d.jobs);
    }

    #[test]
    fn matryoshka_jobs_track_graph_diameter_not_size() {
        let jobs_for = |components: u32| {
            let e = Engine::local();
            let g = component_graph(&ComponentGraphSpec {
                vertices_per_component: 8,
                ..ComponentGraphSpec::small(components)
            });
            let bag = e.parallelize(g, 4);
            matryoshka(&e, &bag, MatryoshkaConfig::optimized(), 32).unwrap();
            e.stats().jobs
        };
        let j2 = jobs_for(2);
        let j8 = jobs_for(8);
        assert!(j8 < j2 * 2, "jobs should track BFS depth, not component count: {j2} vs {j8}");
    }
}
