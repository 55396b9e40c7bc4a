//! Hand-flattened rungs: the two workloads written directly against `Bag`,
//! the way a programmer would flatten them by hand, with no `core` lifting
//! underneath. Same input, same cluster, same references as the lifted
//! strategies, so `wall_ms_p50 / engine.flat_ms_p50` is the host-time price
//! of lifting (`core.lift_overhead_ratio`; Flare's hand-written lower bound).

use std::collections::{HashMap, HashSet};

use matryoshka_engine::{Bag, Engine, Result};
use matryoshka_tasks::bounce_rate::BounceRates;
use matryoshka_tasks::pagerank::GroupRanks;
use matryoshka_tasks::seq::PageRankParams;

/// Bounce rate per day, paper Listing 3: composite `(day, ip)` keys instead
/// of a nested bag. The final join is a left outer join so that a day
/// without bounces still reports 0, as the reference does.
pub fn flat_bounce_rate(visits: &Bag<(u32, u64)>) -> Result<BounceRates> {
    let counts = visits.map(|&(d, ip)| ((d, ip), 1u64)).reduce_by_key(|a, b| a + b);
    let bounces =
        counts.filter(|(_, c)| *c == 1).map(|((d, _), _)| (*d, 1u64)).reduce_by_key(|a, b| a + b);
    let visitors = visits.distinct().map(|&(d, _)| (d, 1u64)).reduce_by_key(|a, b| a + b);
    let mut out = visitors
        .left_outer_join(&bounces)
        .map(|(d, (v, b))| (*d, b.unwrap_or(0) as f64 / *v as f64))
        .collect()?;
    out.sort_by_key(|(d, _)| *d);
    Ok(out)
}

/// Modeled weight of a rank message relative to an edge record, as in
/// `tasks::pagerank`.
const MSG_WEIGHT_FRACTION: f64 = 0.2;

type GroupVertex = (u32, u64);

/// Per-group PageRank with composite `(group, vertex)` keys. The static
/// relations are co-partitioned once; per-group scalars (vertex count,
/// dangling mass, convergence) travel through the driver as small broadcast
/// maps; a group leaves the loop at the iteration its own delta converges,
/// exactly as the sequential reference stops each group on its own.
pub fn flat_pagerank(
    engine: &Engine,
    edges: &Bag<(u32, (u64, u64))>,
    params: &PageRankParams,
) -> Result<GroupRanks> {
    let msg_bytes = edges.record_bytes() * MSG_WEIGHT_FRACTION;
    let p = engine.config().default_parallelism;
    let vertices: Bag<GroupVertex> =
        edges.flat_map(|&(g, (s, d))| [(g, s), (g, d)]).distinct().with_record_bytes(msg_bytes);
    let sizes: HashMap<u32, u64> = vertices
        .map(|&(g, _)| (g, 1u64))
        .reduce_by_key(|a, b| a + b)
        .collect()?
        .into_iter()
        .collect();
    let map_bytes = |len: usize| (len * 16) as u64;
    let sizes = engine.broadcast(sizes.clone(), map_bytes(sizes.len()))?;
    let by_src = edges.map(|&(g, (s, d))| ((g, s), d)).partition_by_key(p);
    let out_deg = edges
        .map(|&(g, (s, _))| ((g, s), 1u64))
        .with_record_bytes(msg_bytes)
        .reduce_by_key_into(p, |a, b| a + b);

    let n_of = sizes.clone();
    let mut ranks: Bag<(GroupVertex, f64)> =
        vertices.map(move |&(g, v)| ((g, v), 1.0 / n_of.value()[&g] as f64));
    let rank_bytes = ranks.record_bytes();
    let mut live = vertices.clone();
    let mut finished: Option<Bag<(GroupVertex, f64)>> = None;
    let (damping, epsilon) = (params.damping, params.epsilon);
    for iteration in 1..=params.max_iterations {
        let with_deg = ranks.join_into(p, &out_deg);
        let contribs = with_deg
            .join_into(p, &by_src)
            .map(|&((g, _), ((rank, deg), dst))| ((g, dst), rank / deg as f64))
            .with_record_bytes(msg_bytes);
        let sums =
            contribs.union(&live.map(|gv| (*gv, 0.0f64))).reduce_by_key_into(p, |a, b| a + b);
        let flowed: HashMap<u32, f64> = with_deg
            .map(|&((g, _), (rank, _))| (g, rank))
            .reduce_by_key(|a, b| a + b)
            .collect()?
            .into_iter()
            .collect();
        let base: HashMap<u32, f64> = sizes
            .value()
            .iter()
            .map(|(g, n)| {
                let dangling = (1.0 - flowed.get(g).copied().unwrap_or(0.0)).max(0.0);
                (*g, (1.0 - damping) / *n as f64 + damping * dangling / *n as f64)
            })
            .collect();
        let base = engine.broadcast(base, map_bytes(sizes.value().len()))?;
        let new_ranks = sums
            .map(move |&((g, v), s)| ((g, v), base.value()[&g] + damping * s))
            .with_record_bytes(rank_bytes);
        let deltas = new_ranks
            .join_into(p, &ranks)
            .map(|&((g, _), (a, b))| (g, (a - b).abs()))
            .reduce_by_key(|a, b| a.max(*b))
            .collect()?;
        let last = iteration == params.max_iterations;
        let done: HashSet<u32> =
            deltas.iter().filter(|(_, d)| last || *d <= epsilon).map(|(g, _)| *g).collect();
        let all_done = done.len() == deltas.len();
        let done = engine.broadcast(done.clone(), map_bytes(done.len()))?;
        let retiring = {
            let done = done.clone();
            new_ranks.filter(move |((g, _), _)| done.value().contains(g))
        };
        finished = Some(match finished {
            None => retiring,
            Some(f) => f.union(&retiring),
        });
        if all_done {
            break;
        }
        let (d1, d2) = (done.clone(), done);
        ranks = new_ranks.filter(move |((g, _), _)| !d1.value().contains(g));
        live = live.filter(move |(g, _)| !d2.value().contains(g));
    }
    let mut out: GroupRanks = match finished {
        None => Vec::new(),
        Some(f) => f.collect()?.into_iter().map(|((g, v), r)| (g, (v, r))).collect(),
    };
    out.sort_by_key(|a| (a.0, a.1 .0));
    Ok(out)
}
