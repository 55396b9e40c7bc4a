//! K-means with many initial centroid configurations (paper Sec. 2.3,
//! Fig. 1): the hyperparameter-optimization task. The configurations are the
//! outer level; each model training is the inner level; the shared point set
//! is a closure of the lifted UDF, reached through the half-lifted
//! `mapWithClosure` cross product (Sec. 8.3).

use std::sync::Arc;

use matryoshka_engine::{Bag, Engine, Result, WorkEstimate};

use matryoshka_core::{lifted_while, InnerScalar, LiftingContext, MatryoshkaConfig};
use matryoshka_datagen::Point;

use crate::seq::{self, nearest_centroid, KmeansParams};

/// One configuration's result: final centroids and clustering cost.
pub type KmeansResult = Vec<(u32, (Vec<Point>, f64))>;

fn sort(mut v: KmeansResult) -> KmeansResult {
    v.sort_by_key(|(id, _)| *id);
    v
}

/// Modeled size of one per-(config, cluster) partial sum record: the
/// cardinality of these partials is structural (configs x K), not
/// data-scaled.
const CENTROID_PARTIAL_BYTES: f64 = 128.0;

/// Fold one partial sum `(point, count)` into another in place.
pub(crate) fn add_partial((sum, n): &mut (Point, u64), (p, m): &(Point, u64)) {
    for (x, y) in sum.iter_mut().zip(p) {
        *x += y;
    }
    *n += m;
}

fn max_shift(new: &[Point], old: &[Point]) -> f64 {
    new.iter()
        .zip(old)
        .map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

/// Matryoshka: every configuration trains in parallel *and* every training
/// step is parallel over the points — one lifted loop, configurations
/// retiring as they converge.
pub fn matryoshka(
    engine: &Engine,
    configs: &Bag<(u32, Vec<Point>)>,
    points: &Bag<Point>,
    params: &KmeansParams,
    config: MatryoshkaConfig,
) -> Result<KmeansResult> {
    // Tag projection drops the (potentially heavy) centroid payload.
    let tags = configs.map(|(id, _)| *id).with_record_bytes(8.0);
    let ctx = LiftingContext::counted(engine.clone(), tags, config)?;
    let centers0 = InnerScalar::from_repr(configs.clone(), ctx);
    // Materialize the shared points once so the optimizer's size estimator
    // (Spark SizeEstimator stand-in) can weigh the cross-product sides.
    points.count()?;
    let epsilon = params.epsilon;
    let points_for_loop = points.clone();
    let final_centers = lifted_while(
        &centers0,
        move |centers: &InnerScalar<u32, Vec<Point>>| {
            // Half-lifted mapWithClosure (Sec. 8.3): every point meets every
            // configuration's centroids.
            let assigns = centers.cross_with_bag(&points_for_loop, |_t, cs, p| {
                Some((nearest_centroid(cs, p), (p.clone(), 1u64)))
            })?;
            let sums = assigns.reduce_by_key_partials(CENTROID_PARTIAL_BYTES, add_partial);
            let moved = sums.map(|(c, (sum, count))| {
                (*c, sum.iter().map(|s| s / *count as f64).collect::<Point>())
            });
            let gathered = moved.collect_per_tag(); // per-config centroid updates
            let new_centers = gathered.zip_with(centers, |updates, old| {
                let mut cs = old.clone();
                for (i, p) in updates {
                    cs[*i] = p.clone();
                }
                cs
            });
            let shift = new_centers.zip_with(centers, |a, b| max_shift(a, b));
            let cond = shift.map(move |s| *s > epsilon);
            Ok((new_centers, cond))
        },
        Some(params.max_iterations),
    )?;
    // Clustering cost per configuration (one more half-lifted cross).
    let costs = final_centers
        .cross_with_bag(points, |_t, cs, p| {
            let c = nearest_centroid(cs, p);
            Some(cs[c].iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>())
        })?
        .fold(0.0f64, |a, x| a + x, |a, b| *a += b);
    let out = final_centers.zip_with(&costs, |cs, cost| (cs.clone(), *cost));
    Ok(sort(out.collect()?))
}

/// Outer-parallel workaround: one task per configuration, each running the
/// *sequential* Lloyd's algorithm over the full point set. Parallelism is
/// capped at the configuration count (the left side of the paper's Fig. 1).
pub fn outer_parallel(
    engine: &Engine,
    configs: &[(u32, Vec<Point>)],
    points: Arc<Vec<Point>>,
    point_bytes: f64,
    params: &KmeansParams,
) -> Result<KmeansResult> {
    let p = *params;
    // One record per configuration; the points are reached as a closure and
    // streamed per iteration (working set stays small, compute does not).
    let bag =
        engine.parallelize(configs.to_vec(), configs.len().max(1)).with_record_bytes(point_bytes);
    let results = bag.map_with_work(move |(id, init)| {
        let r = seq::kmeans(&points, init, &p);
        ((*id, r.value), WorkEstimate { cost_units: r.work, mem_bytes: (init.len() * 64) as u64 })
    });
    Ok(sort(results.collect()?))
}

/// Inner-parallel workaround: the driver loops over configurations and runs
/// the flat-parallel K-means per configuration — one job per iteration per
/// configuration (the right side of the paper's Fig. 1).
pub fn inner_parallel(
    engine: &Engine,
    configs: &[(u32, Vec<Point>)],
    points: &Bag<Point>,
    params: &KmeansParams,
) -> Result<KmeansResult> {
    let mut out = Vec::new();
    for (id, init) in configs {
        let (cs, cost) = crate::flat::kmeans(engine, points, init, params)?;
        out.push((*id, (cs, cost)));
    }
    Ok(sort(out))
}

/// Sequential oracle.
pub fn reference(
    configs: &[(u32, Vec<Point>)],
    points: &[Point],
    params: &KmeansParams,
) -> KmeansResult {
    sort(configs.iter().map(|(id, init)| (*id, seq::kmeans(points, init, params).value)).collect())
}

// ---------------------------------------------------------------------------
// Grouped variant: every configuration trains on its *own sample* (the
// sampling-based hyperparameter tuning of Sec. 2.3: "a large number of small
// samples and a small number of large samples"). This is the shape of the
// weak-scaling experiments (Fig. 1, Fig. 3), where the per-configuration
// input size shrinks as the configuration count grows.
// ---------------------------------------------------------------------------

/// Matryoshka on per-configuration samples: the samples become a NestedBag,
/// the centroids an InnerScalar, and the assignment step a `mapWithClosure`
/// tag join (Sec. 5.1) instead of the shared-points cross product.
pub fn matryoshka_grouped(
    engine: &Engine,
    configs: &Bag<(u32, Vec<Point>)>,
    samples: &Bag<(u32, Point)>,
    params: &KmeansParams,
    config: MatryoshkaConfig,
) -> Result<KmeansResult> {
    let nested = matryoshka_core::group_by_key_into_nested_bag(engine, samples, config)?;
    let epsilon = params.epsilon;
    let out = nested.map_with_lifted_udf(|_id, points| -> Result<_> {
        let centers0 = InnerScalar::from_repr(configs.clone(), points.ctx().clone());
        let points = points.clone();
        let final_centers = lifted_while(
            &centers0,
            move |centers: &InnerScalar<u32, Vec<Point>>| {
                let assigns = points
                    .map_with_scalar(centers, |p, cs| (nearest_centroid(cs, p), (p.clone(), 1u64)));
                let sums = assigns.reduce_by_key_partials(CENTROID_PARTIAL_BYTES, add_partial);
                let moved = sums.map(|(c, (sum, count))| {
                    (*c, sum.iter().map(|s| s / *count as f64).collect::<Point>())
                });
                let gathered = moved.collect_per_tag();
                let new_centers = gathered.zip_with(centers, |updates, old| {
                    let mut cs = old.clone();
                    for (i, p) in updates {
                        cs[*i] = p.clone();
                    }
                    cs
                });
                let shift = new_centers.zip_with(centers, |a, b| max_shift(a, b));
                let cond = shift.map(move |s| *s > epsilon);
                Ok((new_centers, cond))
            },
            Some(params.max_iterations),
        )?;
        let costs = nested
            .inner()
            .map_with_scalar(&final_centers, |p, cs| {
                let c = nearest_centroid(cs, p);
                cs[c].iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
            })
            .fold(0.0f64, |a, x| a + x, |a, b| *a += b);
        Ok(final_centers.zip_with(&costs, |cs, cost| (cs.clone(), *cost)))
    })?;
    Ok(sort(out.collect()?))
}

/// Outer-parallel on per-configuration samples: `groupByKey` the samples,
/// one sequential Lloyd run per configuration.
pub fn outer_parallel_grouped(
    engine: &Engine,
    configs: &[(u32, Vec<Point>)],
    samples: &Bag<(u32, Point)>,
    params: &KmeansParams,
) -> Result<KmeansResult> {
    let record_bytes = samples.record_bytes();
    let factor = engine.config().costs.materialize_factor;
    let p = *params;
    let inits: std::collections::HashMap<u32, Vec<Point>> = configs.iter().cloned().collect();
    let grouped = samples.group_by_key();
    let results = grouped.map_with_work(move |(id, pts)| {
        let r = seq::kmeans(pts, &inits[id], &p);
        let mem = (pts.len() as f64 * record_bytes * factor) as u64;
        ((*id, r.value), WorkEstimate { cost_units: r.work, mem_bytes: mem })
    });
    Ok(sort(results.collect()?))
}

/// Inner-parallel on per-configuration samples: driver loop, one flat
/// K-means per configuration over its own (freshly parallelized) sample.
pub fn inner_parallel_grouped(
    engine: &Engine,
    configs: &[(u32, Vec<Point>)],
    samples: &[(u32, Vec<Point>)],
    params: &KmeansParams,
    record_bytes: f64,
) -> Result<KmeansResult> {
    let inits: std::collections::HashMap<u32, Vec<Point>> = configs.iter().cloned().collect();
    let mut out = Vec::new();
    for (id, pts) in samples {
        let partitions = crate::hdfs_partitions(engine, pts.len() as f64 * record_bytes);
        let bag = engine.parallelize_with_bytes(pts.clone(), partitions, record_bytes);
        let (cs, cost) = crate::flat::kmeans(engine, &bag, &inits[id], params)?;
        out.push((*id, (cs, cost)));
    }
    Ok(sort(out))
}

/// Sequential oracle for the grouped variant.
pub fn reference_grouped(
    configs: &[(u32, Vec<Point>)],
    samples: &[(u32, Vec<Point>)],
    params: &KmeansParams,
) -> KmeansResult {
    let inits: std::collections::HashMap<u32, Vec<Point>> = configs.iter().cloned().collect();
    sort(
        samples.iter().map(|(id, pts)| (*id, seq::kmeans(pts, &inits[id], params).value)).collect(),
    )
}

/// Driver-side split of flat `(config, point)` samples into per-config
/// vectors (inner-parallel's pre-split input).
pub fn split_samples(samples: &[(u32, Point)]) -> Vec<(u32, Vec<Point>)> {
    use std::collections::HashMap;
    let mut by_id: HashMap<u32, Vec<Point>> = HashMap::new();
    for (id, p) in samples {
        by_id.entry(*id).or_default().push(p.clone());
    }
    let mut out: Vec<_> = by_id.into_iter().collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_datagen::{initial_centroid_configs, point_cloud, KmeansSpec};

    fn assert_results_close(a: &KmeansResult, b: &KmeansResult, tol: f64) {
        assert_eq!(a.len(), b.len());
        for ((i1, (c1, cost1)), (i2, (c2, cost2))) in a.iter().zip(b) {
            assert_eq!(i1, i2);
            assert!(
                (cost1 - cost2).abs() / cost1.max(1e-9) < tol,
                "config {i1} cost {cost1} vs {cost2}"
            );
            for (x, y) in c1.iter().zip(c2) {
                for (a, b) in x.iter().zip(y) {
                    assert!((a - b).abs() < tol, "config {i1}: centroid {a} vs {b}");
                }
            }
        }
    }

    fn inputs(n_configs: u32) -> (Vec<Point>, Vec<(u32, Vec<Point>)>) {
        let spec = KmeansSpec::small();
        (point_cloud(&spec), initial_centroid_configs(&spec, n_configs))
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let e = Engine::local();
        let (points, configs) = inputs(3);
        let params = KmeansParams::default();
        let oracle = reference(&configs, &points, &params);

        let config_bag = e.parallelize(configs.clone(), 2);
        let point_bag = e.parallelize(points.clone(), 4);
        let m = matryoshka(&e, &config_bag, &point_bag, &params, MatryoshkaConfig::optimized())
            .unwrap();
        assert_results_close(&m, &oracle, 1e-6);

        let o = outer_parallel(&e, &configs, Arc::new(points.clone()), 16.0, &params).unwrap();
        assert_results_close(&o, &oracle, 1e-12);

        let i = inner_parallel(&e, &configs, &point_bag, &params).unwrap();
        assert_results_close(&i, &oracle, 1e-6);
    }

    #[test]
    fn matryoshka_jobs_do_not_scale_with_config_count() {
        let count_jobs = |n: u32| {
            let e = Engine::local();
            let (points, configs) = inputs(n);
            let config_bag = e.parallelize(configs, 2);
            let point_bag = e.parallelize(points, 4);
            matryoshka(
                &e,
                &config_bag,
                &point_bag,
                &KmeansParams::default(),
                MatryoshkaConfig::optimized(),
            )
            .unwrap();
            e.stats().jobs
        };
        let j1 = count_jobs(1);
        let j8 = count_jobs(8);
        // More configs can add iterations (slowest config dominates), but
        // not a per-config job multiple.
        assert!(j8 < j1 * 4, "jobs: {j1} for 1 config vs {j8} for 8");
    }

    #[test]
    fn inner_parallel_jobs_scale_with_config_count() {
        let e = Engine::local();
        let (points, configs) = inputs(6);
        let point_bag = e.parallelize(points, 4);
        let s0 = e.stats();
        inner_parallel(&e, &configs, &point_bag, &KmeansParams::default()).unwrap();
        let d = e.stats().since(&s0);
        assert!(d.jobs >= 6 * 2, "at least ~2 jobs per config, got {}", d.jobs);
    }

    #[test]
    fn grouped_strategies_agree_with_reference() {
        let e = Engine::local();
        let spec = matryoshka_datagen::KmeansSpec::small();
        let configs = initial_centroid_configs(&spec, 4);
        // Each config gets its own sample slice of the cloud.
        let cloud = point_cloud(&spec);
        let samples_flat: Vec<(u32, Point)> =
            cloud.iter().enumerate().map(|(i, p)| ((i % 4) as u32, p.clone())).collect();
        let params = KmeansParams::default();
        let samples_split = split_samples(&samples_flat);
        let oracle = reference_grouped(&configs, &samples_split, &params);

        let config_bag = e.parallelize(configs.clone(), 2);
        let sample_bag = e.parallelize(samples_flat.clone(), 4);
        let m = matryoshka_grouped(
            &e,
            &config_bag,
            &sample_bag,
            &params,
            MatryoshkaConfig::optimized(),
        )
        .unwrap();
        assert_results_close(&m, &oracle, 1e-6);

        let o = outer_parallel_grouped(&e, &configs, &sample_bag, &params).unwrap();
        assert_results_close(&o, &oracle, 1e-12);

        let i = inner_parallel_grouped(&e, &configs, &samples_split, &params, 16.0).unwrap();
        assert_results_close(&i, &oracle, 1e-6);
    }

    #[test]
    fn forced_cross_strategies_agree() {
        let e = Engine::local();
        let (points, configs) = inputs(2);
        let params = KmeansParams::default();
        let oracle = reference(&configs, &points, &params);
        for cross in [
            matryoshka_core::CrossChoice::ForceBroadcastScalar,
            matryoshka_core::CrossChoice::ForceBroadcastBag,
        ] {
            let cfg = MatryoshkaConfig { cross, ..MatryoshkaConfig::optimized() };
            let config_bag = e.parallelize(configs.clone(), 2);
            let point_bag = e.parallelize(points.clone(), 4);
            let m = matryoshka(&e, &config_bag, &point_bag, &params, cfg).unwrap();
            assert_results_close(&m, &oracle, 1e-6);
        }
    }
}
