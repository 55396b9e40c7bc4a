//! Layer probes: small fixed pieces of work that time one public function of
//! one layer. Each runs under the workload it is predicted to move (README,
//! "How the metrics interact") and nowhere else.

use matryoshka_core::{lifted_while, InnerScalar, LiftingContext, MatryoshkaConfig};
use matryoshka_datagen::SmallRng;
use matryoshka_engine::{pool, Bag, ClusterConfig, Engine};
use matryoshka_ir::Value;

use crate::harness::{median, sample_ms, Args, Report};

/// Median time of `op(base) + count()` over a materialized `base`, in
/// nanoseconds per input record.
fn ns_per_record<T: matryoshka_engine::Data, U: matryoshka_engine::Data>(
    base: &Bag<T>,
    records: usize,
    runs: usize,
    op: impl Fn(&Bag<T>) -> Bag<U>,
) -> f64 {
    let ms = sample_ms(runs, true, || op(base).count().expect("operator probe runs"));
    median(&ms) * 1e6 / records as f64
}

/// The wide and narrow operators `bounce_rate` and `kmeans` lean on, over
/// 2^19 `(u32, u64)` records in 1,200 partitions. The input is materialized
/// before any timer starts.
pub fn typed_operators(args: &Args, rep: &mut Report) {
    let n = args.size(1 << 19, 1 << 12);
    let keys = args.size(4096, 64);
    let runs = args.size(5, 1);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let data: Vec<(u32, u64)> =
        (0..n).map(|_| (rng.gen_range(0..keys) as u32, rng.gen_range(0..1000))).collect();
    let engine = Engine::new(ClusterConfig::paper_small_cluster());
    let p = engine.config().default_parallelism;
    let base = engine.parallelize(data, p);
    base.count().expect("probe input materializes");
    let dimension = engine.parallelize((0..keys as u32).map(|k| (k, k as u64)).collect(), p);
    dimension.count().expect("probe input materializes");

    let mut put = |name: &str, ns: f64| rep.put(&format!("engine.{name}_ns_per_rec"), ns);
    put("reduce_by_key", ns_per_record(&base, n, runs, |b| b.reduce_by_key(|a, b| a + b)));
    put("distinct", ns_per_record(&base, n, runs, |b| b.distinct()));
    put("join", ns_per_record(&base, n, runs, |b| b.join(&dimension)));
    put("group_by_key", ns_per_record(&base, n, runs, |b| b.group_by_key()));
    // One partition more than the input has, so the scatter is never elided.
    put("scatter", ns_per_record(&base, n, runs, |b| b.partition_by_key(p + 1)));
    put(
        "narrow_chain",
        ns_per_record(&base, n, runs, |b| {
            b.map(|&(k, v)| (k, v.wrapping_mul(0x9E37_79B9)))
                .filter(|&(_, v)| v % 5 != 0)
                .map(|&(k, v)| (k, v >> 3))
                .filter(|&(_, v)| v % 3 != 0)
                .map(|&(k, v)| (k, v ^ 0xFF))
                .flat_map(|&(k, v)| if v % 2 == 0 { Some((k, v)) } else { None })
        }),
    );
}

/// The same operators on boxed `Value` records, as the `.mat` path feeds
/// them: 200k `(Long, Long)` tuples in 8 partitions.
pub fn value_operators(args: &Args, rep: &mut Report) {
    let n = args.size(200_000, 2_000);
    let runs = args.size(5, 1);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let long = |x: u64| Value::Long(x as i64);
    let data: Vec<(Value, Value)> =
        (0..n).map(|_| (long(rng.gen_range(0..97)), long(rng.gen_range(0..10_000)))).collect();
    let engine = Engine::new(ClusterConfig::local_test());
    let keyed = engine.parallelize(data, 8);
    keyed.count().expect("probe input materializes");
    let tuples = keyed.map(|(k, v)| Value::tuple(vec![k.clone(), v.clone()]));
    tuples.count().expect("probe input materializes");
    let dimension = engine.parallelize((0..97).map(|k| (long(k), long(k))).collect(), 8);
    dimension.count().expect("probe input materializes");

    let add = |a: &Value, b: &Value| match (a, b) {
        (Value::Long(a), Value::Long(b)) => Value::Long(a + b),
        _ => Value::Unit,
    };
    let mut put = |name: &str, ns: f64| rep.put(&format!("engine.value.{name}_ns_per_rec"), ns);
    put("reduce_by_key", ns_per_record(&keyed, n, runs, |b| b.reduce_by_key(add)));
    put("distinct", ns_per_record(&tuples, n, runs, |b| b.distinct()));
    put("join", ns_per_record(&keyed, n, runs, |b| b.join(&dimension)));
}

/// Fixed host costs per task, per job and per pool call: what
/// `avg_distances` (66k tiny tasks) is made of.
pub fn overheads(args: &Args, rep: &mut Report) {
    let engine = Engine::new(ClusterConfig::paper_small_cluster());
    let tasks = engine.config().default_parallelism;
    let ms = sample_ms(args.size(30, 2), true, || {
        engine.generate(tasks as u64, tasks, |i| i).map(|x| x + 1).count().expect("probe runs")
    });
    rep.put("engine.task_overhead_us", median(&ms) * 1e3 / tasks as f64);

    let local = Engine::new(ClusterConfig::local_test());
    let tiny = local.parallelize((0..8u64).collect(), 8);
    tiny.count().expect("probe input materializes");
    let ms = sample_ms(args.size(1000, 20), true, || tiny.count().expect("probe runs"));
    rep.put("engine.job_overhead_us", median(&ms) * 1e3);

    let width = 4 * pool::host_parallelism();
    let ms = sample_ms(args.size(10_000, 100), true, || pool::parallel_map_range(width, |i| i));
    rep.put("engine.pool.dispatch_us", median(&ms) * 1e3);
}

/// A lifted countdown over 1,024 tags whose loops end at different trips, 64
/// lifted iterations in all: host time per lifted iteration.
pub fn lifted_while_iteration(args: &Args, rep: &mut Report) {
    let tags = args.size(1024u64, 64);
    let trips = args.size(64i64, 8);
    let ms = sample_ms(args.size(3, 1), true, || {
        let engine = Engine::new(ClusterConfig::paper_small_cluster());
        let ctx = LiftingContext::new(
            engine.clone(),
            engine.parallelize((0..tags).collect(), 4),
            tags,
            MatryoshkaConfig::optimized(),
        );
        let start = (0..tags).map(|t| (t, 1 + (t as i64 % trips))).collect();
        let init = InnerScalar::from_repr(engine.parallelize(start, 4), ctx);
        let body = |s: &InnerScalar<u64, i64>| {
            let next = s.map(|x| x - 1);
            let cond = next.map(|x| *x > 0);
            Ok((next, cond))
        };
        lifted_while(&init, body, None).and_then(|s| s.collect()).expect("lifted loop runs")
    });
    rep.put("core.while_us_per_iter", median(&ms) * 1e3 / trips as f64);
}
