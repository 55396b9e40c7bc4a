//! The names, units and homes of every metric the benchmark reports.
//!
//! `BENCHMARK.json` lists the same names (`check.sh` compares the two). A
//! metric is measured on the workloads in its `on` list and reported as 0
//! elsewhere, because the driver expects every run of a mode to carry the
//! same set of names.

/// One metric definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads that measure it; the others report 0.
    pub on: &'static [&'static str],
}

pub const WORKLOADS: &[&str] =
    &["bounce_rate", "pagerank", "kmeans", "avg_distances", "mat_bagops", "mat_udf", "service_tcp"];

const ALL: &[&str] = WORKLOADS;
const TYPED: &[&str] = &["bounce_rate", "pagerank", "kmeans", "avg_distances"];
const BATCH: &[&str] =
    &["bounce_rate", "pagerank", "kmeans", "avg_distances", "mat_bagops", "mat_udf"];
const NESTED: &[&str] = &["bounce_rate", "pagerank", "kmeans"];
const FLAT: &[&str] = &["bounce_rate", "pagerank"];
const BOUNCE: &[&str] = &["bounce_rate"];
const PAGERANK: &[&str] = &["pagerank"];
const AVG: &[&str] = &["avg_distances"];
const BAGOPS: &[&str] = &["mat_bagops"];
const UDF: &[&str] = &["mat_udf"];
const SERVICE: &[&str] = &["service_tcp"];

const fn def(name: &'static str, unit: &'static str, on: &'static [&'static str]) -> Def {
    Def { name, unit, on }
}

/// The untraced run: what a user of the system sees. Bounds live in
/// `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[def("wall_ms_min", "ms", ALL), def("setup_s", "s", ALL)];

/// Also measured by the untraced run, printed and kept in the results files,
/// but not in `BENCHMARK.json`. The driver wants every end-to-end metric from
/// every workload, never 0, and steady from run to run on a shared machine;
/// these are exact, or zero, or live on some workloads only, or follow the
/// machine's noise (README, "What the contract changed").
pub const UNTRACED_EXTRA: &[Def] = &[
    def("wall_ms_p50", "ms", ALL),
    def("ops_per_s", "1/s", ALL),
    def("cpu_ms_per_op", "ms", ALL),
    def("peak_rss_mb", "MB", ALL),
    def("sim_s", "sim_s", ALL),
    def("fail_ratio", "ratio", ALL),
    def("req_ms_p95", "ms", SERVICE),
    def("reject_ms_p50", "ms", SERVICE),
];

/// The traced run. Unit `count` and `sim_s` mean "repeats exactly for a
/// seed": `compare.sh` demands equality for them.
pub const PER_LAYER: &[Def] = &[
    def("datagen.gen_ms", "ms", TYPED),
    def("tasks.seq_ref_ms", "ms", TYPED),
    def("engine.load_ms", "ms", TYPED),
    def("engine.flat_ms_p50", "ms", FLAT),
    def("engine.reduce_by_key_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.distinct_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.join_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.group_by_key_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.scatter_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.narrow_chain_ns_per_rec", "ns/rec", BOUNCE),
    def("engine.value.reduce_by_key_ns_per_rec", "ns/rec", BAGOPS),
    def("engine.value.distinct_ns_per_rec", "ns/rec", BAGOPS),
    def("engine.value.join_ns_per_rec", "ns/rec", BAGOPS),
    def("engine.task_overhead_us", "us/task", AVG),
    def("engine.job_overhead_us", "us/job", AVG),
    def("engine.pool.dispatch_us", "us/call", AVG),
    def("engine.jobs", "count", BATCH),
    def("engine.stages", "count", BATCH),
    def("engine.tasks", "count", BATCH),
    def("engine.records", "count", BATCH),
    def("engine.shuffle_bytes", "count", BATCH),
    def("engine.stages_fused", "count", BATCH),
    def("engine.sim_s", "sim_s", ALL),
    def("engine.host_us_per_task", "us", BATCH),
    def("engine.host_ns_per_record", "ns", BATCH),
    def("engine.trace.overhead_ratio", "ratio", BATCH),
    def("engine.trace.events", "count", BATCH),
    def("engine.trace.export_ms", "ms", BATCH),
    def("core.lift_overhead_ratio", "ratio", FLAT),
    def("core.nest_ms", "ms", NESTED),
    def("core.while_us_per_iter", "us/iter", PAGERANK),
    def("core.decisions", "count", BATCH),
    def("core.loop_iterations", "count", BATCH),
    def("ir.syntax_us", "us", BAGOPS),
    def("ir.analyze_us", "us", BAGOPS),
    def("ir.parse_us", "us", BAGOPS),
    def("ir.plan_us", "us", BAGOPS),
    def("ir.prepare_us_per_kb", "us/KB", BAGOPS),
    def("ir.rewrites_applied", "count", BAGOPS),
    def("ir.compile_us", "us", UDF),
    def("ir.udf_ns_per_eval", "ns/eval", UDF),
    def("ir.lower_ms.bounce_rate", "ms", BAGOPS),
    def("ir.lower_ms.half_lifted_closure", "ms", BAGOPS),
    def("ir.lower_ms.per_group_loop", "ms", BAGOPS),
    def("ir.lower_ms.join_enrichment", "ms", BAGOPS),
    def("ir.lower_ms.union_distinct", "ms", BAGOPS),
    def("ir.lower_ms.visit_counts", "ms", BAGOPS),
    def("ir.lower_ms.lifted_if", "ms", BAGOPS),
    def("ir.lower_ms.invariant_loop", "ms", BAGOPS),
    def("ir.value_overhead_ratio", "ratio", BAGOPS),
    def("service.req_ms_p95", "ms", SERVICE),
    def("service.reject_ms_p50", "ms", SERVICE),
    def("service.submit_ms_p50", "ms", SERVICE),
    def("service.wait_ms_p50", "ms", SERVICE),
    def("service.inproc_ms_p50", "ms", SERVICE),
    def("service.wire_overhead_ms", "ms", SERVICE),
    def("service.ping_ms_p50", "ms", SERVICE),
    def("service.connect_ms_p50", "ms", SERVICE),
    def("service.prepare_us", "us", SERVICE),
    def("service.dataset_us", "us", SERVICE),
    def("service.run_ms_p50", "ms", SERVICE),
    def("service.rss_kb_per_kreq", "KB/kreq", SERVICE),
    def("service.jobs_completed", "n", SERVICE),
    def("service.jobs_rejected", "n", SERVICE),
];

/// Look a metric up in the tables of one mode.
pub fn find(trace: bool, name: &str) -> Option<&'static Def> {
    let tables: &[&[Def]] = if trace { &[PER_LAYER] } else { &[END_TO_END, UNTRACED_EXTRA] };
    tables.iter().flat_map(|t| t.iter()).find(|d| d.name == name)
}
