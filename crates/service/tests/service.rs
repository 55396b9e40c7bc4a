//! Integration tests for the multi-tenant job service: determinism,
//! golden-pin parity, fairness, cancellation/deadline paths, and
//! admission control.

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::sim::SimTime;
use matryoshka_engine::{ClusterConfig, Engine};
use matryoshka_ir::{prepare_program, Dialect, Lowering, RtVal};
use matryoshka_service::datasets::source_bag;
use matryoshka_service::{
    JobOutcome, JobService, JobSpec, JobStatus, PoolConfig, SchedulerConfig, SchedulingPolicy,
};

/// SplitMix64, for seeded job-cost variation in the property tests.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A native job with a simulated cost that scales with `n`.
fn costed(n: u64) -> JobSpec {
    JobSpec::native(format!("cost-{n}"), move |e: &Engine| {
        let records = e.generate(n, 8, |i| (i % 97, i)).count()?;
        Ok(format!("{records} records"))
    })
}

/// The golden_sim k-means step, verbatim (the direct-engine pin is
/// `sim_nanos == 313_271_737`).
fn kmeans_step(e: &Engine) {
    let points = e.generate(2_000, 8, |i| ((i % 100) as f64, ((i * 7) % 100) as f64));
    let centroids = [(10.0f64, 10.0f64), (50.0, 50.0), (90.0, 10.0), (25.0, 75.0)];
    let assigned = points.map(move |&(x, y)| {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (ci, &(cx, cy)) in centroids.iter().enumerate() {
            let d = (x - cx) * (x - cx) + (y - cy) * (y - cy);
            if d < best_d {
                best_d = d;
                best = ci as u32;
            }
        }
        (best, (x, y, 1u64))
    });
    let sums = assigned.reduce_by_key(|a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    let out = sums.collect().unwrap();
    assert_eq!(out.len(), 4, "every centroid attracts some points");
}

fn fair_service(total_slots: usize, queue_capacity: usize, seed: u64) -> JobService {
    let scheduler = SchedulerConfig {
        policy: SchedulingPolicy::FairShare,
        pools: vec![PoolConfig::new("batch", 1), PoolConfig::new("interactive", 3)],
        queue_capacity,
        total_slots,
        default_slots: 1,
    };
    JobService::with_scheduler(
        ClusterConfig::local_test(),
        MatryoshkaConfig::default(),
        scheduler,
        seed,
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

/// One full service run with concurrent jobs across two pools; returns
/// everything observable.
fn deterministic_run() -> (Vec<String>, Vec<String>, String) {
    let svc = fair_service(2, 64, 42);
    let ids: Vec<_> = [
        JobSpec::program("visit_counts", PROGRAM_VISIT_COUNTS).in_pool("batch"),
        JobSpec::program("union_distinct", PROGRAM_UNION_DISTINCT).in_pool("interactive"),
        costed(4_000).in_pool("interactive"),
        costed(1_000).in_pool("batch"),
    ]
    .into_iter()
    .map(|spec| svc.submit(spec).unwrap())
    .collect();
    svc.run_until_idle();
    let reports =
        ids.iter().map(|id| format!("{:?}", svc.report(*id).expect("job finished"))).collect();
    let events = svc.events().iter().map(|e| format!("{e:?}")).collect();
    (reports, events, format!("{:?}", svc.stats()))
}

const PROGRAM_VISIT_COUNTS: &str = "map(groupByKey(source(visits)), g => (g.0, count(g.1)))";
const PROGRAM_UNION_DISTINCT: &str = "count(distinct(union(source(xs), source(ys))))";

#[test]
fn concurrent_jobs_are_bit_identical_across_runs() {
    let a = deterministic_run();
    let b = deterministic_run();
    assert_eq!(a.0, b.0, "per-job reports (sim_nanos, stats, times) must match exactly");
    assert_eq!(a.1, b.1, "service event logs must match exactly");
    assert_eq!(a.2, b.2, "service counters must match exactly");
}

#[test]
fn service_job_matches_direct_engine_golden_pin() {
    // Direct engine run (what golden_sim pins).
    let direct = Engine::new(ClusterConfig::local_test());
    kmeans_step(&direct);
    assert_eq!(direct.sim_time().as_nanos(), 313_271_737, "golden_sim kmeans pin");

    // Same program through the service, sharing slots with another job.
    let svc = JobService::local_test(7);
    let noise = svc.submit(costed(2_000)).unwrap();
    let id = svc
        .submit(JobSpec::native("kmeans", |e: &Engine| {
            kmeans_step(e);
            Ok("ok".to_string())
        }))
        .unwrap();
    svc.run_until_idle();
    assert!(matches!(svc.status(noise), Some(JobStatus::Done(_))));
    let report = svc.report(id).unwrap();
    let JobOutcome::Completed { sim_nanos, .. } = report.outcome else {
        panic!("kmeans job should complete: {:?}", report.outcome);
    };
    assert_eq!(sim_nanos, 313_271_737, "service must not perturb per-job simulated cost");
    assert_eq!(report.stats, direct.stats(), "per-job stats equal the direct-engine stats");
}

// ---------------------------------------------------------------------------
// Virtual core-slot accounting
// ---------------------------------------------------------------------------

#[test]
fn slots_are_never_oversubscribed_in_virtual_time() {
    let svc = fair_service(4, 64, 1);
    let ids: Vec<_> = (0..6)
        .map(|i| svc.submit(costed(1_000 + 100 * i).in_pool("batch").with_slots(2)).unwrap())
        .collect();
    svc.run_until_idle();
    let reports: Vec<_> = ids.iter().map(|id| svc.report(*id).unwrap()).collect();
    // At every job start, the sum of slots of overlapping jobs stays within
    // the budget.
    for r in &reports {
        let t = r.started.unwrap().as_nanos();
        let in_flight: usize = reports
            .iter()
            .filter(|o| o.started.is_some_and(|s| s.as_nanos() <= t) && o.finished.as_nanos() > t)
            .map(|o| o.slots)
            .sum();
        assert!(in_flight <= 4, "virtual slot oversubscription: {in_flight} > 4 at t={t}");
    }
    // And with 2-slot jobs under a 4-slot budget, two really do overlap.
    let first_start = reports.iter().map(|r| r.started.unwrap()).min().unwrap();
    let started_at_zero = reports.iter().filter(|r| r.started.unwrap() == first_start).count();
    assert_eq!(started_at_zero, 2, "two 2-slot jobs share the 4-slot budget");
}

// ---------------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------------

#[test]
fn fair_share_favors_the_higher_weight_pool() {
    let svc = fair_service(1, 256, 3);
    let mut batch = Vec::new();
    let mut interactive = Vec::new();
    for _ in 0..12 {
        batch.push(svc.submit(costed(2_000).in_pool("batch")).unwrap());
        interactive.push(svc.submit(costed(2_000).in_pool("interactive")).unwrap());
    }
    svc.run_until_idle();
    let mean_wait = |ids: &[u64]| -> f64 {
        let total: u64 = ids.iter().map(|id| svc.report(*id).unwrap().queue_wait.as_nanos()).sum();
        total as f64 / ids.len() as f64
    };
    let (b, i) = (mean_wait(&batch), mean_wait(&interactive));
    assert!(
        i < b,
        "weight-3 pool should wait less than weight-1 pool (interactive {i} vs batch {b})"
    );
}

/// Property: under fair share, every start picks a pool whose
/// weight-normalized consumption is minimal among pools that had queued
/// work — across seeds and varying job costs.
#[test]
fn fair_share_start_order_is_weight_normalized_greedy() {
    for seed in [1u64, 2, 3] {
        let svc = fair_service(1, 256, seed);
        let weights = [1u128, 3u128];
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let pool = if i % 2 == 0 { "batch" } else { "interactive" };
            let n = 500 + mix(seed ^ i) % 3_000;
            ids.push((svc.submit(costed(n).in_pool(pool)).unwrap(), (i % 2) as usize));
        }
        svc.run_until_idle();
        let reports: Vec<_> =
            ids.iter().map(|(id, pool)| (svc.report(*id).unwrap(), *pool)).collect();
        let mut starts: Vec<(u64, usize)> =
            reports.iter().map(|(r, pool)| (r.started.unwrap().as_nanos(), *pool)).collect();
        starts.sort();
        for &(t, picked) in &starts {
            // Consumption charged on finish: sum slots*sim_nanos of jobs done
            // by t.
            let consumed = |pool: usize| -> u128 {
                reports
                    .iter()
                    .filter(|(r, p)| *p == pool && r.finished.as_nanos() <= t)
                    .map(|(r, _)| {
                        r.slots as u128 * (r.finished - r.started.unwrap()).as_nanos() as u128
                    })
                    .sum()
            };
            let other = 1 - picked;
            // Did the other pool have a queued candidate at t?
            let other_waiting =
                reports.iter().any(|(r, p)| *p == other && r.started.unwrap().as_nanos() > t);
            if other_waiting {
                assert!(
                    consumed(picked) * weights[other] <= consumed(other) * weights[picked],
                    "seed {seed}: start at t={t} picked pool {picked} although pool \
                     {other} was more underserved"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines
// ---------------------------------------------------------------------------

#[test]
fn queued_jobs_cancel_immediately() {
    let svc = JobService::local_test(5);
    let id = svc.submit(costed(1_000)).unwrap();
    assert_eq!(svc.status(id), Some(JobStatus::Queued));
    assert!(svc.cancel(id));
    let report = svc.report(id).unwrap();
    assert_eq!(report.started, None, "never started");
    assert!(matches!(report.outcome, JobOutcome::Cancelled { ref reason }
        if reason == "cancelled by client"));
    assert!(!svc.cancel(id), "already done");
    svc.run_until_idle();
    assert_eq!(svc.stats().jobs_cancelled, 1);
    assert_eq!(svc.stats().jobs_completed, 0);
}

#[test]
fn queued_deadline_expires_before_start() {
    // One slot; a long job ahead of a short-deadline job.
    let scheduler = SchedulerConfig { total_slots: 1, ..SchedulerConfig::default() };
    let svc = JobService::with_scheduler(
        ClusterConfig::local_test(),
        MatryoshkaConfig::default(),
        scheduler,
        5,
    )
    .unwrap();
    let long = svc.submit(costed(50_000)).unwrap();
    let d = SimTime::from_nanos(10);
    let doomed = svc.submit(costed(1_000).with_deadline(d)).unwrap();
    svc.run_until_idle();
    assert!(matches!(svc.status(long), Some(JobStatus::Done(JobOutcome::Completed { .. }))));
    let report = svc.report(doomed).unwrap();
    assert_eq!(report.started, None);
    assert_eq!(report.finished, d, "cancelled exactly at its virtual deadline");
    assert!(matches!(report.outcome, JobOutcome::Cancelled { ref reason }
        if reason.contains("deadline exceeded while queued")));
}

#[test]
fn running_jobs_abort_on_their_simulated_deadline() {
    let svc = JobService::local_test(5);
    let id = svc.submit(costed(100_000).with_deadline(SimTime::from_nanos(1_000))).unwrap();
    svc.run_until_idle();
    let report = svc.report(id).unwrap();
    assert!(report.started.is_some(), "the job did start");
    assert!(
        matches!(report.outcome, JobOutcome::Cancelled { ref reason }
        if reason.contains("deadline exceeded while running")),
        "{:?}",
        report.outcome
    );
    assert_eq!(svc.stats().jobs_cancelled, 1);
}

#[test]
fn running_jobs_cancel_cooperatively() {
    let svc = JobService::local_test(5);
    // The job cancels its own engine mid-flight — same code path a
    // concurrent `service.cancel()` takes through the engines map.
    let id = svc
        .submit(JobSpec::native("self-cancel", |e: &Engine| {
            e.generate(1_000, 8, |i| i).count()?;
            e.request_cancel();
            e.generate(1_000, 8, |i| i).count()?;
            Ok("unreachable".to_string())
        }))
        .unwrap();
    svc.run_until_idle();
    assert!(matches!(svc.status(id), Some(JobStatus::Done(JobOutcome::Cancelled { .. }))));
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn full_queue_rejects_with_reason() {
    let scheduler = SchedulerConfig { queue_capacity: 1, ..SchedulerConfig::default() };
    let svc = JobService::with_scheduler(
        ClusterConfig::local_test(),
        MatryoshkaConfig::default(),
        scheduler,
        5,
    )
    .unwrap();
    svc.submit(costed(1_000)).unwrap();
    let rej = svc.submit(costed(1_000)).unwrap_err();
    assert!(rej.reason.contains("queue full"), "{}", rej.reason);
    assert_eq!(svc.status(rej.id), None, "rejected jobs leave no record");
    svc.run_until_idle();
    assert_eq!(svc.stats().jobs_rejected, 1);
    assert_eq!(svc.stats().jobs_completed, 1);
}

#[test]
fn unknown_pool_rejects() {
    let svc = JobService::local_test(5);
    let rej = svc.submit(costed(1_000).in_pool("nope")).unwrap_err();
    assert!(rej.reason.contains("unknown pool"), "{}", rej.reason);
}

#[test]
fn analyzer_errors_reject_before_admission() {
    let svc = JobService::local_test(5);
    // `y` is unbound: MAT001 from the analyzer, surfaced at submit time.
    let rej = svc.submit(JobSpec::program("bad", "map(source(xs), v => y)")).unwrap_err();
    assert!(
        rej.diagnostics.iter().any(|d| d.contains("MAT001")),
        "diagnostics should carry the MAT code: {:?}",
        rej.diagnostics
    );
    assert_eq!(svc.stats().jobs_rejected, 1);
    assert!(svc.is_idle(), "nothing was admitted");
}

#[test]
fn a_udf_that_fails_on_a_record_fails_its_job_alone() {
    let svc = JobService::local_test(5);
    // Admitted: the analyzer does not know the width of `xs`'s records.
    let bad = svc.submit(JobSpec::program("past_the_tuple", "map(source(xs), v => v.5)")).unwrap();
    let after = svc.submit(JobSpec::program("after", "count(source(xs))")).unwrap();
    svc.run_until_idle();
    let Some(JobOutcome::Failed { error, .. }) = svc.wait(bad) else {
        panic!("the job should fail: {:?}", svc.wait(bad));
    };
    assert!(error.contains("map UDF failed"), "{error}");
    assert!(error.contains("tuple index 5 out of bounds"), "{error}");
    assert!(matches!(svc.wait(after), Some(JobOutcome::Completed { .. })), "the driver went on");
}

// ---------------------------------------------------------------------------
// Plan rewrites
// ---------------------------------------------------------------------------

#[test]
fn served_programs_go_through_the_plan_rewrites() {
    let src = include_str!("../../../examples/programs/invariant_loop.mat");
    let svc =
        JobService::new(ClusterConfig::local_test(), MatryoshkaConfig::default(), 11).unwrap();
    let id = svc.submit(JobSpec::program("invariant_loop", src)).unwrap();
    svc.run_until_idle();
    let report = svc.report(id).unwrap();
    let JobOutcome::Completed { result, .. } = &report.outcome else {
        panic!("the job should complete: {:?}", report.outcome);
    };

    // The same program on the same dataset, lowered as written.
    let engine = Engine::new(ClusterConfig::local_test());
    let program = prepare_program(src, Dialect::Matryoshka).unwrap();
    let inputs = [("edges".to_string(), source_bag(&engine, 11, "edges"))].into();
    let verbatim = Lowering::new(engine.clone(), MatryoshkaConfig::default())
        .run_verbatim(&program.expr, &inputs)
        .unwrap();
    let RtVal::Bag(rows) = verbatim else { panic!("expected a bag, got {verbatim:?}") };
    assert_eq!(*result, format!("bag with {} records", rows.count().unwrap()));

    let (served, written) = (report.stats.stages, engine.stats().stages);
    assert!(served < written, "hoisting saves stages: served {served}, verbatim {written}");
    assert!(engine.decisions().iter().all(|d| d.site != "plan_rewrite"));
    // The job's engine log (its lane of the Chrome export) names the hoist.
    assert!(svc.export_chrome_trace().contains("plan_rewrite: MAT093"));
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

#[test]
fn chrome_export_gives_each_job_its_own_lane() {
    let mut cluster = ClusterConfig::local_test();
    cluster.trace_events = true;
    let svc = JobService::new(cluster, MatryoshkaConfig::default(), 5).unwrap();
    let a = svc.submit(costed(1_000)).unwrap();
    let b = svc.submit(costed(2_000)).unwrap();
    svc.run_until_idle();
    let trace = svc.export_chrome_trace();
    assert!(trace.contains("\"job service\""), "service lane metadata");
    assert!(trace.contains(&format!("\"pid\":{}", 2 + a)), "lane for job {a}");
    assert!(trace.contains(&format!("\"pid\":{}", 2 + b)), "lane for job {b}");
    assert!(
        trace.contains(&format!("job {a} [default]"))
            && trace.contains(&format!("job {b} [default]")),
        "started/finished pairs become service-lane slices"
    );
    let json = svc.export_json();
    assert!(json.contains("\"jobs_completed\":2"), "summary counters in JSON export");
}
