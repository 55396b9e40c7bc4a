//! Multi-tenant service sweep (methodology in EXPERIMENTS.md): scheduling
//! policy × offered load on the virtual-time job service, emitted as
//! `BENCH_service.json` by `cargo run --release --bin service_sweep`.
//!
//! A burst of jobs is submitted into two pools (`batch` weight 1,
//! `interactive` weight 3) with virtual inter-arrival gaps swept from 0
//! (everything at once) upward. Each cell measures the virtual makespan
//! and the service counters: completed/cancelled/rejected jobs and total
//! queue wait. The admission queue is sized below the burst, so every cell
//! also exercises backpressure (`jobs_rejected > 0`); the gap-0 column
//! saturates the slots and separates FIFO from weighted fair share in
//! per-pool queue waits. All of it is deterministic — virtual time, seeded
//! job costs — so rows are bit-stable across machines.

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::sim::SimTime;
use matryoshka_engine::ClusterConfig;
use matryoshka_service::{JobService, JobSpec, PoolConfig, SchedulerConfig, SchedulingPolicy};

use crate::harness::{Measurement, Outcome, Row};

/// Jobs offered per cell — deliberately above `QUEUE_CAPACITY` so admission
/// control visibly rejects the burst tail.
const OFFERED_JOBS: u64 = 32;

/// Admission queue bound (jobs beyond this are rejected at submit).
const QUEUE_CAPACITY: usize = 24;

/// Simulated core slots multiplexed across jobs.
const TOTAL_SLOTS: usize = 4;

/// Base record count of a job's generated input.
const BASE_RECORDS: u64 = 4_096;

/// Virtual inter-arrival gaps swept, in milliseconds (x).
const GAPS_MS: &[u64] = &[0, 20, 100];

/// Dataset/cost seed (fixed: the artifact must be reproducible).
const SEED: u64 = 42;

/// SplitMix64 finalizer for per-job cost variation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn service(policy: SchedulingPolicy) -> JobService {
    let scheduler = SchedulerConfig {
        policy,
        pools: vec![PoolConfig::new("batch", 1), PoolConfig::new("interactive", 3)],
        queue_capacity: QUEUE_CAPACITY,
        total_slots: TOTAL_SLOTS,
        default_slots: 1,
    };
    JobService::with_scheduler(
        ClusterConfig::local_test(),
        MatryoshkaConfig::optimized(),
        scheduler,
        SEED,
    )
    .expect("sweep scheduler config is valid")
}

/// One cell: `OFFERED_JOBS` seeded-cost jobs arriving `gap_ms` of virtual
/// time apart, alternating between the two pools, run to completion.
fn run_cell(policy: SchedulingPolicy, gap_ms: u64) -> Measurement {
    let svc = service(policy);
    for i in 0..OFFERED_JOBS {
        let pool = if i % 2 == 0 { "batch" } else { "interactive" };
        let records = BASE_RECORDS / 2 + mix(SEED ^ i) % BASE_RECORDS;
        let spec = JobSpec::native(format!("job-{i}"), move |e| {
            let n = e.generate(records, 8, |r| (r % 97, r)).reduce_by_key(|a, b| a + b).count()?;
            Ok(format!("{n} groups"))
        })
        .in_pool(pool);
        // Burst-tail submissions bounce off the full queue: that is the
        // admission-control column of the artifact, not an error.
        let _ = svc.submit_at(spec, SimTime::from_millis(i * gap_ms));
    }
    svc.run_until_idle();
    Measurement {
        outcome: Outcome::Ok,
        seconds: svc.virtual_time().as_nanos() as f64 / 1e9,
        stats: svc.stats(),
    }
}

fn series_name(policy: SchedulingPolicy) -> &'static str {
    match policy {
        SchedulingPolicy::Fifo => "fifo",
        SchedulingPolicy::FairShare => "fair-1:3",
    }
}

/// The sweep (x = virtual inter-arrival gap in milliseconds). These are the
/// rows of the committed `BENCH_service.json`.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for policy in [SchedulingPolicy::Fifo, SchedulingPolicy::FairShare] {
        for &gap_ms in GAPS_MS {
            rows.push(Row {
                figure: "service/offered-load".into(),
                series: series_name(policy).into(),
                x: gap_ms,
                m: run_cell(policy, gap_ms),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_committed;

    /// `BENCH_service.json` is this sweep's output, and every cell exercises
    /// what the sweep is for: both policies run, admission control rejects
    /// part of every burst while the rest completes, and the all-at-once
    /// burst queues.
    #[test]
    fn bench_service_json_is_this_sweep() {
        let rows = run();
        for series in ["fifo", "fair-1:3"] {
            assert!(rows.iter().any(|r| r.series == series), "missing series {series}");
        }
        for r in &rows {
            let s = &r.m.stats;
            assert!(s.jobs_rejected > 0 && s.jobs_completed > 0, "{} gap {}", r.series, r.x);
        }
        assert!(rows.iter().filter(|r| r.x == 0).all(|r| r.m.stats.queue_wait_nanos > 0));
        assert_committed("BENCH_service.json", "service_sweep", &rows);
    }
}
