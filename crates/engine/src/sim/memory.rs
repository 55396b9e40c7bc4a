//! Simulated memory model: spilling and out-of-memory decisions.
//!
//! A stage whose concurrently resident tasks need more working-set memory
//! than a worker has will, on a real engine, first spill to disk and
//! eventually fail with an OutOfMemoryError. Both behaviours matter for the
//! paper: Matryoshka *spills* on Bounce Rate at low group counts (Sec. 9.4)
//! while outer-parallel and DIQL *fail* outright on large groups
//! (Sec. 9.4, 9.5).

use crate::config::ClusterConfig;
use crate::error::{EngineError, Result};
use crate::sim::SimTime;

/// Outcome of a memory check for one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryOutcome {
    /// Bytes spilled per worker (0 when everything fits).
    pub spilled_bytes: u64,
    /// Extra simulated time spent on spill I/O (write + re-read).
    pub spill_time: SimTime,
    /// Peak bytes concurrently resident on the heaviest machine (0 only for
    /// stages with no non-empty task).
    pub peak_bytes: u64,
}

impl MemoryOutcome {
    /// No memory pressure (and no resident working set at all).
    pub const FITS: MemoryOutcome =
        MemoryOutcome { spilled_bytes: 0, spill_time: SimTime::ZERO, peak_bytes: 0 };
}

/// Check whether a stage with the given per-task working sets fits in worker
/// memory; decide to spill or fail.
///
/// The model: the heaviest machine concurrently runs
/// `min(cores_per_machine, ceil(nonempty_tasks / machines))` tasks, and in
/// the worst case those are the heaviest tasks of the stage — so its peak
/// demand is the sum of the top-`concurrency` working sets. (This makes one
/// giant skewed task expensive without pretending every slot holds a copy of
/// it.) Demand beyond `spill_fraction * memory` spills (charged at disk
/// bandwidth, write + re-read); demand beyond `oom_fraction * memory` fails
/// the job.
///
/// The top working sets are selected in place (`per_task_working_set` is
/// left reordered), not sorted: a stage check costs O(tasks).
pub fn check_stage_memory(
    cfg: &ClusterConfig,
    operator: &str,
    per_task_working_set: &mut [u64],
) -> Result<MemoryOutcome> {
    let nonempty = per_task_working_set.iter().filter(|&&b| b > 0).count();
    if nonempty == 0 {
        return Ok(MemoryOutcome::FITS);
    }
    let concurrency = nonempty.div_ceil(cfg.machines).min(cfg.cores_per_machine);
    let peak: u64 = match concurrency {
        0 => 0,
        k => {
            let (top, kth, _) = per_task_working_set.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
            top.iter().sum::<u64>() + *kth
        }
    };
    let mem = cfg.memory_per_machine;
    let oom_limit = (mem as f64 * cfg.costs.oom_fraction) as u64;
    if peak > oom_limit {
        return Err(EngineError::OutOfMemory {
            operator: operator.to_string(),
            needed_bytes: peak,
            available_bytes: oom_limit,
        });
    }
    let spill_limit = (mem as f64 * cfg.costs.spill_fraction) as u64;
    if peak > spill_limit {
        let spilled = peak - spill_limit;
        // Written once and read back once.
        let secs = (2 * spilled) as f64 / cfg.costs.disk_bandwidth as f64;
        return Ok(MemoryOutcome {
            spilled_bytes: spilled,
            spill_time: SimTime::from_secs_f64(secs),
            peak_bytes: peak,
        });
    }
    Ok(MemoryOutcome { spilled_bytes: 0, spill_time: SimTime::ZERO, peak_bytes: peak })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, GB, MB};

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::with_machines(2);
        c.memory_per_machine = GB;
        c.costs.spill_fraction = 0.5;
        c.costs.oom_fraction = 1.0;
        c.costs.materialize_factor = 1.0;
        c
    }

    #[test]
    fn small_working_sets_fit() {
        let out = check_stage_memory(&cfg(), "t", &mut [MB, MB, MB]).unwrap();
        assert_eq!(out.spilled_bytes, 0);
        assert_eq!(out.spill_time, SimTime::ZERO);
        // 3 non-empty tasks on 2 machines: 2 concurrent on the heaviest.
        assert_eq!(out.peak_bytes, 2 * MB);
    }

    #[test]
    fn empty_stage_fits() {
        assert_eq!(check_stage_memory(&cfg(), "t", &mut []).unwrap(), MemoryOutcome::FITS);
        assert_eq!(check_stage_memory(&cfg(), "t", &mut [0, 0]).unwrap(), MemoryOutcome::FITS);
    }

    #[test]
    fn moderate_pressure_spills() {
        // One task of 700 MB on a 1 GB worker with 0.5 spill fraction.
        let out = check_stage_memory(&cfg(), "t", &mut [700 * MB]).unwrap();
        assert!(out.spilled_bytes > 0);
        assert!(out.spill_time > SimTime::ZERO);
    }

    #[test]
    fn extreme_pressure_ooms() {
        let err = check_stage_memory(&cfg(), "group_by_key", &mut [3 * GB]).unwrap_err();
        match err {
            EngineError::OutOfMemory { operator, .. } => assert_eq!(operator, "group_by_key"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn concurrency_multiplies_pressure() {
        // 16 tasks of 300 MB on 2 machines x 4 cores: 4 concurrent x 300 MB
        // = 1.2 GB > 1 GB -> OOM, even though one task alone fits.
        let c = cfg();
        let mut ws = vec![300 * MB; 16];
        assert!(check_stage_memory(&c, "t", &mut ws).is_err());
        assert!(check_stage_memory(&c, "t", &mut [300 * MB]).is_ok());
    }

    /// The peak is the sum of the `concurrency` heaviest working sets, as a
    /// full descending sort would give it, ties and empty tasks included.
    #[test]
    fn peak_is_the_sum_of_the_heaviest_tasks() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200u64 {
            let mut c = ClusterConfig::with_machines(1 + (case % 5) as usize);
            c.cores_per_machine = 1 + (case % 7) as usize;
            c.memory_per_machine = u64::MAX / 4;
            let tasks = (next() % 40) as usize;
            let ws: Vec<u64> = (0..tasks).map(|_| (next() % 6) * MB).collect();
            let nonempty = ws.iter().filter(|&&b| b > 0).count();
            let concurrency = nonempty.div_ceil(c.machines).min(c.cores_per_machine);
            let mut sorted = ws.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let want: u64 = sorted.iter().take(concurrency).sum();
            let out = check_stage_memory(&c, "t", &mut ws.clone()).unwrap();
            assert_eq!(out.peak_bytes, want, "{ws:?} on {} x {}", c.machines, c.cores_per_machine);
        }
    }

    #[test]
    fn spill_time_scales_with_excess() {
        let a = check_stage_memory(&cfg(), "t", &mut [600 * MB]).unwrap();
        let b = check_stage_memory(&cfg(), "t", &mut [900 * MB]).unwrap();
        assert!(b.spill_time > a.spill_time);
    }
}
