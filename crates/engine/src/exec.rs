//! Cost charging: where operators tell the simulator what they did.
//!
//! The stage model follows Spark: a *stage* starts at a source or a shuffle
//! boundary and pipelines all narrow operators that follow. Sources and wide
//! operators therefore charge per-task overheads (driver-side serial
//! scheduling plus executor-side task launch, scheduled onto simulated cores
//! with LPT); narrow operators charge per-record processing only, since
//! their work rides inside an already-charged stage's tasks.
//!
//! Every charge site here makes exactly one observation,
//! `engine.observe(EngineEvent::..)`, carrying the simulated interval it
//! covered and the operator it was charged for. The counters are the fold of
//! those events ([`EngineEvent::effects`]); the events themselves are kept
//! only when tracing is enabled (see [`crate::trace`]).

use crate::error::{EngineError, Result};
use crate::partitioner::{partition_for, stable_hash};
use crate::sim::{check_stage_memory, lpt_makespan, Counter, SimTime};
use crate::trace::EngineEvent;
use crate::Engine;

impl Engine {
    /// CPU cost of processing one record of `bytes` payload.
    pub(crate) fn record_cost(&self, bytes: f64) -> SimTime {
        let c = &self.config().costs;
        c.per_record + c.per_byte * bytes
    }

    /// Run an action as one simulated job: charges the job launch and
    /// brackets the work with `JobStart`/`JobEnd` events so every
    /// stage/shuffle/broadcast charged inside `f` is attributable to this
    /// job in the exported trace.
    pub(crate) fn run_job<R>(
        &self,
        action: &'static str,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        self.check_interrupt()?;
        let job = self.next_job_id();
        self.observe(EngineEvent::JobStart { job, action, at: self.sim_time() });
        self.core.clock.advance(self.config().costs.job_launch);
        let out = f();
        self.observe(EngineEvent::JobEnd { job, ok: out.is_ok(), at: self.sim_time() });
        out
    }

    /// Charge the compute portion of a stage: one simulated task per
    /// partition with `counts[i]` records of `bytes` each.
    ///
    /// `task_overhead` is true for stage-starting operators (sources, shuffle
    /// reads), which pay driver scheduling and task launch per task.
    pub(crate) fn charge_compute(
        &self,
        counts: &[usize],
        bytes: f64,
        task_overhead: bool,
    ) -> Result<()> {
        let per_record = self.record_cost(bytes);
        let costs: Vec<SimTime> = counts
            .iter()
            .map(|&n| {
                let launch =
                    if task_overhead { self.config().costs.task_launch } else { SimTime::ZERO };
                launch + per_record * n as u64
            })
            .collect();
        self.charge_weighted(&costs, counts.iter().map(|&n| n as u64).sum(), task_overhead)
    }

    /// Charge a stage that processed `records` records from explicit
    /// per-task simulated costs (already including task launch if
    /// `task_overhead`). Applies the fault model: a failed attempt is re-run
    /// (its cost charged again, plus a task launch); a task that exhausts
    /// its attempts fails the job, as Spark's `spark.task.maxFailures` does
    /// — after the stage that killed it has been observed like any other.
    pub(crate) fn charge_weighted(
        &self,
        task_costs: &[SimTime],
        records: u64,
        task_overhead: bool,
    ) -> Result<()> {
        // Cooperative cancellation / simulated-deadline point: every stage
        // charge passes through here, so a cancelled or over-deadline job
        // aborts at the next stage boundary.
        self.check_interrupt()?;
        let start = self.sim_time();
        let stage_id = self.core.stats.get(Counter::Stages);
        if task_overhead {
            // Driver schedules tasks serially; this is what makes very high
            // task counts expensive independent of cluster size.
            self.core.clock.advance(self.config().costs.task_schedule * task_costs.len() as u64);
        }
        let faults = &self.config().faults;
        // Fault-free runs (the common case) charge straight off the caller's
        // slice: the per-stage `to_vec` is only paid when the fault model
        // actually has to rewrite costs for re-run attempts.
        let mut patched: Vec<SimTime>;
        let mut failed = None;
        let effective: &[SimTime] = if faults.task_failure_rate > 0.0 {
            let threshold = (faults.task_failure_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
            let launch = self.config().costs.task_launch;
            patched = task_costs.to_vec();
            'tasks: for (i, cost) in patched.iter_mut().enumerate() {
                let mut attempt = 0u32;
                while stable_hash(&(faults.seed, stage_id, i as u64, attempt)) <= threshold {
                    attempt += 1;
                    if attempt >= faults.max_attempts {
                        failed =
                            Some(EngineError::TaskFailed { stage: stage_id, attempts: attempt });
                        break 'tasks;
                    }
                    self.observe(EngineEvent::TaskRetry {
                        stage: stage_id,
                        task: i as u64,
                        attempt,
                        at: start,
                    });
                    // Re-run: the attempt's work is wasted and re-done.
                    *cost = *cost + *cost + launch;
                }
            }
            &patched
        } else {
            task_costs
        };
        if failed.is_none() {
            self.core.clock.advance(lpt_makespan(effective, self.config().total_cores()));
        }
        self.observe(EngineEvent::Stage {
            stage: stage_id,
            operator: self.current_operator(),
            tasks: effective.len() as u64,
            records,
            scheduled: task_overhead,
            busy: effective.iter().copied().sum(),
            start,
            end: self.sim_time(),
        });
        if let Some(err) = failed {
            return Err(err);
        }
        // Machine-loss model (docs/FAULTS.md): only stage-starting charges
        // reach this, and only when enabled — default runs take no lock and
        // stay bit-identical.
        if task_overhead && faults.machine_loss_rate > 0.0 {
            self.machine_loss_boundary(stage_id, effective)?;
        }
        Ok(())
    }

    /// Simulate whole-machine losses at a stage boundary. The just-executed
    /// stage's output partitions are placed on machines with the same stable
    /// placement the partitioner uses; each machine is then lost with
    /// probability `machine_loss_rate`, deterministically per
    /// (seed, stage, machine, attempt). A loss invalidates every materialized
    /// partition resident on that machine since the last checkpoint, and the
    /// engine charges replaying their lineage on the surviving machines.
    /// `max_recovery_attempts` consecutive losses of one machine fail the job
    /// with [`EngineError::RecoveryFailed`].
    fn machine_loss_boundary(&self, stage: u64, task_costs: &[SimTime]) -> Result<()> {
        let machines = self.config().machines.max(1);
        let faults = &self.config().faults;
        let threshold = (faults.machine_loss_rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        let c = &self.config().costs;
        let surviving_cores =
            (self.config().total_cores() - self.config().cores_per_machine).max(1) as u64;
        let mut ledger = self.core.recovery.lock().expect("recovery lock poisoned");
        ledger.ensure_machines(machines);
        // Record this stage's outputs into the lineage ledger: partition i of
        // the stage lives on the machine the stable placement assigns it.
        for (i, cost) in task_costs.iter().enumerate() {
            let m = partition_for(&(i as u64), machines);
            ledger.cost[m] += *cost;
            ledger.partitions[m] += 1;
        }
        for m in 0..machines {
            let mut attempt = 0u32;
            while stable_hash(&("machine_loss", faults.seed, stage, m as u64, attempt)) <= threshold
            {
                attempt += 1;
                let lost_parts = ledger.partitions[m];
                let lost_cost = ledger.cost[m];
                self.observe(EngineEvent::MachineLost {
                    machine: m as u64,
                    stage,
                    partitions_lost: lost_parts,
                    at: self.sim_time(),
                });
                if attempt >= faults.max_recovery_attempts {
                    return Err(EngineError::RecoveryFailed {
                        stage,
                        machine: m as u64,
                        attempts: attempt,
                    });
                }
                if lost_parts > 0 {
                    // Replay lineage for the lost partitions on the survivors:
                    // the recorded compute spread over the remaining cores,
                    // plus rescheduling/relaunching one task per partition.
                    let replay = SimTime::from_nanos(lost_cost.as_nanos() / surviving_cores)
                        + (c.task_schedule + c.task_launch) * lost_parts;
                    let start = self.sim_time();
                    self.core.clock.advance(replay);
                    self.observe(EngineEvent::PartitionRecomputed {
                        machine: m as u64,
                        stage,
                        partitions: lost_parts,
                        start,
                        end: self.sim_time(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Charge writing `bytes` of checkpoint data to replicated storage (one
    /// local disk write across the cluster plus one remote replica over the
    /// network), then truncate lineage: the recovery ledger is cleared, so
    /// later machine losses replay only work done after this point.
    pub(crate) fn charge_checkpoint(&self, operator: &'static str, bytes: u64) {
        let c = &self.config().costs;
        let start = self.sim_time();
        let disk = SimTime::from_secs_f64(
            bytes as f64 / (c.disk_bandwidth * self.config().machines.max(1) as u64) as f64,
        );
        let net = SimTime::from_secs_f64(bytes as f64 / self.config().aggregate_bandwidth() as f64);
        self.core.clock.advance(disk + net);
        self.observe(EngineEvent::Checkpoint { operator, bytes, start, end: self.sim_time() });
        let mut ledger = self.core.recovery.lock().expect("recovery lock poisoned");
        ledger.clear();
    }

    /// Record one shuffle's map-output statistics: pure bookkeeping (no
    /// simulated time, no simulated memory). Emits the `PartitionStats`
    /// event that feeds the partition-size high-water marks.
    pub(crate) fn record_map_output(&self, stats: &crate::map_output::MapOutputStats) {
        let [p50_bytes, p99_bytes] = stats.percentiles_bytes([50, 99]);
        self.observe(EngineEvent::PartitionStats {
            operator: stats.operator,
            partitions: stats.partitions() as u64,
            records: stats.total_records(),
            bytes: stats.total_bytes(),
            p50_bytes,
            p99_bytes,
            max_bytes: stats.max_bytes(),
            skew_ratio_milli: stats.skew_ratio_milli(),
            at: self.sim_time(),
        });
    }

    /// Charge a shuffle of `records` records of `bytes` each: map-side
    /// serialization (parallel across cores) plus network transfer at the
    /// aggregate cluster bandwidth.
    pub(crate) fn charge_shuffle(&self, operator: &'static str, records: u64, bytes: f64) {
        let c = &self.config().costs;
        let total_bytes = (records as f64 * bytes) as u64;
        let start = self.sim_time();
        let ser = SimTime::from_nanos(
            c.per_shuffle_record.as_nanos().saturating_mul(records)
                / self.config().total_cores().max(1) as u64,
        );
        let net =
            SimTime::from_secs_f64(total_bytes as f64 / self.config().aggregate_bandwidth() as f64);
        self.core.clock.advance(ser + net);
        self.observe(EngineEvent::Shuffle {
            operator,
            records,
            bytes: total_bytes,
            start,
            end: self.sim_time(),
        });
    }

    /// Memory-check a stage given per-task working sets (bytes, already
    /// including any materialization factor). Spilling advances the clock;
    /// overflow returns a simulated OutOfMemory.
    pub(crate) fn charge_memory(
        &self,
        operator: &'static str,
        working_sets: &mut [u64],
    ) -> Result<()> {
        let outcome = check_stage_memory(self.config(), operator, working_sets)?;
        if outcome.peak_bytes > 0 {
            self.observe(EngineEvent::MemoryPeak {
                operator,
                peak_bytes: outcome.peak_bytes,
                at: self.sim_time(),
            });
        }
        if outcome.spilled_bytes > 0 {
            let start = self.sim_time();
            self.core.clock.advance(outcome.spill_time);
            self.observe(EngineEvent::Spill {
                operator,
                bytes: outcome.spilled_bytes,
                start,
                end: self.sim_time(),
            });
        }
        Ok(())
    }

    /// Charge moving `records` records of `bytes` each to the driver over a
    /// single machine's link, processed serially by the driver.
    pub(crate) fn charge_driver_collect(&self, records: u64, bytes: f64) {
        let total_bytes = records as f64 * bytes;
        let start = self.sim_time();
        let cpu = self.record_cost(bytes) * records;
        let net = SimTime::from_secs_f64(total_bytes / self.config().network_bandwidth as f64);
        self.core.clock.advance(cpu + net);
        self.observe(EngineEvent::Collect {
            records,
            bytes: total_bytes as u64,
            start,
            end: self.sim_time(),
        });
    }

    /// Charge distributing a broadcast variable of `bytes` to every worker,
    /// failing if the deserialized value cannot fit in worker memory.
    pub(crate) fn charge_broadcast(&self, operator: &'static str, bytes: u64) -> Result<()> {
        let expanded = (bytes as f64 * self.config().costs.materialize_factor) as u64;
        // A broadcast must fit on *every single* machine (paper Sec. 9.6).
        check_stage_memory(self.config(), operator, &mut [expanded])?;
        let start = self.sim_time();
        // Torrent-style distribution: pipeline bound by one machine's link.
        let net = SimTime::from_secs_f64(bytes as f64 / self.config().network_bandwidth as f64);
        self.core.clock.advance(net);
        self.observe(EngineEvent::Broadcast { operator, bytes, start, end: self.sim_time() });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ClusterConfig, GB};
    use crate::sim::SimTime;
    use crate::trace::assert_reconciles;
    use crate::Engine;

    #[test]
    fn shuffle_time_scales_with_bytes() {
        let e = Engine::new(ClusterConfig::local_test());
        let t0 = e.sim_time();
        e.charge_shuffle("t", 1000, 100.0);
        let t1 = e.sim_time();
        e.charge_shuffle("t", 1000, 10_000.0);
        let t2 = e.sim_time();
        assert!((t2 - t1) > (t1 - t0));
        assert!(e.stats().shuffle_bytes >= 1000 * 100);
    }

    #[test]
    fn job_launch_advances_clock_by_configured_amount() {
        let e = Engine::new(ClusterConfig::local_test());
        let before = e.sim_time();
        e.run_job("count", || Ok(())).unwrap();
        assert_eq!(e.sim_time() - before, e.config().costs.job_launch);
        assert_eq!(e.stats().jobs, 1);
    }

    #[test]
    fn broadcast_too_large_for_one_machine_ooms() {
        let e = Engine::new(ClusterConfig::local_test()); // 4 GB per machine
        let err = e.charge_broadcast("broadcast", 2 * GB).unwrap_err();
        assert!(matches!(err, crate::EngineError::OutOfMemory { .. }));
    }

    #[test]
    fn fault_injection_slows_jobs_deterministically() {
        let mut cfg = ClusterConfig::local_test();
        cfg.faults.task_failure_rate = 0.3;
        let run = || {
            let e = Engine::new(cfg.clone());
            let b = e.generate(10_000, 8, |i| (i % 97, 1u64));
            b.reduce_by_key(|a, b| a + b).count().unwrap();
            e.sim_time()
        };
        let with_faults = run();
        let baseline = {
            let e = Engine::new(ClusterConfig::local_test());
            let b = e.generate(10_000, 8, |i| (i % 97, 1u64));
            b.reduce_by_key(|a, b| a + b).count().unwrap();
            e.sim_time()
        };
        assert!(with_faults > baseline, "retries must cost simulated time");
        assert_eq!(with_faults, run(), "fault injection is deterministic");
    }

    #[test]
    fn retries_are_counted_and_traced() {
        let mut cfg = ClusterConfig::local_test();
        cfg.faults.task_failure_rate = 0.3;
        cfg.trace_events = true;
        let e = Engine::new(cfg);
        let b = e.generate(10_000, 8, |i| (i % 97, 1u64));
        b.reduce_by_key(|a, b| a + b).count().unwrap();
        let retried = e.stats().tasks_retried;
        assert!(retried > 0, "a 30% failure rate must produce retries");
        let events = e.events();
        let retry_events =
            events.iter().filter(|ev| matches!(ev, crate::EngineEvent::TaskRetry { .. })).count()
                as u64;
        assert_eq!(retry_events, retried, "every counted retry must be traced");
        assert_reconciles(&e);
    }

    #[test]
    fn pathological_failure_rate_fails_the_job() {
        let mut cfg = ClusterConfig::local_test();
        cfg.faults.task_failure_rate = 0.999999;
        cfg.faults.max_attempts = 2;
        cfg.trace_events = true;
        let e = Engine::new(cfg);
        let b = e.parallelize((0..100u64).collect::<Vec<_>>(), 4);
        match b.count() {
            Err(crate::EngineError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        // The stage that killed the job is counted and traced like any other.
        let stats = e.stats();
        assert_eq!((stats.stages, stats.tasks, stats.records), (1, 4, 100));
        assert_eq!((stats.jobs, stats.jobs_failed), (1, 1));
        assert_reconciles(&e);
    }

    #[test]
    fn results_are_unaffected_by_fault_injection() {
        let mut cfg = ClusterConfig::local_test();
        cfg.faults.task_failure_rate = 0.2;
        let e = Engine::new(cfg);
        let b = e.parallelize((0..1000u64).collect::<Vec<_>>(), 8);
        assert_eq!(b.map(|x| x * 2).fold(0u64, |a, x| a + x).unwrap(), 999_000);
    }

    #[test]
    fn task_overhead_charged_only_for_stage_starts() {
        let e = Engine::new(ClusterConfig::local_test());
        let t0 = e.sim_time();
        e.charge_compute(&[0, 0, 0, 0], 8.0, false).unwrap();
        let narrow = e.sim_time() - t0;
        assert_eq!(narrow, SimTime::ZERO, "narrow op over empty partitions is free");
        let t1 = e.sim_time();
        e.charge_compute(&[0, 0, 0, 0], 8.0, true).unwrap();
        let wide = e.sim_time() - t1;
        assert!(wide > SimTime::ZERO, "stage start pays scheduling/launch even when empty");
        assert_eq!(e.stats().tasks, 4);
    }

    #[test]
    fn run_job_records_job_events_with_outcome() {
        let e = Engine::new(ClusterConfig::local_test());
        e.enable_tracing();
        let ok: crate::Result<u32> = e.run_job("count", || Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let err: crate::Result<u32> =
            e.run_job("collect", || Err(crate::EngineError::Unsupported("x".into())));
        assert!(err.is_err());
        let events = e.events();
        let jobs: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                crate::EngineEvent::JobStart { job, action, .. } => Some((*job, *action, None)),
                crate::EngineEvent::JobEnd { job, ok, .. } => Some((*job, "", Some(*ok))),
                _ => None,
            })
            .collect();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].1, "count");
        assert_eq!(jobs[1].2, Some(true));
        assert_eq!(jobs[2].1, "collect");
        assert_eq!(jobs[3].2, Some(false));
        assert_eq!((e.stats().jobs, e.stats().jobs_failed), (2, 1));
        assert_reconciles(&e);
    }
}
