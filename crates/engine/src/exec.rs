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

    /// Charge the compute portion of `operator`'s stage: one simulated task
    /// per partition with `counts[i]` records of `bytes` each.
    ///
    /// `task_overhead` is true for stage-starting operators (sources, shuffle
    /// reads), which pay driver scheduling and task launch per task.
    pub(crate) fn charge_compute(
        &self,
        operator: &'static str,
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
        let records = counts.iter().map(|&n| n as u64).sum();
        self.charge_weighted(operator, &costs, records, task_overhead)
    }

    /// Charge a stage of `operator` that processed `records` records from
    /// explicit per-task simulated costs (already including task launch if
    /// `task_overhead`): the tasks are packed onto the simulated cores with
    /// LPT, and a stage-starting charge is then a machine-loss boundary.
    pub(crate) fn charge_weighted(
        &self,
        operator: &'static str,
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
        self.core.clock.advance(lpt_makespan(task_costs, self.config().total_cores()));
        self.observe(EngineEvent::Stage {
            stage: stage_id,
            operator,
            tasks: task_costs.len() as u64,
            records,
            scheduled: task_overhead,
            busy: task_costs.iter().copied().sum(),
            start,
            end: self.sim_time(),
        });
        // Machine-loss model (docs/FAULTS.md): only stage-starting charges
        // reach this, and only when enabled — default runs take no lock and
        // stay bit-identical.
        if task_overhead && self.config().faults.machine_loss_rate > 0.0 {
            self.machine_loss_boundary(stage_id, task_costs)?;
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

    /// Record one shuffle's map output, `bytes[i]` modeled bytes of its
    /// `records` records landing in reduce partition `i`: pure bookkeeping (no
    /// simulated time, no simulated memory). Emits the `PartitionStats` event
    /// that feeds the partition-size high-water marks: nearest-rank
    /// percentiles (the median of an even count is the lower one) and the
    /// largest partition over the mean, in thousandths (`1000` = balanced);
    /// all 0 for an empty shuffle.
    pub(crate) fn record_map_output(
        &self,
        operator: &'static str,
        records: u64,
        mut bytes: Vec<u64>,
    ) {
        bytes.sort_unstable();
        let (n, total) = (bytes.len(), bytes.iter().sum::<u64>());
        let rank = |pct: usize| bytes.get((pct * n).div_ceil(100).saturating_sub(1)).copied();
        let max_bytes = bytes.last().copied().unwrap_or(0);
        let skew_ratio_milli = match total {
            0 => 0,
            _ => (max_bytes as f64 / (total as f64 / n as f64) * 1000.0) as u64,
        };
        self.observe(EngineEvent::PartitionStats {
            operator,
            partitions: n as u64,
            records,
            bytes: total,
            p50_bytes: rank(50).unwrap_or(0),
            p99_bytes: rank(99).unwrap_or(0),
            max_bytes,
            skew_ratio_milli,
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
    fn task_overhead_charged_only_for_stage_starts() {
        let e = Engine::new(ClusterConfig::local_test());
        let t0 = e.sim_time();
        e.charge_compute("t", &[0, 0, 0, 0], 8.0, false).unwrap();
        let narrow = e.sim_time() - t0;
        assert_eq!(narrow, SimTime::ZERO, "narrow op over empty partitions is free");
        let t1 = e.sim_time();
        e.charge_compute("t", &[0, 0, 0, 0], 8.0, true).unwrap();
        let wide = e.sim_time() - t1;
        assert!(wide > SimTime::ZERO, "stage start pays scheduling/launch even when empty");
        assert_eq!(e.stats().tasks, 4);
    }

    /// `(partitions, records, bytes, p50, p99, max, skew)` of the
    /// `PartitionStats` event recorded for `records` of 10 bytes each.
    fn map_output(records: &[u64]) -> [u64; 7] {
        let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
        e.record_map_output("test", records.iter().sum(), records.iter().map(|n| n * 10).collect());
        match e.events()[..] {
            [crate::EngineEvent::PartitionStats {
                partitions: n,
                records,
                bytes,
                p50_bytes,
                p99_bytes,
                max_bytes,
                skew_ratio_milli,
                ..
            }] => [n, records, bytes, p50_bytes, p99_bytes, max_bytes, skew_ratio_milli],
            ref other => panic!("expected one PartitionStats event, got {other:?}"),
        }
    }

    #[test]
    fn totals_and_max_are_exact() {
        let [n, records, bytes, .., max, _] = map_output(&[1, 2, 3, 10]);
        assert_eq!([n, records, bytes, max], [4, 16, 160, 100]);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let [.., p50, p99, max, _] = map_output(&[1, 2, 3, 4]);
        assert_eq!([p50, p99, max], [20, 40, 40]);
        assert_eq!(map_output(&[]), [0; 7]);
    }

    #[test]
    fn skew_ratio_is_max_over_mean() {
        // mean = 4, max = 10 -> 2.5x -> 2500 milli.
        assert_eq!(map_output(&[1, 2, 3, 10])[6], 2_500);
        assert_eq!(map_output(&[5, 5, 5, 5])[6], 1_000, "balanced is 1.000x");
        assert_eq!(map_output(&[0, 0])[6], 0, "empty shuffle has no skew");
    }

    #[test]
    fn run_job_records_job_events_with_outcome() {
        let e = Engine::new(ClusterConfig { trace_events: true, ..ClusterConfig::local_test() });
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
