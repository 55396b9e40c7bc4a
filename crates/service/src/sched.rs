//! The pure scheduling core: pool accounting and the next-job choice.
//!
//! Kept free of engines, clocks, and locks so the policy itself is unit
//! testable: given which pools have runnable work, [`Scheduler::pick`]
//! returns which candidate runs next. The surrounding virtual-time event
//! loop lives in [`crate::service`].

use crate::scheduler::{SchedulerConfig, SchedulingPolicy};

/// A job the event loop could start right now: `(pool index, submission
/// sequence number)`. At most one candidate per pool is offered (the pool's
/// FIFO head), which keeps per-pool submission order intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index into the config's pool list.
    pub pool: usize,
    /// Submission sequence number (the job id).
    pub seq: u64,
}

/// Per-pool bookkeeping of the weighted fair-share policy.
#[derive(Debug, Clone)]
struct PoolState {
    weight: u64,
    max_concurrent: usize,
    running: usize,
    /// Virtual core-nanoseconds consumed (slots x sim_nanos), accumulated
    /// when jobs finish.
    consumed: u128,
}

/// Deterministic scheduling state: policy + per-pool usage accounting.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedulingPolicy,
    pools: Vec<PoolState>,
}

impl Scheduler {
    /// Build from a validated config.
    pub fn new(cfg: &SchedulerConfig) -> Scheduler {
        Scheduler {
            policy: cfg.policy,
            pools: cfg
                .pools
                .iter()
                .map(|p| PoolState {
                    weight: p.weight,
                    max_concurrent: p.max_concurrent,
                    running: 0,
                    consumed: 0,
                })
                .collect(),
        }
    }

    /// Can `pool` start another job under its concurrency cap?
    pub fn has_capacity(&self, pool: usize) -> bool {
        let p = &self.pools[pool];
        p.max_concurrent == 0 || p.running < p.max_concurrent
    }

    /// Choose the next candidate to run, deterministically.
    ///
    /// - [`SchedulingPolicy::Fifo`]: the lowest submission sequence number.
    /// - [`SchedulingPolicy::FairShare`]: the candidate whose pool has the
    ///   smallest weight-normalized consumption (`consumed / weight`,
    ///   compared exactly by cross-multiplication in `u128`); ties break by
    ///   pool index, so the choice is a pure function of the inputs.
    pub fn pick(&self, candidates: &[Candidate]) -> Option<Candidate> {
        match self.policy {
            SchedulingPolicy::Fifo => candidates.iter().min_by_key(|c| c.seq).copied(),
            SchedulingPolicy::FairShare => candidates
                .iter()
                .min_by(|a, b| {
                    let pa = &self.pools[a.pool];
                    let pb = &self.pools[b.pool];
                    // consumed_a / weight_a  vs  consumed_b / weight_b
                    let lhs = pa.consumed * pb.weight as u128;
                    let rhs = pb.consumed * pa.weight as u128;
                    lhs.cmp(&rhs).then(a.pool.cmp(&b.pool))
                })
                .copied(),
        }
    }

    /// A job of `pool` started.
    pub fn on_start(&mut self, pool: usize) {
        self.pools[pool].running += 1;
    }

    /// A job of `pool` finished after occupying `slots` cores for
    /// `sim_nanos` of virtual time.
    pub fn on_finish(&mut self, pool: usize, slots: usize, sim_nanos: u64) {
        let p = &mut self.pools[pool];
        p.running -= 1;
        p.consumed += slots as u128 * sim_nanos as u128;
    }

    /// Virtual core-nanoseconds consumed by `pool` so far.
    pub fn consumed(&self, pool: usize) -> u128 {
        self.pools[pool].consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PoolConfig;

    fn cfg(policy: SchedulingPolicy, pools: Vec<PoolConfig>) -> SchedulerConfig {
        SchedulerConfig { policy, pools, ..SchedulerConfig::default() }
    }

    #[test]
    fn fifo_picks_lowest_sequence() {
        let s = Scheduler::new(&cfg(
            SchedulingPolicy::Fifo,
            vec![PoolConfig::new("a", 1), PoolConfig::new("b", 1)],
        ));
        let got = s.pick(&[Candidate { pool: 1, seq: 5 }, Candidate { pool: 0, seq: 9 }]);
        assert_eq!(got, Some(Candidate { pool: 1, seq: 5 }));
    }

    #[test]
    fn fair_share_prefers_the_underserved_pool() {
        let mut s = Scheduler::new(&cfg(
            SchedulingPolicy::FairShare,
            vec![PoolConfig::new("batch", 1), PoolConfig::new("interactive", 3)],
        ));
        // interactive consumed 3x batch, exactly its weight ratio: tie, so
        // pool index 0 wins.
        s.on_start(0);
        s.on_finish(0, 1, 100);
        s.on_start(1);
        s.on_finish(1, 1, 300);
        let cands = [Candidate { pool: 0, seq: 10 }, Candidate { pool: 1, seq: 11 }];
        assert_eq!(s.pick(&cands), Some(Candidate { pool: 0, seq: 10 }));
        // Push batch past its share: interactive becomes the pick.
        s.on_start(0);
        s.on_finish(0, 1, 1);
        assert_eq!(s.pick(&cands), Some(Candidate { pool: 1, seq: 11 }));
    }

    #[test]
    fn capacity_caps_respect_running_counts() {
        let mut s = Scheduler::new(&cfg(
            SchedulingPolicy::Fifo,
            vec![PoolConfig::new("capped", 1).with_max_concurrent(1)],
        ));
        assert!(s.has_capacity(0));
        s.on_start(0);
        assert!(!s.has_capacity(0));
        s.on_finish(0, 1, 10);
        assert!(s.has_capacity(0));
    }

    #[test]
    fn slots_scale_consumption() {
        let mut s = Scheduler::new(&cfg(
            SchedulingPolicy::FairShare,
            vec![PoolConfig::new("a", 1), PoolConfig::new("b", 1)],
        ));
        s.on_start(0);
        s.on_finish(0, 4, 10); // 4 slots x 10ns = 40 core-ns
        s.on_start(1);
        s.on_finish(1, 1, 10); // 10 core-ns
        let cands = [Candidate { pool: 0, seq: 1 }, Candidate { pool: 1, seq: 2 }];
        assert_eq!(s.pick(&cands).unwrap().pool, 1, "narrow jobs consumed less");
        assert_eq!(s.consumed(0), 40);
    }
}
