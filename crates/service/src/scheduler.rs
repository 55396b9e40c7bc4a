//! What an operator configures about the job service's scheduling and
//! admission control: [`SchedulerConfig`], handed to
//! [`JobService::with_scheduler`](crate::JobService::with_scheduler) (see
//! `docs/SERVICE.md`). The policy that acts on it is [`crate::sched`].
//!
//! All quantities here are *simulated*: pool weights divide virtual core
//! time on the modeled cluster, and `total_slots` counts simulated cores,
//! not host threads. Host execution always goes through the process-wide
//! shared worker pool of `matryoshka-engine`.

/// How the service orders runnable jobs across pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Strict submission order across all pools (a single global queue;
    /// pool `max_concurrent` caps still apply).
    #[default]
    Fifo,
    /// Weighted fair share: whenever core slots free up, the runnable pool
    /// with the smallest weight-normalized consumed virtual core time runs
    /// next (ties break by pool order, then submission order), so pools
    /// converge to core-time shares proportional to their weights.
    FairShare,
}

/// One scheduler pool: a named share of the service's simulated cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Pool name, unique within a [`SchedulerConfig`]. Submissions address
    /// pools by name; an unknown name is rejected at admission.
    pub name: String,
    /// Relative fair-share weight (must be `>= 1`): a weight-2 pool is
    /// entitled to twice the virtual core time of a weight-1 pool while
    /// both have queued work. Ignored under [`SchedulingPolicy::Fifo`].
    pub weight: u64,
    /// Maximum jobs of this pool running concurrently; `0` means no
    /// per-pool cap (the global `total_slots` still limits concurrency).
    pub max_concurrent: usize,
}

impl PoolConfig {
    /// A pool with the given name and weight and no concurrency cap.
    pub fn new(name: impl Into<String>, weight: u64) -> PoolConfig {
        PoolConfig { name: name.into(), weight, max_concurrent: 0 }
    }

    /// Cap the number of concurrently running jobs of this pool.
    pub fn with_max_concurrent(mut self, max: usize) -> PoolConfig {
        self.max_concurrent = max;
        self
    }
}

/// Scheduler and admission-control knobs of the job service.
///
/// The default is a single unweighted `default` pool, FIFO order, 8
/// simulated cores, and a 64-entry admission queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Job ordering policy.
    pub policy: SchedulingPolicy,
    /// The scheduler pools. Must be non-empty with unique names.
    pub pools: Vec<PoolConfig>,
    /// Admission bound: jobs queued (admitted but not yet running). A
    /// submission arriving with the queue full is rejected with a reason
    /// rather than blocking the submitter (backpressure).
    pub queue_capacity: usize,
    /// Simulated cores the service multiplexes between jobs. A job occupies
    /// its requested slots (clamped to this) for its whole virtual runtime.
    pub total_slots: usize,
    /// Core slots charged to a job that does not request a count.
    pub default_slots: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            policy: SchedulingPolicy::default(),
            pools: vec![PoolConfig::new("default", 1)],
            queue_capacity: 64,
            total_slots: 8,
            default_slots: 1,
        }
    }
}

impl SchedulerConfig {
    /// A weighted fair-share config with the given `(name, weight)` pools.
    pub fn fair_share<S: Into<String>>(pools: impl IntoIterator<Item = (S, u64)>) -> Self {
        SchedulerConfig {
            policy: SchedulingPolicy::FairShare,
            pools: pools.into_iter().map(|(n, w)| PoolConfig::new(n, w)).collect(),
            ..SchedulerConfig::default()
        }
    }

    /// Index of the pool named `name`, if any.
    pub fn pool_index(&self, name: &str) -> Option<usize> {
        self.pools.iter().position(|p| p.name == name)
    }

    /// Check the config for internal consistency. The service refuses to
    /// start on an invalid config; the message names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.pools.is_empty() {
            return Err("scheduler config has no pools".to_string());
        }
        for (i, p) in self.pools.iter().enumerate() {
            if p.name.is_empty() {
                return Err(format!("pool {i} has an empty name"));
            }
            if p.weight == 0 {
                return Err(format!("pool `{}` has weight 0 (must be >= 1)", p.name));
            }
            if self.pools[..i].iter().any(|q| q.name == p.name) {
                return Err(format!("duplicate pool name `{}`", p.name));
            }
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".to_string());
        }
        if self.total_slots == 0 {
            return Err("total_slots must be >= 1".to_string());
        }
        if self.default_slots == 0 || self.default_slots > self.total_slots {
            return Err(format!(
                "default_slots must be in 1..={} (got {})",
                self.total_slots, self.default_slots
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.pool_index("default"), Some(0));
        assert_eq!(cfg.pool_index("nope"), None);
    }

    #[test]
    fn fair_share_builder_sets_policy_and_pools() {
        let cfg = SchedulerConfig::fair_share([("batch", 1), ("interactive", 3)]);
        assert_eq!(cfg.policy, SchedulingPolicy::FairShare);
        assert_eq!(cfg.pools.len(), 2);
        assert_eq!(cfg.pools[1].weight, 3);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SchedulerConfig::default();
        cfg.pools.clear();
        assert!(cfg.validate().unwrap_err().contains("no pools"));

        let mut cfg = SchedulerConfig::default();
        cfg.pools[0].weight = 0;
        assert!(cfg.validate().unwrap_err().contains("weight 0"));

        let mut cfg = SchedulerConfig::default();
        cfg.pools.push(PoolConfig::new("default", 2));
        assert!(cfg.validate().unwrap_err().contains("duplicate"));

        let cfg = SchedulerConfig { queue_capacity: 0, ..SchedulerConfig::default() };
        assert!(cfg.validate().unwrap_err().contains("queue_capacity"));

        let cfg = SchedulerConfig { default_slots: 9, ..SchedulerConfig::default() };
        assert!(cfg.validate().unwrap_err().contains("default_slots"));
    }

    #[test]
    fn pool_builder_caps_concurrency() {
        let p = PoolConfig::new("batch", 2).with_max_concurrent(1);
        assert_eq!(p.max_concurrent, 1);
    }
}
