//! # matryoshka-engine
//!
//! A flat-parallel dataflow engine with a simulated-cluster cost model: the
//! substrate the Matryoshka flattening layer (crate `matryoshka-core`) runs
//! on, standing in for Apache Spark in the SIGMOD 2021 paper *"The Power of
//! Nested Parallelism in Big Data Processing"*.
//!
//! Programs execute **for real**, in-process and multi-threaded, so results
//! are exact and testable. Simultaneously, a **simulated clock** accounts for
//! what the identical program would cost on a configured cluster
//! ([`ClusterConfig`]): job-launch overhead per action, per-task scheduling
//! and launch overheads, LPT task scheduling onto simulated cores, shuffle
//! network transfer, disk spilling and per-worker memory limits (with
//! simulated `OutOfMemory` failures). Experiments read [`Engine::sim_time`].
//!
//! Narrow operators (`map`, `filter`, `flat_map`, ...) execute as batch
//! transducer steps, and a maximal run of them is **fused** into a single
//! pass per partition, eliding the intermediate materializations. The
//! simulated cost model charges each operator separately wherever chains
//! are cut (sim-transparency; see `DESIGN.md` § "Narrow-stage fusion"). A
//! bag that another live handle still refers to is never fused through, so
//! keeping every intermediate bound yields the operator-at-a-time schedule.
//!
//! Execution is observable through one schema: every charge site emits a
//! structured [`EngineEvent`]; the always-on counters ([`StatsSnapshot`]) are
//! the fold of those events, and the events themselves are kept when
//! [`Engine::enable_tracing`] or [`ClusterConfig::trace_events`] is on. Beside
//! them sit the lowering-[`Decision`] log filled in by `matryoshka-core` and
//! the JSON / Chrome-trace exporters in the [`trace`] module
//! ([`Engine::trace_json`], [`Engine::chrome_trace`]). See
//! `docs/OBSERVABILITY.md`.
//!
//! ```
//! use matryoshka_engine::{ClusterConfig, Engine};
//!
//! let engine = Engine::new(ClusterConfig::local_test());
//! let words = engine.parallelize(vec!["a", "b", "a", "c", "b", "a"], 4);
//! let counts = words.map(|w| (w.to_string(), 1u64)).reduce_by_key(|a, b| a + b);
//! let mut out = counts.collect().unwrap();
//! out.sort();
//! assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
//! assert!(engine.sim_time().as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

mod bag;
pub mod config;
mod error;
mod exec;
pub mod fx;
mod map_output;
pub mod partitioner;
pub mod pool;
pub mod sim;
pub mod trace;
mod types;

pub use bag::{Bag, JoinAlgorithm, Joined, Partitioning, WorkEstimate};
pub use config::FaultConfig;
pub use config::{ClusterConfig, CostModel, GB, KB, MB};
pub use error::{EngineError, Result};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use sim::{SimTime, StatsSnapshot};
pub use trace::{Decision, EngineEvent, Rule};
pub use types::{Data, Key};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::Mutex;

use bag::Parts;
use sim::{SimClock, Stats};
use trace::TraceCollector;

pub(crate) struct EngineCore {
    cfg: ClusterConfig,
    clock: SimClock,
    stats: Stats,
    collector: TraceCollector,
    decisions: Mutex<Vec<Decision>>,
    current_op: Mutex<Vec<&'static str>>,
    job_counter: AtomicU64,
    recovery: Mutex<RecoveryLedger>,
    cancelled: AtomicBool,
    deadline_nanos: AtomicU64,
}

/// Per-machine lineage-replay bookkeeping for the machine-loss fault model
/// (see `docs/FAULTS.md`). Each executed stage records, per machine, the
/// aggregate compute cost and count of the partitions placed there since the
/// last checkpoint; losing a machine replays that cost on the survivors.
/// `Bag::checkpoint` clears the ledger — that is what "truncating lineage"
/// means in the simulation.
#[derive(Debug, Default)]
pub(crate) struct RecoveryLedger {
    /// Aggregate recompute cost of partitions resident on each machine.
    pub cost: Vec<SimTime>,
    /// Number of materialized partitions resident on each machine.
    pub partitions: Vec<u64>,
}

impl RecoveryLedger {
    pub(crate) fn ensure_machines(&mut self, machines: usize) {
        if self.cost.len() < machines {
            self.cost.resize(machines, SimTime::ZERO);
            self.partitions.resize(machines, 0);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.cost.iter_mut().for_each(|c| *c = SimTime::ZERO);
        self.partitions.iter_mut().for_each(|p| *p = 0);
    }
}

/// Handle to a simulated cluster. Cheap to clone; all clones share the same
/// simulated clock and statistics.
#[derive(Clone)]
pub struct Engine {
    pub(crate) core: Arc<EngineCore>,
}

impl Engine {
    /// Create an engine over the given simulated cluster.
    pub fn new(cfg: ClusterConfig) -> Engine {
        let collector = TraceCollector::new(cfg.trace_events);
        Engine {
            core: Arc::new(EngineCore {
                cfg,
                clock: SimClock::default(),
                stats: Stats::default(),
                collector,
                decisions: Mutex::new(Vec::new()),
                current_op: Mutex::new(Vec::new()),
                job_counter: AtomicU64::new(0),
                recovery: Mutex::new(RecoveryLedger::default()),
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Convenience: an engine over [`ClusterConfig::local_test`].
    pub fn local() -> Engine {
        Engine::new(ClusterConfig::local_test())
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.core.cfg
    }

    /// Total simulated core count.
    pub fn total_cores(&self) -> usize {
        self.core.cfg.total_cores()
    }

    /// Current simulated time (monotonic; take before/after deltas to time a
    /// program).
    pub fn sim_time(&self) -> SimTime {
        self.core.clock.now()
    }

    /// Snapshot of the execution statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.stats.snapshot()
    }

    /// Request cooperative cancellation: the next charge site (any clone of
    /// this engine, from any thread) aborts with
    /// [`EngineError::Cancelled`]. Used by the multi-tenant job service to
    /// cancel running jobs between simulated stages; idempotent.
    pub fn request_cancel(&self) {
        self.core.cancelled.store(true, Ordering::Relaxed);
    }

    /// Install a simulated-time deadline: the first charge site at which
    /// [`Engine::sim_time`] is at or past `deadline` aborts with
    /// [`EngineError::DeadlineExceeded`]. Deterministic (the simulated clock
    /// does not depend on host scheduling). `SimTime::ZERO` clears the
    /// deadline.
    pub fn set_deadline(&self, deadline: SimTime) {
        self.core.deadline_nanos.store(deadline.as_nanos(), Ordering::Relaxed);
    }

    /// Abort the current program if cancellation was requested or the
    /// simulated deadline has passed. Checked at every stage charge.
    pub(crate) fn check_interrupt(&self) -> Result<()> {
        if self.core.cancelled.load(Ordering::Relaxed) {
            return Err(EngineError::Cancelled);
        }
        let deadline = self.core.deadline_nanos.load(Ordering::Relaxed);
        if deadline > 0 {
            let now = self.core.clock.now().as_nanos();
            if now >= deadline {
                return Err(EngineError::DeadlineExceeded {
                    deadline_nanos: deadline,
                    at_nanos: now,
                });
            }
        }
        Ok(())
    }

    /// Turn structured event collection on for this engine (see
    /// [`trace`]). Equivalent to constructing the engine with
    /// [`ClusterConfig::trace_events`] set.
    pub fn enable_tracing(&self) {
        self.core.collector.set_enabled(true);
    }

    /// Whether structured event collection is currently on.
    pub fn tracing_enabled(&self) -> bool {
        self.core.collector.enabled()
    }

    /// The structured events collected so far, in recording order. Empty
    /// unless tracing was enabled ([`Engine::enable_tracing`] or
    /// [`ClusterConfig::trace_events`]).
    pub fn events(&self) -> Vec<EngineEvent> {
        self.core.collector.events()
    }

    /// The lowering-decision log: every cardinality-driven physical choice
    /// recorded via [`Engine::record_decision`], in decision order. Always
    /// collected (its size is bounded by plan size, not data size).
    pub fn decisions(&self) -> Vec<Decision> {
        self.core.decisions.lock().expect("decision lock poisoned").clone()
    }

    /// Append `rule` to the lowering-decision log at the current simulated
    /// time; it becomes text only at export. Allocates nothing but the log.
    pub fn record_decision(&self, rule: Rule) {
        let d = Decision { site: rule.site(), rule, at: self.sim_time() };
        self.core.decisions.lock().expect("decision lock poisoned").push(d);
    }

    /// The fold of the collected events; equals [`Engine::stats`] on every
    /// field when tracing was on from the engine's first charge
    /// ([`trace::assert_reconciles`]).
    pub fn trace_summary(&self) -> StatsSnapshot {
        StatsSnapshot::from_events(&self.events())
    }

    /// Export collected events and decisions as a self-contained JSON
    /// document (see `docs/OBSERVABILITY.md`).
    pub fn trace_json(&self) -> String {
        trace::export_json(&self.events(), &self.decisions())
    }

    /// Export collected events and decisions in the Chrome Trace Event
    /// Format, loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let (events, decisions) = (self.events(), self.decisions());
        trace::export_chrome_trace(&[trace::ChromeLane {
            pid: 1,
            name: "simulated cluster".to_string(),
            offset: SimTime::ZERO,
            events: &events,
            decisions: &decisions,
        }])
    }

    /// The one way the engine observes anything: fold `ev` into the live
    /// counters, then keep it if tracing is enabled.
    pub(crate) fn observe(&self, ev: EngineEvent) {
        self.core.stats.observe(&ev);
        self.core.collector.keep(ev);
    }

    /// Push the operator currently being evaluated (used to attribute
    /// charge-site events to the operator that incurred them).
    pub(crate) fn push_current_op(&self, op: &'static str) {
        self.core.current_op.lock().expect("current-op lock poisoned").push(op);
    }

    pub(crate) fn pop_current_op(&self) {
        self.core.current_op.lock().expect("current-op lock poisoned").pop();
    }

    /// The operator currently being evaluated, or `"driver"` outside any
    /// operator (e.g. a direct `Engine::broadcast`).
    pub(crate) fn current_operator(&self) -> &'static str {
        self.core
            .current_op
            .lock()
            .expect("current-op lock poisoned")
            .last()
            .copied()
            .unwrap_or("driver")
    }

    pub(crate) fn next_job_id(&self) -> u64 {
        self.core.job_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// True if `other` is the same engine instance (bags from different
    /// engines must not be combined).
    pub fn same_as(&self, other: &Engine) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Distribute a driver-side collection across `partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Bag<T> {
        self.parallelize_with_bytes(data, partitions, Bag::<T>::default_record_bytes())
    }

    /// [`Engine::parallelize`] with an explicit modeled record size.
    ///
    /// Each record moves into its partition here, once; evaluation charges
    /// the load and hands out the partitions built now, cloning nothing.
    pub fn parallelize_with_bytes<T: Data>(
        &self,
        data: Vec<T>,
        partitions: usize,
        record_bytes: f64,
    ) -> Bag<T> {
        let engine = self.clone();
        let partitions = partitions.max(1);
        let chunk = data.len().div_ceil(partitions);
        let mut records = data.into_iter();
        let parts: Vec<Vec<T>> =
            (0..partitions).map(|_| records.by_ref().take(chunk).collect()).collect();
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let parts = Parts::new(parts);
        Bag::new(self.clone(), "parallelize", record_bytes, partitions, move || {
            engine.charge_compute(&counts, record_bytes, true)?;
            Ok(parts.clone())
        })
    }

    /// Generate `n` records with `f(i)` spread over `partitions` partitions
    /// (computed on the simulated workers, in parallel for real).
    pub fn generate<T: Data>(
        &self,
        n: u64,
        partitions: usize,
        f: impl Fn(u64) -> T + Send + Sync + 'static,
    ) -> Bag<T> {
        let engine = self.clone();
        let partitions = partitions.max(1);
        let bytes = Bag::<T>::default_record_bytes();
        Bag::new(self.clone(), "generate", bytes, partitions, move || {
            let chunk = n.div_ceil(partitions as u64);
            let parts: Vec<Vec<T>> = pool::parallel_map_range(partitions, |p| {
                let p = p as u64;
                ((p * chunk).min(n)..((p + 1) * chunk).min(n)).map(&f).collect()
            });
            let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
            engine.charge_compute(&counts, bytes, true)?;
            Ok(Parts::new(parts))
        })
    }

    /// An empty bag with one (empty) partition.
    pub fn empty<T: Data>(&self) -> Bag<T> {
        self.parallelize(Vec::new(), 1)
    }

    /// Ship `value` to every worker as a read-only broadcast variable.
    ///
    /// `bytes` is the modeled serialized size; the simulated memory model
    /// rejects broadcasts that cannot fit on a single machine (the failure
    /// mode of broadcast joins in the paper's Fig. 8).
    pub fn broadcast<T: Data>(&self, value: T, bytes: u64) -> Result<Broadcast<T>> {
        self.charge_broadcast("broadcast", bytes)?;
        Ok(Broadcast { value: Arc::new(value), bytes })
    }
}

/// A read-only value replicated to every simulated worker.
pub struct Broadcast<T> {
    value: Arc<T>,
    bytes: u64,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast { value: Arc::clone(&self.value), bytes: self.bytes }
    }
}

impl<T> Broadcast<T> {
    /// Access the broadcast value.
    pub fn value(&self) -> &T {
        &self.value
    }
    /// Modeled serialized size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_roundtrips() {
        let e = Engine::local();
        let b = e.parallelize((0..97).collect::<Vec<u32>>(), 8);
        assert_eq!(b.num_partitions(), 8);
        assert_eq!(b.collect().unwrap(), (0..97).collect::<Vec<u32>>());
        let sizes = |n: u32, p: usize| {
            let parts = e.parallelize((0..n).collect::<Vec<u32>>(), p).collect_partitions();
            parts.unwrap().iter().map(Vec::len).collect::<Vec<_>>()
        };
        assert_eq!(sizes(97, 8), [13, 13, 13, 13, 13, 13, 13, 6]);
        assert_eq!(sizes(3, 5), [1, 1, 1, 0, 0]);
        assert_eq!(sizes(0, 2), [0, 0]);
    }

    #[test]
    fn generate_matches_parallelize() {
        let e = Engine::local();
        let g = e.generate(100, 5, |i| i * i);
        assert_eq!(g.collect().unwrap(), (0..100).map(|i| i * i).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_bag_is_empty() {
        let e = Engine::local();
        assert_eq!(e.empty::<u8>().count().unwrap(), 0);
        assert!(e.empty::<u8>().is_empty().unwrap());
    }

    #[test]
    fn broadcast_small_value_ok() {
        let e = Engine::local();
        let b = e.broadcast(vec![1, 2, 3], 24).unwrap();
        assert_eq!(b.value().len(), 3);
        assert_eq!(b.bytes(), 24);
        assert_eq!(e.stats().broadcast_bytes, 24);
    }

    #[test]
    fn engines_are_distinguishable() {
        let a = Engine::local();
        let b = Engine::local();
        assert!(a.same_as(&a));
        assert!(!a.same_as(&b));
    }

    #[test]
    fn zero_partitions_clamped() {
        let e = Engine::local();
        let b = e.parallelize(vec![1], 0);
        assert_eq!(b.num_partitions(), 1);
        assert_eq!(b.collect().unwrap(), vec![1]);
    }
}
