//! Regression test for the process-wide shared worker pool: concurrent
//! callers (e.g. two jobs of the multi-tenant service) must share one set of
//! workers instead of each spawning its own `host_parallelism()` threads.
//!
//! Before the shared pool, every parallel map spawned its own scoped
//! threads, so two interleaved jobs ran up to `2 x host_parallelism()`
//! compute threads — oversubscribing the host. Now at most
//! `shared_pool_workers()` persistent workers exist, plus each blocked
//! caller draining its own batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use matryoshka_engine::pool::{host_parallelism, parallel_map_range, shared_pool_workers};

/// Track the high-water mark of threads concurrently inside closures.
struct Gauge {
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { active: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    fn enter(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn interleaved_jobs_do_not_oversubscribe_cores() {
    let callers = 4;
    let gauge = Arc::new(Gauge::new());
    let barrier = Arc::new(Barrier::new(callers));
    let handles: Vec<_> = (0..callers)
        .map(|_| {
            let gauge = Arc::clone(&gauge);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Line all callers up so their batches overlap in the pool.
                barrier.wait();
                for _ in 0..20 {
                    let out = parallel_map_range(512, |i| {
                        gauge.enter();
                        // Enough work that claims from distinct batches
                        // genuinely overlap in time.
                        let v = (0..500u64).fold(i as u64, |a, b| a.wrapping_add(b ^ i as u64));
                        gauge.exit();
                        v
                    });
                    assert_eq!(out.len(), 512);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread panicked");
    }

    // The only threads that ever run closures are the shared workers plus
    // the callers themselves (each drains its own batch while it waits).
    let bound = shared_pool_workers() + callers;
    let peak = gauge.peak.load(Ordering::SeqCst);
    assert!(
        peak <= bound,
        "peak concurrent compute threads {peak} exceeded shared-pool bound {bound} \
         (host_parallelism = {})",
        host_parallelism()
    );
    assert!(peak >= 1, "work must have run");
}

/// Two sequential "jobs" are served by the same persistent, named pool
/// workers — never by threads spawned per call. Item 0 of each job holds its
/// claimant (for at most 5 s) until a second thread has joined, so a worker
/// provably takes part in both jobs instead of racing the caller for them.
#[test]
fn two_jobs_share_the_same_worker_threads() {
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    if shared_pool_workers() == 0 {
        return; // 1-core host: the caller runs everything itself
    }
    let me = std::thread::current().id();
    let job = || {
        let seen: Mutex<HashMap<ThreadId, String>> = Mutex::new(HashMap::new());
        let joined = Condvar::new();
        let _ = parallel_map_range(4096, |i| {
            let current = std::thread::current();
            let mut ids = seen.lock().unwrap();
            ids.insert(current.id(), current.name().unwrap_or("<unnamed>").to_string());
            joined.notify_all();
            if i == 0 {
                let _ = joined
                    .wait_timeout_while(ids, Duration::from_secs(5), |ids| ids.len() < 2)
                    .unwrap();
            }
            i
        });
        let mut helpers = seen.into_inner().unwrap();
        helpers.remove(&me);
        assert!(!helpers.is_empty(), "no pool worker joined the job within 5 s");
        helpers
    };
    let mut helpers = job();
    helpers.extend(job());
    assert!(
        helpers.values().all(|name| name.starts_with("matryoshka-pool-")),
        "only the caller and persistent pool workers may run a job's items: {helpers:?}"
    );
    assert!(
        helpers.len() <= shared_pool_workers(),
        "{} distinct helper threads across two jobs, but the pool has {} workers",
        helpers.len(),
        shared_pool_workers()
    );
}
