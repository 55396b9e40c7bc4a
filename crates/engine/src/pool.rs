//! Real (wall-clock) parallel execution of partition work on a shared,
//! process-wide worker pool.
//!
//! The engine evaluates each operator's partitions in parallel on the host
//! machine. This is orthogonal to the *simulated* cluster model: the pool
//! makes test and benchmark runs fast; the simulator decides what the
//! program would cost on the modeled cluster.
//!
//! ## One pool per process, not one per call
//!
//! The one entry point, [`parallel_map_range`], drains its work through a
//! single lazily-started set of persistent worker threads
//! ([`shared_pool_workers`] of them) plus the calling thread itself, which
//! participates until its own call completes. Concurrent callers — e.g. two
//! jobs of the multi-tenant service executing at once — therefore *share*
//! the same workers instead of each spawning `host_parallelism()` threads:
//! the process never oversubscribes the host no matter how many jobs run
//! (regression-tested in `tests/pool_sharing.rs`). Calls may also nest (a
//! worker's closure may itself call [`parallel_map_range`]): the nested caller
//! helps drain its own batch, so no new threads are created and progress
//! never depends on a free worker.
//!
//! ## No per-call host query
//!
//! Nothing is spawned or queried per call either: [`host_parallelism`] reads
//! the host's parallelism once per process, and the pool sizes itself from
//! that same value, so handing a batch to the workers costs the caller ~1 µs
//! on a 2-core host (`engine.pool.dispatch_us` in the benchmark, which times
//! the caller's side only; 15 µs or more means the parallelism is being
//! re-read per call). The caller starts on its own batch at once, but an
//! idle worker wakes later: on the same host it starts its first item ~16 µs
//! (p50; p90 20 µs) after the submit, so a call with less than ~30 µs of
//! work per thread gains little or nothing from the second core.
//!
//! ## Determinism
//!
//! The output is index-aligned with the index range regardless of which
//! thread ran which index, so results are bit-identical to a sequential loop
//! — scheduling only affects wall-clock time, never values or the simulated
//! clock.

// Every unsafe operation must sit in its own `unsafe` block with a
// `// SAFETY:` justification, even inside `unsafe fn` bodies.
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads to use for real execution (the host's available
/// parallelism; callers of the shared pool count toward this budget).
///
/// Read once per process, like the pool's worker count: on Linux each read
/// re-parses the affinity mask and the cgroup CPU quota (15–22 µs on a 2-core
/// host), which every [`parallel_map_range`] and every scatter would
/// otherwise pay.
pub fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// Number of persistent worker threads in the shared pool: one less than
/// [`host_parallelism`], because the calling thread always participates in
/// draining its own batch.
pub fn shared_pool_workers() -> usize {
    host_parallelism().saturating_sub(1)
}

/// A vector of write-once output slots that worker threads access disjointly
/// by index.
///
/// Each index is touched by exactly one worker (ownership of an index is
/// claimed through an atomic cursor before any access), so the unsynchronized
/// interior mutability is race-free by construction.
struct SlotVec<T>(Vec<UnsafeCell<MaybeUninit<T>>>);

// SAFETY: slots are only accessed by the unique worker that claimed their
// index off the atomic cursor; distinct indices are distinct memory locations.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T> SlotVec<T> {
    fn uninit(n: usize) -> SlotVec<T> {
        SlotVec((0..n).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect())
    }

    /// Write `value` into slot `i`.
    ///
    /// # Safety
    /// The caller must hold the unique claim on index `i` and the slot must
    /// not be written more than once.
    unsafe fn put(&self, i: usize, value: T) {
        unsafe { (*self.0[i].get()).write(value) };
    }

    /// Move all values out, assuming every slot is initialized.
    ///
    /// # Safety
    /// Every slot must have been written exactly once.
    unsafe fn into_vec(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|slot| {
                // SAFETY: the caller guarantees all slots are initialized.
                unsafe { slot.into_inner().assume_init() }
            })
            .collect()
    }
}

/// An erased `&(dyn Fn(usize) + Sync)` pointing into the submitting call's
/// stack frame. The completion protocol of [`Batch`] guarantees the pointee
/// outlives every dereference (see `Batch::runner`).
struct RunnerPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread), and the
// pointer itself is only dereferenced while the submitting call keeps the
// closure alive (enforced by the batch completion protocol below).
unsafe impl Send for RunnerPtr {}
// SAFETY: as above — shared access to a `Sync` closure.
unsafe impl Sync for RunnerPtr {}

/// One submitted batch of indexed work: `runner(i)` for every `i in 0..n`.
///
/// ## Completion protocol (what makes the raw pointer sound)
///
/// - Indices are claimed in chunks off `cursor`; a claim is the *only* path
///   to invoking `runner`, and claims stop forever once `cursor >= n`.
/// - Every claimed index is eventually accounted into `state.remaining`
///   (successful chunks subtract their length; a panicking chunk subtracts
///   its length *and* the never-to-be-claimed tail after poisoning the
///   cursor).
/// - The submitting call returns only after `remaining == 0`, at which point
///   every `runner` invocation has returned and no new claim can succeed —
///   so the closure (and the slot vectors it captures) may safely leave
///   scope even though workers may still hold the `Arc<Batch>`.
struct Batch {
    cursor: AtomicUsize,
    n: usize,
    chunk: usize,
    runner: RunnerPtr,
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Claim and run chunks until no claimable work remains. Returns once
    /// this thread can contribute nothing more (other threads may still be
    /// running their claimed chunks).
    fn drive(&self) {
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.chunk).min(self.n);
            let run = catch_unwind(AssertUnwindSafe(|| {
                for i in start..end {
                    // SAFETY: `i` was claimed exactly once (the cursor only
                    // grows and hands out disjoint ranges) and the submitting
                    // call keeps the runner alive until `remaining == 0`,
                    // which cannot happen before this invocation is accounted
                    // below.
                    unsafe { (*self.runner.0)(i) };
                }
            }));
            match run {
                Ok(()) => self.account(end - start, None),
                Err(payload) => {
                    // Poison the cursor so no further chunk is ever claimed,
                    // then account both our chunk and the unclaimed tail so
                    // the submitter wakes up. Outputs already written leak
                    // (MaybeUninit never drops) — safe, and the submitter is
                    // about to rethrow the panic anyway.
                    let prev = self.cursor.swap(self.n, Ordering::Relaxed);
                    let unclaimed = self.n.saturating_sub(prev.min(self.n));
                    self.account((end - start) + unclaimed, Some(payload));
                    return;
                }
            }
        }
    }

    /// Account `k` indices as settled; the first panic payload wins.
    fn account(&self, k: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("pool batch lock poisoned");
        st.remaining -= k;
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// The process-wide pool: a FIFO of active batches served by persistent
/// worker threads.
struct SharedPool {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work: Condvar,
}

impl SharedPool {
    /// Pop the oldest batch that still has claimable work, pruning exhausted
    /// batches (cursor past the end — their remaining chunks are finishing
    /// on the threads that claimed them).
    fn next_batch(queue: &mut VecDeque<Arc<Batch>>) -> Option<Arc<Batch>> {
        while let Some(front) = queue.front() {
            if front.cursor.load(Ordering::Relaxed) >= front.n {
                queue.pop_front();
            } else {
                return queue.front().cloned();
            }
        }
        None
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().expect("pool queue lock poisoned");
                loop {
                    if let Some(b) = Self::next_batch(&mut q) {
                        break b;
                    }
                    q = self.work.wait(q).expect("pool queue lock poisoned");
                }
            };
            batch.drive();
        }
    }
}

fn shared_pool() -> &'static SharedPool {
    static POOL: OnceLock<&'static SharedPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static SharedPool = Box::leak(Box::new(SharedPool {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        }));
        for i in 0..shared_pool_workers() {
            std::thread::Builder::new()
                .name(format!("matryoshka-pool-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
        }
        pool
    })
}

/// Submit `runner(i)` for `0..n` to the shared pool and drain it, with this
/// thread participating. Panics from `runner` are rethrown here after every
/// claimed index has settled.
fn run_shared(n: usize, chunk: usize, runner: &(dyn Fn(usize) + Sync)) {
    // SAFETY: pure lifetime erasure on the trait-object pointer (identical
    // layout); the completion protocol guarantees the pointee outlives every
    // dereference (see `Batch`).
    let runner: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(runner as *const (dyn Fn(usize) + Sync + '_)) };
    let batch = Arc::new(Batch {
        cursor: AtomicUsize::new(0),
        n,
        chunk: chunk.max(1),
        runner: RunnerPtr(runner),
        state: Mutex::new(BatchState { remaining: n, panic: None }),
        done: Condvar::new(),
    });
    let pool = shared_pool();
    {
        let mut q = pool.queue.lock().expect("pool queue lock poisoned");
        q.push_back(Arc::clone(&batch));
    }
    pool.work.notify_all();
    // The caller helps drain its own batch: ensures progress even when every
    // worker is busy (or when the pool has zero workers on a 1-core host),
    // and keeps nested calls deadlock-free.
    batch.drive();
    let mut st = batch.state.lock().expect("pool batch lock poisoned");
    while st.remaining > 0 {
        st = batch.done.wait(st).expect("pool batch lock poisoned");
    }
    if let Some(payload) = st.panic.take() {
        drop(st);
        resume_unwind(payload);
    }
}

/// Chunk granule for `n` items across the effective thread budget: small
/// claim granules keep skewed items from hiding behind light ones while
/// still amortizing the cursor traffic for very long inputs.
fn chunk_for(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).max(1)
}

/// Apply `f` to every index in `0..n` in parallel, preserving order.
///
/// # Ordering guarantee
///
/// The output is index-aligned: `result[i] == f(i)` for every `i`,
/// regardless of which worker ran which index or in what order they
/// finished. Callers index the inputs they hold (a partition per index).
///
/// # Scheduling
///
/// Threads (shared-pool workers plus the caller) claim small index ranges
/// off an atomic cursor (no per-call thread spawning, no mutex on the hot
/// path, no channel): claiming is one `fetch_add`, and each output is
/// written to a pre-allocated write-once slot. Skewed items therefore never
/// serialize behind a static chunking, and the fast path allocates exactly
/// one output buffer.
///
/// Panics in `f` propagate to the caller once every claimed index has
/// settled. (A panicking run leaks already-produced outputs — safe, and
/// irrelevant since the caller is unwinding the whole job.)
pub fn parallel_map_range<O, F>(n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = host_parallelism().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let outputs: SlotVec<O> = SlotVec::uninit(n);
    let runner = |i: usize| {
        let out = f(i);
        // SAFETY: `i` was claimed exactly once by the batch cursor, so the
        // slot is written once and read only after the batch completes.
        unsafe { outputs.put(i, out) };
    };
    run_shared(n, chunk_for(n, threads), &runner);
    // SAFETY: each slot was written exactly once by its unique claimant.
    unsafe { outputs.into_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn range_maps_in_order() {
        let out = parallel_map_range(10_000, |i| i * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn range_empty_and_single() {
        assert!(parallel_map_range(0, |i| i).is_empty());
        assert_eq!(parallel_map_range(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn maps_in_order() {
        let items: Vec<i32> = (0..100).collect();
        let out = parallel_map_range(items.len(), |i| (i as i32) + items[i]);
        assert_eq!(out, (0..100).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn maps_in_order_for_large_inputs() {
        // Many more items than threads: every chunk boundary is exercised.
        let items: Vec<u64> = (0..10_000).collect();
        let out = parallel_map_range(items.len(), |i| (i as u64) * 1_000_000 + items[i]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 1_000_000 + i as u64);
        }
    }

    #[test]
    fn empty_input() {
        let items: Vec<i32> = Vec::new();
        assert!(parallel_map_range(items.len(), |i| items[i]).is_empty());
    }

    #[test]
    fn single_item() {
        let items = [41];
        assert_eq!(parallel_map_range(items.len(), |i| items[i] + 1), vec![42]);
    }

    /// A second thread *can* join a batch: item 0 holds its claimant (for
    /// at most 5 s) until another thread has recorded itself, so the batch
    /// cannot be drained by one thread before the other wakes up.
    #[test]
    fn a_second_thread_joins_a_batch_in_progress() {
        use std::collections::HashSet;
        use std::time::Duration;
        if host_parallelism() < 2 {
            return; // the sequential fast path never touches the pool
        }
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let joined = Condvar::new();
        let _ = parallel_map_range(64, |i| {
            let mut ids = seen.lock().unwrap();
            ids.insert(std::thread::current().id());
            joined.notify_all();
            if i == 0 {
                let _ = joined
                    .wait_timeout_while(ids, Duration::from_secs(5), |ids| ids.len() < 2)
                    .unwrap();
            }
            i
        });
        assert!(seen.lock().unwrap().len() > 1, "no second thread joined within 5 s");
    }

    #[test]
    fn skewed_items_still_complete() {
        // One heavy item and many light ones: dynamic distribution finishes
        // them all.
        let out = parallel_map_range(32, |i| {
            if i == 0 {
                (0..200_000u64).sum::<u64>() % 97
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 32);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            parallel_map_range(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err(), "a panicking worker must fail the whole map");
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        // A batch that panics must not wedge the shared workers: subsequent
        // batches still complete.
        let _ = std::panic::catch_unwind(|| {
            parallel_map_range(64, |i| {
                if i % 3 == 0 {
                    panic!("recurring boom");
                }
                i
            })
        });
        let out = parallel_map_range(128, |i| i as u64 + 1);
        assert_eq!(out, (1..=128).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_calls_complete() {
        // A worker's closure may itself submit a batch; the nested caller
        // drains its own work, so this terminates even with zero free
        // workers.
        let out = parallel_map_range(8, |x| {
            parallel_map_range(16, |i| (i * x) as u64).iter().sum::<u64>()
        });
        let inner: u64 = (0..16u64).sum();
        assert_eq!(out, (0..8).map(|x| inner * x).collect::<Vec<_>>());
    }
}
