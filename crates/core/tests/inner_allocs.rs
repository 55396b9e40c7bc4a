//! Allocation-count pin for the lifted `flatMap`.
//!
//! `InnerBag::flat_map` hands each output element the input's tag through an
//! iterator, so what it allocates is its output partitions (each grown to
//! its size), not a collected `Vec` per input record. PageRank's
//! `edges.flat_map(|&(s, d)| [s, d])` made one such `Vec` per edge: about
//! half of a job's allocations. Counted by a std-only `#[global_allocator]`,
//! as `crates/engine/tests/scatter_allocs.rs` does, so the assertion does not
//! depend on the host's speed. One test in this binary: nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use matryoshka_core::{InnerBag, LiftingContext, MatryoshkaConfig};
use matryoshka_engine::{ClusterConfig, Engine};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const EDGES: u64 = 20_000;
const TAGS: u64 = 64;
const PARTITIONS: usize = 8;

#[test]
fn a_lifted_flat_map_allocates_nothing_per_input_record() {
    let engine = Engine::new(ClusterConfig::local_test());
    let tags = engine.parallelize((0..TAGS).collect(), 2);
    let ctx = LiftingContext::new(engine.clone(), tags, TAGS, MatryoshkaConfig::optimized());
    let edges: Vec<(u64, (u64, u64))> = (0..EDGES).map(|i| (i % TAGS, (i, i * 7 % 1000))).collect();
    let edges = InnerBag::from_repr(engine.parallelize(edges, PARTITIONS), ctx);
    assert_eq!(edges.repr().count().unwrap(), EDGES);

    let ends = edges.flat_map(|&(s, d)| [s, d]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let count = ends.repr().count().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(count, 2 * EDGES);
    // Each output partition doubles to its ~5,000 records (12 growths),
    // plus the pass's and the job's own handful.
    let bound = 32 * PARTITIONS + 64;
    assert!(
        allocations < bound,
        "{allocations} allocations for {EDGES} input records, want < {bound}"
    );
    let out = ends.collect().unwrap();
    assert_eq!(out[..4], [(0, 0), (0, 0), (1, 1), (1, 7)], "each element keeps its tag");
}
