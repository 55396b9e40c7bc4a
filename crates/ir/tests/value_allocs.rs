//! Allocation-count pin for `Value` tuples.
//!
//! A tuple is one heap object (`Arc<[Value]>`), and a compiled UDF that
//! builds a pair per record builds it from an array: one allocation per
//! record. The representation this replaced (an `Arc` of a `Vec`, built from
//! a collected `Vec`) made two. Counted by a std-only
//! `#[global_allocator]`, as `crates/engine/tests/scatter_allocs.rs` does,
//! so the assertion does not depend on the host's speed. One test in this
//! binary: nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use matryoshka_ir::ast::Expr;
use matryoshka_ir::{CompiledUdf, Value};

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

const RECORDS: i64 = 10_000;
/// The frame buffer's first growth and the harness.
const SLACK: usize = 64;

#[test]
fn a_pair_building_udf_allocates_once_per_record() {
    // v => (v.0, 1)
    let body = Expr::Tuple(vec![Expr::proj(Expr::var("v"), 0), Expr::long(1)]);
    let udf = CompiledUdf::new(&Arc::new(body), &["v"], HashMap::new(), false);
    let records: Vec<Value> =
        (0..RECORDS).map(|i| Value::tuple(vec![Value::Long(i), Value::str("x")])).collect();
    let mut out = Vec::with_capacity(records.len());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for r in &records {
        out.push(udf.eval1(r).unwrap());
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out[7], Value::tuple(vec![Value::Long(7), Value::Long(1)]));
    assert!(
        allocations <= RECORDS as usize + SLACK,
        "{allocations} allocations for {RECORDS} output pairs: a tuple is one heap object"
    );
}
