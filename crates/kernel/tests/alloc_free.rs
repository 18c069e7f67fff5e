//! Steady-state allocation audit of the solver's row hot path.
//!
//! `KernelRows::ensure` runs once per working-set round, thousands of
//! times per training run; after warm-up it must never touch the heap.
//! A counting global allocator proves it for both row providers: cycles
//! that miss, evict, and refill rows perform zero allocations once every
//! scratch structure has grown to its steady-state size.
//!
//! This is its own integration-test binary because `#[global_allocator]`
//! is process-global: it must not interfere with the unit-test binary.

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is
// inherently unsafe, and this counting pass-through is the one exception.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gmp_gpusim::CpuExecutor;
use gmp_kernel::{
    BufferedRows, ClassLayout, KernelKind, KernelOracle, KernelRows, ReplacementPolicy,
    SharedKernelStore, SharedRows,
};
use gmp_sparse::CsrMatrix;

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a counter bump; layout
// contracts are forwarded unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller was required to make valid.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller was required to make valid.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded verbatim from
        // the caller, who owns their validity.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (which delegates
        // to `System`) with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_ensure_does_not_allocate() {
    // 8 instances, buffer capacity 4: each cycle below misses, evicts and
    // recomputes, exercising the full miss + insert + eviction machinery.
    let rows_dense: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..6)
                .map(|j| ((i * 7 + j * 3) % 11) as f64 * 0.25)
                .collect()
        })
        .collect();
    let data = Arc::new(CsrMatrix::from_dense(&rows_dense, 6));
    let oracle = Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma: 0.5 }));
    let mut provider =
        BufferedRows::new(oracle.clone(), 4, ReplacementPolicy::FifoBatch, None).unwrap();
    // GMP's provider over two classes of 4, with an ample store budget:
    // after warm-up every segment a refill needs is a store hit.
    let layout = ClassLayout::new(vec![0, 4, 8]);
    let store = Arc::new(SharedKernelStore::new(oracle, layout, 1 << 20, None).unwrap());
    let mut shared = SharedRows::new(store.clone(), 0, 1, 4);
    let exec = CpuExecutor::xeon(1);

    let cycle = |p: &mut dyn KernelRows, e: &CpuExecutor| {
        p.ensure(e, &[0, 1, 2, 3]);
        let _ = p.row(0)[5];
        p.ensure(e, &[4, 5, 6, 7]); // evicts 0..4
        let _ = p.row(7)[0];
        p.ensure(e, &[0, 1]); // partial refill
        let _ = p.row(1)[3];
    };

    // Warm-up: grow every scratch structure (miss lists, batch-Vec pool,
    // dense block, the data's cached column view or the blocked backend's
    // thread-local panel) to its steady-state footprint.
    for _ in 0..3 {
        cycle(&mut provider, &exec);
        cycle(&mut shared, &exec);
    }

    let segments = store.stats().segments_computed;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..5 {
        cycle(&mut provider, &exec);
        cycle(&mut shared, &exec);
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state ensure cycles allocated {} times",
        after - before
    );
    // The cycles above really did work: rows were recomputed each round,
    // and the shared refills were all served by the store.
    assert!(provider.stats().rows_computed >= 3 * 10);
    assert!(shared.stats().buffer_misses >= 8 * 8);
    assert_eq!(store.stats().segments_computed, segments);
}
