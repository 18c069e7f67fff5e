//! Allocation audit of the batched solver's rounds.
//!
//! Every per-round buffer (the fresh violators, the local working-set
//! arrays, the gathered kernel values, the moved-α list, the propagation's
//! row slices) is sized once per solve, so a solve allocates the same
//! number of times whether it runs 5 outer rounds or 50. A counting global
//! allocator checks it on `BufferedRows`, whose own steady state is
//! audited in `gmp-kernel`'s `alloc_free` test.
//!
//! This is its own integration-test binary because `#[global_allocator]`
//! is process-global: it must not interfere with the unit-test binary. For
//! the same reason it holds a single test: a second one running on another
//! thread would add its allocations to the count.

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is
// inherently unsafe, and this counting pass-through is the one exception.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gmp_gpusim::{CpuExecutor, Executor};
use gmp_kernel::{
    BufferedRows, KernelKind, KernelOracle, KernelRows, ReplacementPolicy, RowProviderStats,
};
use gmp_smo::{BatchedParams, BatchedSmoSolver, SmoParams};
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

/// Two overlapping 2-D blobs of `2 * n_per` points, labels ±1.
fn blobs(n_per: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..n_per {
        let t = i as f64 / n_per as f64;
        let jitter = ((i * 2654435761) % 97) as f64 / 97.0 - 0.5;
        x.push(vec![-0.3 + 0.8 * jitter, t + 0.5 * jitter]);
        y.push(-1.0);
        x.push(vec![0.3 - 0.8 * jitter, t - 0.5 * jitter]);
        y.push(1.0);
    }
    (x, y)
}

/// The whole kernel matrix, computed up front: a row provider that never
/// allocates, so a solve's count is the solver's own.
struct FullRows {
    n: usize,
    k: Vec<f64>,
}

impl KernelRows for FullRows {
    fn n(&self) -> usize {
        self.n
    }

    fn diag(&self, i: usize) -> f64 {
        self.k[i * self.n + i]
    }

    fn ensure(&mut self, _exec: &dyn Executor, _ids: &[usize]) {}

    fn row(&self, id: usize) -> &[f64] {
        &self.k[id * self.n..(id + 1) * self.n]
    }

    fn is_resident(&self, _id: usize) -> bool {
        true
    }

    fn stats(&self) -> RowProviderStats {
        RowProviderStats::default()
    }
}

fn solver() -> BatchedSmoSolver {
    BatchedSmoSolver::new(BatchedParams {
        base: SmoParams::with_c(4.0),
        ws_size: 8,
        q: 4,
        inner_relax: 0.1,
        max_inner: 64,
    })
}

/// Allocations of one solve on `rows` and its outer-round count.
fn counted(rows: &mut dyn KernelRows, y: &[f64]) -> (u64, u64) {
    let exec = CpuExecutor::xeon(1);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = solver().solve(y, rows, &exec);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(r.converged);
    (allocs, r.outer_rounds)
}

fn oracle(x: &[Vec<f64>]) -> Arc<KernelOracle> {
    let data = Arc::new(CsrMatrix::from_dense(x, 2));
    Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma: 2.0 }))
}

#[test]
fn solve_allocations_do_not_grow_with_outer_rounds() {
    let full = |n_per: usize| {
        let (x, y) = blobs(n_per);
        let o = oracle(&x);
        let n = y.len();
        let k = (0..n * n).map(|p| o.eval_pair(p / n, p % n)).collect();
        counted(&mut FullRows { n, k }, &y)
    };
    let (few_allocs, few_rounds) = full(4);
    let (many_allocs, many_rounds) = full(300);
    assert!(few_rounds <= 6, "{few_rounds} rounds");
    assert!(many_rounds >= 50, "{many_rounds} rounds");
    assert_eq!(
        many_allocs, few_allocs,
        "{many_rounds} rounds allocated {many_allocs} times, {few_rounds} rounds {few_allocs} times"
    );

    // On a warmed `BufferedRows` the provider's own scratch (miss list,
    // launch block, recycled batch vectors) may still grow in a later
    // round, but by a bounded amount, never once per round.
    let buffered = |n_per: usize| {
        let (x, y) = blobs(n_per);
        let mut rows =
            BufferedRows::new(oracle(&x), 8, ReplacementPolicy::FifoBatch, None).unwrap();
        counted(&mut rows, &y)
    };
    let (buffered_few, _) = buffered(4);
    let (buffered_many, many_rounds) = buffered(300);
    assert!(many_rounds >= 50, "{many_rounds} rounds");
    assert!(
        buffered_many < buffered_few + 16,
        "{many_rounds} rounds allocated {buffered_many} times, a short solve {buffered_few} times"
    );
}
