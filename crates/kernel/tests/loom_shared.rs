//! Loom model-check of the `SharedKernelStore` single-flight protocol.
//!
//! Run with: `cargo test -p gmp-kernel --features loom --test loom_shared`
//!
//! Every lock/condvar the store takes goes through `gmp-sync`, so inside
//! `loom::model` the scheduler exhaustively interleaves two fetching
//! threads (preemption-bounded). The model proves, over every explored
//! schedule:
//!
//! - **no double compute**: with ample capacity, each segment is computed
//!   exactly once no matter how the threads race (the oracle's eval count
//!   equals the sequential count);
//! - **no torn reads**: every value a fetch returns equals the direct
//!   kernel evaluation, including values obtained by waiting on another
//!   thread's `Pending` computation;
//! - **exact owner attribution**: per-call `FetchOutcome.evals` sum to the
//!   oracle's total — a value is charged to exactly one caller;
//! - **no lost wakeups / deadlocks**: a schedule where a `Pending` waiter
//!   never wakes shows up as a model deadlock.
//!
//! The second model starves the byte budget so the un-publish path (budget
//! full of protected segments) and the waiter's recompute-uncached path
//! are also explored. The third makes the first launch panic: its owner
//! must hand its `Pending` markers back so no waiter is stranded.
#![cfg(feature = "loom")]

use gmp_gpusim::{CpuExecutor, Executor};
use gmp_kernel::shared::FetchOutcome;
use gmp_kernel::{
    ClassLayout, ComputeBackend, ComputeBackendKind, KernelContext, KernelKind, KernelOracle,
    SharedKernelStore,
};
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Two instances, one per class: x0 = (1,0) in class 0, x1 = (0,1) in
/// class 1. RBF(γ=1): K(i,i) = 1, K(0,1) = exp(-2).
fn tiny_store(capacity_bytes: u64) -> Arc<SharedKernelStore> {
    tiny_store_on(capacity_bytes, ComputeBackendKind::from_env().instance())
}

fn tiny_store_on(capacity_bytes: u64, backend: Arc<dyn ComputeBackend>) -> Arc<SharedKernelStore> {
    let data = Arc::new(CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]], 2));
    let oracle =
        Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma: 1.0 }).with_backend(backend));
    Arc::new(
        SharedKernelStore::new(
            oracle,
            ClassLayout::new(vec![0, 1, 2]),
            capacity_bytes,
            None,
        )
        .expect("host-only store"),
    )
}

/// Fetch both rows of pair (0,1) and check every value against the closed
/// form — a torn or misplaced segment fails here.
fn fetch_and_check(st: &SharedKernelStore) -> FetchOutcome {
    let e = CpuExecutor::xeon(1);
    let mut out = DenseMatrix::zeros(2, 2);
    let outcome = st.fetch_pair_rows(&e, &[0, 1], 0, 1, &mut out);
    let off = (-2.0f64).exp();
    for ri in 0..2 {
        for col in 0..2 {
            let expect = if ri == col { 1.0 } else { off };
            assert!(
                (out.get(ri, col) - expect).abs() < 1e-12,
                "row {ri} col {col}: got {} want {expect}",
                out.get(ri, col)
            );
        }
    }
    outcome
}

#[test]
fn single_flight_computes_each_segment_once() {
    loom::model(|| {
        // Ample capacity: all 4 width-1 segments fit.
        let st = tiny_store(1 << 10);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                loom::thread::spawn(move || fetch_and_check(&st))
            })
            .collect();
        let outcomes: Vec<FetchOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread panicked"))
            .collect();

        // No double compute: 4 segments of width 1, each exactly once.
        assert_eq!(st.oracle().eval_count(), 4, "a segment was recomputed");
        let stats = st.stats();
        assert_eq!(stats.segments_computed, 4);
        // 8 requests total = 4 computed + 4 hits (ready or waited).
        assert_eq!(stats.segment_hits, 4);
        assert_eq!(stats.evals_saved, 4);
        // Owner attribution: per-call charges sum to the oracle total,
        // and every request resolved as exactly one of computed/hit.
        let evals: u64 = outcomes.iter().map(|o| o.evals).sum();
        let computed: u64 = outcomes.iter().map(|o| o.computed).sum();
        let hits: u64 = outcomes.iter().map(|o| o.hits).sum();
        assert_eq!(evals, st.oracle().eval_count());
        assert_eq!(computed, 4);
        assert_eq!(hits, 4);
    });
}

#[test]
fn eviction_pressure_keeps_accounting_exact() {
    loom::model(|| {
        // Budget of one 8-byte segment while both fetched instances are
        // eviction-protected: inserts fail, published segments un-publish,
        // and Pending waiters fall into the recompute-uncached path.
        let st = tiny_store(8);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                loom::thread::spawn(move || fetch_and_check(&st))
            })
            .collect();
        let outcomes: Vec<FetchOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("fetch thread panicked"))
            .collect();

        // Under pressure segments may be recomputed (the cache cannot hold
        // them), but attribution must stay exact and every request must
        // resolve.
        let evals: u64 = outcomes.iter().map(|o| o.evals).sum();
        let computed: u64 = outcomes.iter().map(|o| o.computed).sum();
        let hits: u64 = outcomes.iter().map(|o| o.hits).sum();
        assert_eq!(
            evals,
            st.oracle().eval_count(),
            "owner attribution drifted from the oracle total"
        );
        assert_eq!(computed + hits, 8, "a segment request was lost");
        assert!(computed >= 4, "four distinct segments must be computed");
        let stats = st.stats();
        assert_eq!(stats.segments_computed, computed);
        assert_eq!(stats.segment_hits, hits);
        // The budget is never exceeded.
        assert!(st.used_bytes() <= 8);
    });
}

/// A backend whose first kernel-row launch panics; later launches run on
/// the default backend. The panic goes through `resume_unwind`, which skips
/// the hook the model uses to fail a schedule on any panic: this one is the
/// scenario under test, not a bug.
struct FailFirstLaunch(AtomicBool, Arc<dyn ComputeBackend>);

impl ComputeBackend for FailFirstLaunch {
    fn name(&self) -> &'static str {
        "fail-first-launch"
    }

    fn batch_kernel_rows(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64 {
        if !self.0.swap(true, Ordering::SeqCst) {
            std::panic::resume_unwind(Box::new("injected launch failure"));
        }
        self.1.batch_kernel_rows(ctx, exec, row_ids, cols, out)
    }

    fn test_sv_matrix(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        test: &CsrMatrix,
        rows: &[usize],
        norms: &[f64],
        out: &mut DenseMatrix,
    ) -> u64 {
        self.1.test_sv_matrix(ctx, exec, test, rows, norms, out)
    }
}

#[test]
fn panicking_owner_never_strands_a_waiter() {
    loom::model(|| {
        let inner = ComputeBackendKind::from_env().instance();
        let st = tiny_store_on(
            1 << 10,
            Arc::new(FailFirstLaunch(AtomicBool::new(false), inner)),
        );
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                loom::thread::spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| fetch_and_check(&st))).is_ok()
                })
            })
            .collect();
        let finished: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The panicking launch's owner caught it; the other fetch got the
        // direct kernel values (checked in `fetch_and_check`), by a hit or
        // by computing a segment it had been waiting for.
        assert_eq!(finished.iter().filter(|&&ok| ok).count(), 1);
        // No `Pending` marker outlived the panic: a stranded one would block
        // this fetch forever, which the model reports as a deadlock.
        fetch_and_check(&st);
    });
}
