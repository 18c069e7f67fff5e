//! The compute-backend layer: one pluggable abstraction for the paper's
//! three hot ops, from SMO training to online serving.
//!
//! GMP-SVM's entire speedup story (§3.3.1, §3.5) reduces to three batched
//! device operations:
//!
//! 1. **Batched working-set kernel rows** — `K(x_r, x_j)` for a working
//!    set `r` against a column range `j`, one sparse×sparseᵀ product plus
//!    a fused scalar kernel map ([`ComputeBackend::batch_kernel_rows`]).
//! 2. **The test × SV matrix** — every test row against the support-vector
//!    pool ([`ComputeBackend::test_sv_matrix`]).
//! 3. **Row scoring** — decision values gathered from a kernel block with
//!    per-binary coefficients ([`ComputeBackend::score_rows`]).
//!
//! [`ComputeBackend`] owns the numeric loops *and* the simulated-cost
//! accounting for these ops, so call sites stop doing ad-hoc `KernelCost`
//! arithmetic. Two implementations prove the seam:
//!
//! * [`ScalarBackend`] — the reference path: a column walk over the
//!   target matrix's cached transpose ([`CsrMatrix::columns`]), adding
//!   each source nonzero's products only into the targets that store the
//!   same feature.
//! * [`BlockedBackend`] — the independent cross-check in the old per-pair
//!   order: mirrors CSR working-set rows into a cache-blocked row-major
//!   panel and fuses dot + kernel map.
//!
//! # Contracts every backend must honour
//!
//! * **Bit-identical values.** For finite inputs, a kernel value is the
//!   sum of the products over the features both rows store, added in
//!   increasing feature order from `+0.0`, then mapped by
//!   [`KernelKind::eval`]. Extra exact `±0` products (a feature only one
//!   side stores) never change such a sum, so every loop structure that
//!   keeps this order gives the same bits: backends are interchangeable
//!   mid-experiment and the Table-4 "same classifier everywhere" claim
//!   survives the seam.
//! * **Identical cost accounting.** Backends charge the shared [`cost`]
//!   helpers' launches verbatim: the cost model describes the *modeled
//!   device*, not the host loop structure, so swapping backends changes
//!   host wall-clock but never `sim_s`.
//! * **Exact eval counts.** The returned count is exactly
//!   `rows × width` — the owner-attributed number the shared store's slot
//!   ledger expects (audited under `debug-invariants`).

use gmp_gpusim::Executor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::ops::Range;

mod blocked;
pub mod cost;
pub mod functions;
mod scalar;
mod score;
mod select;

pub use blocked::BlockedBackend;
pub use functions::KernelKind;
pub use scalar::ScalarBackend;
pub use score::RowScorer;
pub use select::ComputeBackendKind;

/// Everything a backend needs to evaluate kernel values over a fixed
/// dataset: the (grouped) CSR matrix, its precomputed squared row norms,
/// the kernel function, and the real host threads it may use.
pub struct KernelContext<'a> {
    /// The dataset kernel values are evaluated over (targets).
    pub data: &'a CsrMatrix,
    /// Squared norms of every `data` row (RBF needs them; always supplied).
    pub norms: &'a [f64],
    /// The kernel function.
    pub kind: KernelKind,
    /// Real host threads the numeric work may use (accounting unaffected).
    pub host_threads: usize,
}

/// A device abstraction executing the three hot ops.
///
/// Methods return the number of kernel values computed; the caller (the
/// kernel oracle) owns the monotone eval counter so per-provider deltas
/// keep working. See the module docs for the contracts implementations
/// must honour.
pub trait ComputeBackend: Send + Sync {
    /// Short name for selection and reports (`"scalar"`, `"blocked"`).
    fn name(&self) -> &'static str;

    /// §3.3.1: kernel values `K(x_r, x_j)` for `r` in `row_ids`, `j` in
    /// `cols`, into the first `row_ids.len()` rows of `out` (width
    /// `cols.len()`), charged to `exec` as one batched launch. Returns
    /// `row_ids.len() * cols.len()` (0 when either side is empty).
    fn batch_kernel_rows(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64;

    /// §3.5: kernel values of `test` rows (`test_rows`, norms in
    /// `test_norms` indexed by global row id) against **every** row of
    /// `ctx.data` (the SV pool), into the first `test_rows.len()` rows of
    /// `out`. Charged as one batched launch; returns
    /// `test_rows.len() * ctx.data.nrows()`.
    fn test_sv_matrix(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        test: &CsrMatrix,
        test_rows: &[usize],
        test_norms: &[f64],
        out: &mut DenseMatrix,
    ) -> u64;

    /// Decision values from a kernel block: for each output row `ri` and
    /// each scorer, `out[ri][scorer.out_col] = Σ coef·block[ri][·] − rho`.
    /// Charged as one fused gather/multiply-add map. Other columns of the
    /// output rows are preserved.
    fn score_rows(
        &self,
        exec: &dyn Executor,
        block: &DenseMatrix,
        scorers: &[RowScorer<'_>],
        host_threads: usize,
        out: &mut [Vec<f64>],
    ) {
        score::score_rows_impl(exec, block, scorers, host_threads, out);
    }
}
