//! The simulated-cost accounting contract shared by every backend.
//!
//! The cost model describes the *modeled device* executing a batched
//! launch — not the host loop structure a backend happens to use — so all
//! backends charge these helpers verbatim. Swapping backends changes host
//! wall-clock time but never `sim_s`, eval counts, or any other report
//! field; `tests/backend_equivalence.rs` pins this, and `perfbench`'s
//! scalar-vs-blocked layer rows rely on it.

use crate::KernelContext;
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::Executor;
use gmp_sparse::CsrMatrix;

/// Charge one §3.3.1 batched working-set launch (`row_ids` × a `width`-wide
/// column range of `ctx.data`) and return the kernel values it computes.
pub fn charge_row_batch(
    ctx: &KernelContext<'_>,
    exec: &dyn Executor,
    row_ids: &[usize],
    width: u64,
) -> u64 {
    let q = row_ids.len() as u64;
    let values = q * width;
    let data = ctx.data;
    let n = data.nrows().max(1);
    // Dot-product flops: proportional to data nnz per batch row
    // (scatter-gather touches every stored entry of the target range;
    // we approximate with the full-matrix density).
    let avg_nnz = data.nnz() as f64 / n as f64;
    let dot_flops = (2.0 * avg_nnz * values as f64) as u64;
    let batch_bytes: u64 = row_ids.iter().map(|&r| 12 * data.row(r).nnz() as u64).sum();
    // The whole target range of the data matrix is streamed once per
    // *batch* — the §3.3.1 amortization.
    let data_bytes = (data.mem_bytes() as f64 * width as f64 / n as f64) as u64;
    exec.charge(KernelCost::row_batch(
        q,
        width,
        dot_flops + values * ctx.kind.map_flops(),
        batch_bytes,
        data_bytes,
    ));
    values
}

/// Charge one §3.5 cross launch (`src_rows` of `src` against every row of
/// `ctx.data`) and return the kernel values it computes.
pub fn charge_cross_batch(
    ctx: &KernelContext<'_>,
    exec: &dyn Executor,
    src: &CsrMatrix,
    src_rows: &[usize],
) -> u64 {
    let values = (src_rows.len() * ctx.data.nrows()) as u64;
    let dot_flops = 2 * ctx.data.nnz() as u64 * src_rows.len() as u64;
    let batch_bytes: u64 = src_rows.iter().map(|&r| 12 * src.row(r).nnz() as u64).sum();
    exec.charge(KernelCost::row_batch(
        src_rows.len() as u64,
        ctx.data.nrows() as u64,
        dot_flops + values * ctx.kind.map_flops(),
        batch_bytes,
        ctx.data.mem_bytes() as u64,
    ));
    values
}
