//! The reference backend: per-row scatter/gather dots, exactly the loop
//! structure the kernel oracle used before the backend seam existed.

use crate::scratch::with_scatter_scratch;
use crate::{cost, ComputeBackend, KernelContext};
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::Executor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::ops::Range;

/// Per-row scatter/gather backend — the pre-seam reference path, pinned
/// bit-identical by the integration goldens.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn batch_kernel_rows(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64 {
        // `>=` so callers can reuse an over-sized persistent scratch block
        // (the allocation-free ensure hot path); only the first
        // `row_ids.len()` rows are written.
        assert!(out.nrows() >= row_ids.len(), "output row mismatch");
        assert_eq!(out.ncols(), cols.len(), "output col mismatch");
        if row_ids.is_empty() || cols.is_empty() {
            return 0;
        }
        let evals = cost::charge_row_batch(ctx, exec, row_ids, cols.len() as u64);
        fill_rows(ctx, ctx.data, row_ids, ctx.norms, cols, out);
        evals
    }

    fn test_sv_matrix(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        test: &CsrMatrix,
        test_rows: &[usize],
        test_norms: &[f64],
        out: &mut DenseMatrix,
    ) -> u64 {
        let n = ctx.data.nrows();
        assert!(out.nrows() >= test_rows.len(), "output row mismatch");
        assert_eq!(out.ncols(), n, "output col mismatch");
        assert_eq!(test.ncols(), ctx.data.ncols(), "dimension mismatch");
        assert_eq!(test_norms.len(), test.nrows(), "norms must cover all rows");
        if test_rows.is_empty() || n == 0 {
            return 0;
        }
        let evals = cost::charge_cross_batch(ctx, exec, test, test_rows);
        fill_rows(ctx, test, test_rows, test_norms, 0..n, out);
        evals
    }
}

/// Fill `out[bi][..] = K(src[src_rows[bi]], data[j])` for `j` in `cols`.
/// One routine covers both hot ops: the working-set batch is the
/// `src == ctx.data` case, the test × SV matrix is `src == test` with
/// `cols == 0..data.nrows()`.
fn fill_rows(
    ctx: &KernelContext<'_>,
    src: &CsrMatrix,
    src_rows: &[usize],
    src_norms: &[f64],
    cols: Range<usize>,
    out: &mut DenseMatrix,
) {
    let data = ctx.data;
    let kind = ctx.kind;
    let norms = ctx.norms;
    let ncols = data.ncols();
    let rows = &mut out.as_mut_slice()[..src_rows.len() * cols.len()];
    // Each batch row is independent: scatter the source row once, then
    // gather-dot every target row in the range and apply the kernel map.
    for_each_chunk(ctx.host_threads, cols.len(), rows, |first, piece| {
        with_scatter_scratch(ncols, |scratch| {
            for (out_row, &r) in piece.chunks_mut(cols.len()).zip(&src_rows[first..]) {
                let row = src.row(r);
                row.scatter(scratch);
                let norm_r = src_norms[r];
                for (o, j) in out_row.iter_mut().zip(cols.clone()) {
                    let dot = data.row(j).dot_dense(scratch);
                    *o = kind.eval(dot, norm_r, norms[j]);
                }
                row.clear_scatter(scratch);
            }
        });
    });
}
