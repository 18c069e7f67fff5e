//! The reference backend: a column walk over the target matrix's cached
//! transpose ([`CsrMatrix::columns`]), touching only the targets that
//! share a feature with the source row.

use crate::{cost, ComputeBackend, KernelContext};
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::Executor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::ops::Range;

/// Column-walk backend — the reference path, pinned bit-identical by the
/// integration goldens.
///
/// Each value is the sum of the products over the features both rows
/// store, added in increasing feature order, then mapped by
/// [`crate::KernelKind::eval`]. [`crate::BlockedBackend`]'s per-pair loop
/// adds the same products in the same order plus one exact `±0` product
/// per feature only the target stores; for finite values those never
/// change a sum that starts at `+0.0`, so the two agree bit for bit.
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
    let columns = ctx.data.columns();
    let kind = ctx.kind;
    let norms = &ctx.norms[cols.clone()];
    let (lo, hi) = (cols.start as u32, cols.end as u32);
    let rows = &mut out.as_mut_slice()[..src_rows.len() * cols.len()];
    // Each batch row is independent: the output row doubles as the dot
    // accumulator. Every source nonzero `(c, s)` adds `v * s` to the
    // targets stored in column `c` (restricted to `cols`; its row ids are
    // sorted), then the kernel map runs in place.
    for_each_chunk(ctx.host_threads, cols.len(), rows, |first, piece| {
        for (out_row, &r) in piece.chunks_mut(cols.len()).zip(&src_rows[first..]) {
            out_row.fill(0.0);
            let row = src.row(r);
            // Features past the column view's last row store nothing.
            let stored = row
                .indices
                .partition_point(|&c| (c as usize) < columns.nrows());
            for (&c, &s) in row.indices[..stored].iter().zip(row.values) {
                let col = columns.row(c as usize);
                let a = col.indices.partition_point(|&j| j < lo);
                let b = a + col.indices[a..].partition_point(|&j| j < hi);
                for (&j, &v) in col.indices[a..b].iter().zip(&col.values[a..b]) {
                    out_row[(j - lo) as usize] += v * s;
                }
            }
            let norm_r = src_norms[r];
            for (o, &norm_j) in out_row.iter_mut().zip(norms) {
                *o = kind.eval(*o, norm_r, norm_j);
            }
        }
    });
}
