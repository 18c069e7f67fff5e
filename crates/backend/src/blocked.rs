//! The cache-blocked backend: source rows are densified into a row-major
//! panel, and each target row is streamed **once per panel** instead of
//! once per source row.

use crate::{cost, ComputeBackend, KernelContext};
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::Executor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::ops::Range;

/// Panel budget: keep the densified source rows within ~4 MiB so the panel
/// stays L2/L3-resident while a target row streams across it.
const PANEL_BYTES: usize = 4 * 1024 * 1024;
/// Diminishing returns past this many panel rows.
const MAX_PANEL_ROWS: usize = 32;

/// Cache-blocked backend: CSR working-set rows are mirrored into a
/// row-major panel of densified rows; each target row's CSR entries are
/// then gathered against every panel row while they are hot, fusing the
/// dot product and the scalar kernel map.
///
/// It keeps the old per-pair order — iterate the target row's stored
/// entries in index order against a densified source row, then
/// [`crate::KernelKind::eval`] — so it is the independent cross-check of
/// [`crate::ScalarBackend`]'s column walk: the two agree bit for bit on
/// finite inputs. Blocking only reorders *which (source, target) pair* is
/// computed when, never the summation within one pair. On sparse data it
/// is the slower of the two, since it visits every stored target entry.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockedBackend;

impl ComputeBackend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn batch_kernel_rows(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64 {
        assert!(out.nrows() >= row_ids.len(), "output row mismatch");
        assert_eq!(out.ncols(), cols.len(), "output col mismatch");
        if row_ids.is_empty() || cols.is_empty() {
            return 0;
        }
        let evals = cost::charge_row_batch(ctx, exec, row_ids, cols.len() as u64);
        fill_rows_blocked(ctx, ctx.data, row_ids, ctx.norms, cols, out);
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
        fill_rows_blocked(ctx, test, test_rows, test_norms, 0..n, out);
        evals
    }
}

/// Run `f` with a zeroed scratch of at least `len` values, reusing a
/// thread-local buffer so steady-state callers never allocate.
fn with_scatter_scratch<R>(len: usize, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch)
    })
}

/// Panel rows per block for a feature dimension of `ncols`.
fn panel_rows(ncols: usize) -> usize {
    (PANEL_BYTES / (ncols.max(1) * 8)).clamp(1, MAX_PANEL_ROWS)
}

/// Blocked fill of `out[bi][..] = K(src[src_rows[bi]], data[j])` for `j`
/// in `cols`. Source rows are processed in panels of [`panel_rows`]: the
/// panel is densified once, then the target loop runs *outside* the panel
/// loop so each target row's CSR entries stream across all panel rows
/// while hot.
fn fill_rows_blocked(
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
    let b = panel_rows(ncols);
    let w = cols.len();
    let rows = &mut out.as_mut_slice()[..src_rows.len() * w];
    for_each_chunk(ctx.host_threads, w, rows, |first, piece| {
        // The zeroed thread-local scratch doubles as the `b * ncols` panel
        // (restored to zero by the per-block `clear_scatter`).
        with_scatter_scratch(b * ncols, |panel| {
            let piece_rows = &src_rows[first..first + piece.len() / w];
            for (block, out_block) in piece_rows.chunks(b).zip(piece.chunks_mut(b * w)) {
                for (pi, &r) in block.iter().enumerate() {
                    src.row(r).scatter(&mut panel[pi * ncols..(pi + 1) * ncols]);
                }
                for (jo, j) in cols.clone().enumerate() {
                    let target = data.row(j);
                    let norm_j = norms[j];
                    for (pi, &r) in block.iter().enumerate() {
                        let dot = target.dot_dense(&panel[pi * ncols..(pi + 1) * ncols]);
                        out_block[pi * w + jo] = kind.eval(dot, src_norms[r], norm_j);
                    }
                }
                for (pi, &r) in block.iter().enumerate() {
                    src.row(r)
                        .clear_scatter(&mut panel[pi * ncols..(pi + 1) * ncols]);
                }
            }
        });
    });
}
