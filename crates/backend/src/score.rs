//! Row scoring: decision values gathered from a computed kernel block.
//!
//! With support-vector sharing (§3.5) the test × SV block is computed
//! once and every binary SVM reduces its own SV list against it, so this
//! reduction runs `k(k−1)/2` times per test row. Rows are taken four at a
//! time so each binary's index and coefficient lists are read once per
//! four rows instead of once per row; the sums keep their one-row order,
//! so the bits do not depend on the grouping.

use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::Executor;
use gmp_sparse::DenseMatrix;

/// One binary SVM's scoring job over a kernel block: writes
/// `out[ri][out_col] = Σ coef·block[ri][·] − rho` for every output row.
pub struct RowScorer<'a> {
    /// Which column of each output row this scorer owns.
    pub out_col: usize,
    /// Columns of the block to gather (`None`: the block's columns are
    /// already exactly this scorer's SVs, in order — dense sweep).
    pub sv_idx: Option<&'a [u32]>,
    /// Signed coefficients `y_i α_i`, parallel to the gathered columns.
    pub coef: &'a [f64],
    /// Decision threshold.
    pub rho: f64,
}

/// Shared implementation behind [`crate::ComputeBackend::score_rows`]:
/// one fused gather/multiply-add map charge for the whole block, then an
/// in-place parallel update of the owned columns.
///
/// Each host piece takes its rows four at a time: every scorer's
/// `coef`/`sv_idx` lists are walked once per group with four independent
/// sums, one per row, so the index and coefficient loads are shared by
/// four rows. The last `len % 4` rows of a piece go one at a time. Every
/// sum still adds `c · krow[svi]` in SV-list order from `0.0` and then
/// subtracts `rho`, so each `(row, binary)` value has the same bits
/// whichever group, piece or thread computed it.
pub(crate) fn score_rows_impl(
    exec: &dyn Executor,
    block: &DenseMatrix,
    scorers: &[RowScorer<'_>],
    host_threads: usize,
    out: &mut [Vec<f64>],
) {
    debug_assert!(block.nrows() >= out.len(), "block shorter than output");
    // Charge before the empty check: the modeled launch cost depends only
    // on the declared shape, and keeping the charge unconditional keeps
    // `sim_s` bit-identical across backends and refactors.
    let total_refs: usize = scorers.iter().map(|s| s.coef.len()).sum();
    exec.charge(KernelCost::map((out.len() * total_refs) as u64, 2, 16));
    if out.is_empty() || scorers.is_empty() {
        return;
    }
    for_each_chunk(host_threads, 1, out, |first, piece| {
        let mut groups = piece.chunks_exact_mut(4);
        let mut ri = first;
        for group in &mut groups {
            let krows = [0, 1, 2, 3].map(|r| block.row(ri + r));
            for s in scorers {
                let v = decision_sums(s, krows);
                for (row, v) in group.iter_mut().zip(v) {
                    row[s.out_col] = v - s.rho;
                }
            }
            ri += 4;
        }
        for (ri, row) in (ri..).zip(groups.into_remainder()) {
            for s in scorers {
                let [v] = decision_sums(s, [block.row(ri)]);
                row[s.out_col] = v - s.rho;
            }
        }
    });
}

/// `Σ coef·krow[·]` of one scorer for `R` block rows in one walk of its
/// lists: `R` independent sums, each from `0.0` in SV-list order.
#[inline(always)]
fn decision_sums<const R: usize>(s: &RowScorer<'_>, krows: [&[f64]; R]) -> [f64; R] {
    // Block rows share one length; slicing them to it lets one bounds
    // check per SV cover all `R` loads.
    let n = krows[0].len();
    let krows = krows.map(|k| &k[..n]);
    let mut v = [0.0; R];
    match s.sv_idx {
        Some(idx) => {
            for (&c, &svi) in s.coef.iter().zip(idx) {
                let j = svi as usize;
                for (v, k) in v.iter_mut().zip(&krows) {
                    *v += c * k[j];
                }
            }
        }
        None => {
            // Dense sweep: the block's columns are the scorer's SVs.
            let m = s.coef.len().min(n);
            for (j, &c) in s.coef[..m].iter().enumerate() {
                for (v, k) in v.iter_mut().zip(&krows) {
                    *v += c * k[j];
                }
            }
        }
    }
    v
}
