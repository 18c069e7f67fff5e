//! Row scoring: decision values gathered from a computed kernel block.

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
        for (ri, row) in (first..).zip(piece.iter_mut()) {
            let krow = block.row(ri);
            for s in scorers {
                let mut v = 0.0;
                match s.sv_idx {
                    Some(idx) => {
                        for (&c, &svi) in s.coef.iter().zip(idx) {
                            v += c * krow[svi as usize];
                        }
                    }
                    None => {
                        for (&c, &k) in s.coef.iter().zip(krow) {
                            v += c * k;
                        }
                    }
                }
                row[s.out_col] = v - s.rho;
            }
        }
    });
}
