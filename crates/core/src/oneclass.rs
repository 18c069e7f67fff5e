//! One-class SVM (Schölkopf et al.): novelty detection on the same solver
//! stack — the third member of ThunderSVM's task family (classification,
//! regression, distribution estimation).
//!
//! Dual: `min ½αᵀKα` s.t. `0 ≤ α_i ≤ 1/(νn)`, `Σα = 1`. All "labels" are
//! `+1`, so the SMO pairwise step conserves `Σα`; LibSVM's initialization
//! puts the first `⌊νn⌋` instances at their cap plus one fractional
//! remainder, and we warm-start the batched solver from exactly that
//! point.

use gmp_gpusim::CpuExecutor;
use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
use gmp_smo::{BatchedParams, BatchedSmoSolver, SmoParams};
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

/// One-class SVM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneClassParams {
    /// Kernel function.
    pub kernel: KernelKind,
    /// ν ∈ (0, 1]: upper bound on the outlier fraction / lower bound on
    /// the support-vector fraction.
    pub nu: f64,
    /// SMO tolerance.
    pub tolerance: f64,
    /// Working-set size.
    pub ws_size: usize,
}

impl Default for OneClassParams {
    fn default() -> Self {
        OneClassParams {
            kernel: KernelKind::Rbf { gamma: 0.5 },
            nu: 0.1,
            tolerance: 1e-3,
            ws_size: 256,
        }
    }
}

/// A trained one-class SVM: `decision(x) = Σ coef_j K(sv_j, x) - rho`;
/// positive = inlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OneClassModel {
    /// Kernel used at training time.
    pub kernel: KernelKind,
    /// Support vectors.
    pub svs: CsrMatrix,
    /// Coefficients α per support vector.
    pub coef: Vec<f64>,
    /// Bias.
    pub rho: f64,
    /// Whether the solver reached tolerance.
    pub converged: bool,
}

/// Train a one-class SVM on the rows of `x`.
pub fn train_one_class(params: OneClassParams, x: &CsrMatrix) -> OneClassModel {
    let n = x.nrows();
    assert!(n >= 2, "need at least two instances");
    assert!(params.nu > 0.0 && params.nu <= 1.0, "nu must be in (0, 1]");
    let exec = CpuExecutor::xeon(1);
    let oracle = Arc::new(KernelOracle::new(Arc::new(x.clone()), params.kernel));

    let cap = 1.0 / (params.nu * n as f64);
    let caps = vec![cap; n];
    let y = vec![1.0f64; n];
    // LibSVM's init: first ⌊νn⌋ at cap, one fractional remainder.
    let mut alpha0 = vec![0.0f64; n];
    let full = (params.nu * n as f64).floor() as usize;
    for a in alpha0.iter_mut().take(full.min(n)) {
        *a = cap;
    }
    if full < n {
        alpha0[full] = 1.0 - full as f64 * cap; // remainder keeps Σα = 1
    }
    // f_init = Σ_j α0_j K_ij (p = 0, y = +1): one batched computation over
    // the initialized rows.
    let init_rows: Vec<usize> = (0..n).filter(|&i| alpha0[i] > 0.0).collect();
    let mut f_init = vec![0.0f64; n];
    if !init_rows.is_empty() {
        let mut block = DenseMatrix::zeros(init_rows.len(), n);
        oracle.compute_rows(&exec, &init_rows, &mut block);
        for (bi, &j) in init_rows.iter().enumerate() {
            let w = alpha0[j];
            for (i, fi) in f_init.iter_mut().enumerate() {
                *fi += w * block.get(bi, i);
            }
        }
    }

    let ws = params.ws_size.min(n).max(4);
    let mut rows = BufferedRows::new(
        oracle,
        (2 * ws).min(n.max(2)),
        ReplacementPolicy::FifoBatch,
        None,
    )
    // gmp:allow-panic — host-memory buffer cannot exhaust simulated device memory
    .expect("host buffer");
    let solver = BatchedSmoSolver::new(BatchedParams {
        base: SmoParams {
            c: cap,
            eps: params.tolerance,
            ..Default::default()
        },
        ws_size: ws,
        q: (ws / 2).max(2),
        inner_relax: 0.1,
        max_inner: ws * 4,
    });
    let result = solver.solve_warm(&y, &mut rows, &exec, &caps, &f_init, &alpha0);

    let mut sv_rows = Vec::new();
    let mut coef = Vec::new();
    for (i, &a) in result.alpha.iter().enumerate() {
        if a > 0.0 {
            sv_rows.push(i);
            coef.push(a);
        }
    }
    OneClassModel {
        kernel: params.kernel,
        svs: x.select_rows(&sv_rows),
        coef,
        rho: result.rho,
        converged: result.converged,
    }
}

impl OneClassModel {
    /// Decision values for every row of `test` (positive = inlier).
    pub fn decision_values(&self, test: &CsrMatrix) -> Vec<f64> {
        let exec = CpuExecutor::xeon(1);
        if test.nrows() == 0 || self.svs.nrows() == 0 {
            return vec![-self.rho; test.nrows()];
        }
        let oracle = KernelOracle::new(Arc::new(self.svs.clone()), self.kernel);
        let rows: Vec<usize> = (0..test.nrows()).collect();
        let mut block = DenseMatrix::zeros(test.nrows(), self.svs.nrows());
        oracle.compute_cross(&exec, test, &rows, &mut block);
        (0..test.nrows())
            .map(|t| {
                let krow = block.row(t);
                let mut v = 0.0;
                for (j, &c) in self.coef.iter().enumerate() {
                    v += c * krow[j];
                }
                v - self.rho
            })
            .collect()
    }

    /// Inlier predictions (`decision > 0`).
    pub fn predict_inlier(&self, test: &CsrMatrix) -> Vec<bool> {
        self.decision_values(test)
            .iter()
            .map(|&v| v > 0.0)
            .collect()
    }

    /// Number of support vectors.
    pub fn n_sv(&self) -> usize {
        self.svs.nrows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;

    fn cluster() -> CsrMatrix {
        // One tight blob of 2 classes merged = one cluster around origin.
        let d = BlobSpec {
            n: 200,
            dim: 2,
            classes: 2,
            spread: 0.15,
            seed: 4,
        }
        .generate();
        d.x
    }

    fn params(nu: f64) -> OneClassParams {
        OneClassParams {
            kernel: KernelKind::Rbf { gamma: 1.0 },
            nu,
            tolerance: 1e-3,
            ws_size: 64,
        }
    }

    #[test]
    fn trains_and_converges() {
        let x = cluster();
        let m = train_one_class(params(0.1), &x);
        assert!(m.converged);
        assert!(m.n_sv() > 0);
        // ν lower-bounds the SV fraction.
        assert!(m.n_sv() as f64 >= 0.1 * x.nrows() as f64 - 1.0);
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        let x = cluster();
        for nu in [0.05, 0.2] {
            let m = train_one_class(params(nu), &x);
            let inliers = m.predict_inlier(&x).iter().filter(|&&b| b).count();
            let outlier_frac = 1.0 - inliers as f64 / x.nrows() as f64;
            assert!(
                outlier_frac <= nu + 0.06,
                "nu={nu}: outlier fraction {outlier_frac}"
            );
        }
    }

    #[test]
    fn novel_points_score_negative() {
        let x = cluster();
        let m = train_one_class(params(0.1), &x);
        // Far-away probes.
        let novel =
            CsrMatrix::from_dense(&[vec![10.0, 10.0], vec![-8.0, 5.0], vec![0.0, -12.0]], 2);
        for (i, v) in m.decision_values(&novel).iter().enumerate() {
            assert!(*v < 0.0, "novel point {i} scored {v}");
        }
    }

    #[test]
    fn typical_points_score_higher_than_novel() {
        let x = cluster();
        let m = train_one_class(params(0.1), &x);
        let train_scores = m.decision_values(&x);
        let mean_train: f64 = train_scores.iter().sum::<f64>() / train_scores.len() as f64;
        let novel = CsrMatrix::from_dense(&[vec![5.0, 5.0]], 2);
        let novel_score = m.decision_values(&novel)[0];
        assert!(mean_train > novel_score);
    }

    #[test]
    fn alpha_sums_to_one() {
        let x = cluster();
        let m = train_one_class(params(0.15), &x);
        let sum: f64 = m.coef.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "Σα = {sum}");
    }

    #[test]
    #[should_panic(expected = "nu must be in")]
    fn rejects_bad_nu() {
        let _ = train_one_class(params(1.5), &cluster());
    }
}
