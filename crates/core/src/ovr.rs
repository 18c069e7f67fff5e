//! One-vs-rest (one-against-all) multi-class SVMs.
//!
//! The paper's §5 discusses Rifkin & Klautau's "In defense of one-vs-all"
//! but follows Wu, Lin & Weng in using pairwise coupling for probability
//! estimation, noting "one-against-all is rarely used for probabilistic
//! SVMs". This module implements the one-vs-rest alternative so that the
//! choice can be *measured* (see the `ablation_ovr_vs_ovo` experiment):
//! `k` binary SVMs, each separating one class from all others, with
//! probability estimates from normalized per-class sigmoids.

use crate::params::SvmParams;
use crate::predict::error_rate;
use gmp_datasets::Dataset;
use gmp_gpusim::{CpuExecutor, Executor};
use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
use gmp_prob::{sigmoid_predict, sigmoid_train, SigmoidParams};
use gmp_smo::{decision_values_for, decision_values_from_f, BatchedSmoSolver};
use gmp_sparse::CsrMatrix;
use std::sync::Arc;

/// One binary one-vs-rest SVM (positive = its class).
#[derive(Debug, Clone, PartialEq)]
pub struct OvrBinary {
    /// The positive class.
    pub class: u32,
    /// Support-vector rows (indices into the shared pool).
    pub sv_idx: Vec<u32>,
    /// Dual coefficients `y_i α_i`.
    pub coef: Vec<f64>,
    /// Bias.
    pub rho: f64,
    /// Fitted sigmoid.
    pub sigmoid: SigmoidParams,
}

/// A trained one-vs-rest ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct OvrModel {
    /// Number of classes.
    pub classes: usize,
    /// Kernel used at training time.
    pub kernel: KernelKind,
    /// Shared support-vector pool.
    pub sv_pool: CsrMatrix,
    /// One binary SVM per class.
    pub binaries: Vec<OvrBinary>,
}

impl OvrModel {
    /// Train `k` one-vs-rest probabilistic SVMs on the host with the
    /// batched solver (the strategy comparison is statistical, so a single
    /// execution backend suffices).
    pub fn train(params: SvmParams, data: &Dataset) -> OvrModel {
        let k = data.n_classes();
        assert!(k >= 2, "need at least two classes");
        let exec = CpuExecutor::xeon(1);
        let x = Arc::new(data.x.clone());
        let oracle = Arc::new(KernelOracle::new(x.clone(), params.kernel));
        let solver = BatchedSmoSolver::new(params.batched());

        let mut pool = crate::model::SvPoolBuilder::new();
        let mut binaries = Vec::with_capacity(k);
        for class in 0..k as u32 {
            let y: Vec<f64> = data
                .y
                .iter()
                .map(|&c| if c == class { 1.0 } else { -1.0 })
                .collect();
            let mut rows = BufferedRows::new(
                oracle.clone(),
                params.ws_size.max(2),
                ReplacementPolicy::FifoBatch,
                None,
            )
            // gmp:allow-panic — host-memory buffer cannot exhaust simulated device memory
            .expect("host buffer");
            let r = solver.solve(&y, &mut rows, &exec);
            let dec = decision_values_from_f(&r.f, &y, r.rho);
            let sigmoid = sigmoid_train(&dec, &y);
            let mut sv_idx = Vec::new();
            let mut coef = Vec::new();
            for (i, &a) in r.alpha.iter().enumerate() {
                if a > 0.0 {
                    sv_idx.push(pool.intern(i));
                    coef.push(y[i] * a);
                }
            }
            binaries.push(OvrBinary {
                class,
                sv_idx,
                coef,
                rho: r.rho,
                sigmoid,
            });
        }
        OvrModel {
            classes: k,
            kernel: params.kernel,
            sv_pool: pool.build(&data.x),
            binaries,
        }
    }

    /// Predict labels and normalized per-class probabilities.
    ///
    /// Probabilities are `sigmoid_c(v_c)` normalized to sum to one — the
    /// naive calibration one-vs-rest affords (no coupling problem exists).
    pub fn predict(&self, test: &CsrMatrix) -> (Vec<u32>, Vec<Vec<f64>>) {
        let exec = CpuExecutor::xeon(1);
        predict_ovr(self, test, &exec)
    }
}

fn predict_ovr(
    model: &OvrModel,
    test: &CsrMatrix,
    exec: &dyn Executor,
) -> (Vec<u32>, Vec<Vec<f64>>) {
    let m = test.nrows();
    let k = model.classes;
    if m == 0 {
        return (Vec::new(), Vec::new());
    }
    let oracle = KernelOracle::new(Arc::new(model.sv_pool.clone()), model.kernel);
    // Per-class decision values via the shared pool (one cross block).
    let mut scores = vec![vec![0.0f64; k]; m];
    for b in &model.binaries {
        // Expand the class's coefficients over the pool.
        let mut alpha = vec![0.0f64; model.sv_pool.nrows()];
        let mut ysign = vec![1.0f64; model.sv_pool.nrows()];
        for (&idx, &c) in b.sv_idx.iter().zip(&b.coef) {
            alpha[idx as usize] = c.abs();
            ysign[idx as usize] = c.signum();
        }
        let vals = decision_values_for(exec, &oracle, &ysign, &alpha, b.rho, test);
        for (i, &v) in vals.iter().enumerate() {
            scores[i][b.class as usize] = v;
        }
    }
    let mut labels = Vec::with_capacity(m);
    let mut probs = Vec::with_capacity(m);
    for row in &scores {
        let mut p: Vec<f64> = (0..k)
            .map(|c| sigmoid_predict(row[c], &model.binaries[c].sigmoid).max(1e-12))
            .collect();
        let sum: f64 = p.iter().sum();
        for v in p.iter_mut() {
            *v /= sum;
        }
        let best = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            // gmp:allow-panic — the model always has k >= 2 classes, so the
            // probability vector is never empty.
            .expect("k >= 2");
        labels.push(best);
        probs.push(p);
    }
    (labels, probs)
}

/// Convenience: train + evaluate OVR on a split, returning
/// `(test_error, log_loss)`.
pub fn evaluate_ovr(params: SvmParams, train: &Dataset, test: &Dataset) -> (f64, f64) {
    let model = OvrModel::train(params, train);
    let (labels, probs) = model.predict(&test.x);
    (
        error_rate(&labels, &test.y),
        gmp_prob::log_loss(&probs, &test.y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;

    fn data() -> Dataset {
        BlobSpec {
            n: 150,
            dim: 2,
            classes: 3,
            spread: 0.18,
            seed: 91,
        }
        .generate()
    }

    fn params() -> SvmParams {
        SvmParams::default()
            .with_c(2.0)
            .with_rbf(1.0)
            .with_working_set(32, 16)
    }

    #[test]
    fn trains_k_binaries() {
        let model = OvrModel::train(params(), &data());
        assert_eq!(model.binaries.len(), 3);
        assert!(model.sv_pool.nrows() > 0);
        for b in &model.binaries {
            assert_eq!(b.sv_idx.len(), b.coef.len());
        }
    }

    #[test]
    fn classifies_separable_blobs() {
        let d = data();
        let model = OvrModel::train(params(), &d);
        let (labels, probs) = model.predict(&d.x);
        let err = error_rate(&labels, &d.y);
        assert!(err < 0.05, "ovr training error {err}");
        for p in &probs {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn labels_match_probability_argmax() {
        let d = data();
        let model = OvrModel::train(params(), &d);
        let (labels, probs) = model.predict(&d.x);
        for (l, p) in labels.iter().zip(&probs) {
            let am = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(*l as usize, am);
        }
    }

    #[test]
    fn evaluate_helper() {
        let d = data();
        let split = d.split(0.3, 3);
        let (err, ll) = evaluate_ovr(params(), &split.train, &split.test);
        assert!(err < 0.1, "err {err}");
        assert!(ll < 3.0f64.ln() * 1.1, "log loss {ll} vs uniform baseline");
    }

    #[test]
    fn empty_test() {
        let model = OvrModel::train(params(), &data());
        let (l, p) = model.predict(&CsrMatrix::empty(2));
        assert!(l.is_empty() && p.is_empty());
    }
}
