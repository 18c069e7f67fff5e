//! ε-support-vector regression on the GMP-SVM solver stack.
//!
//! The paper's related work (§5, [34]) notes the batched-GPU approach
//! "extended … for SVM regression problems"; this module is that
//! extension. The ε-SVR dual
//!
//! ```text
//! min ½(α-α*)ᵀK(α-α*) + ε Σ(α_i+α*_i) - Σ z_i(α_i-α*_i)
//! s.t. Σ(α_i-α*_i) = 0,  0 ≤ α_i, α*_i ≤ C
//! ```
//!
//! maps to the solvers' general form over `2n` variables: `β_i = α_i`
//! (label `+1`) and `β_{n+i} = α*_i` (label `-1`) with linear term
//! `p_i = ε - z_i`, `p_{n+i} = ε + z_i` — exactly LibSVM's `SVR_Q`
//! construction. The kernel matrix of the doubled problem mirrors the base
//! kernel (`K'(s, t) = K(s mod n, t mod n)`), served by [`MirroredRows`]
//! without duplicating the data.

use crate::params::SvmParams;
use gmp_gpusim::{CpuExecutor, Executor};
use gmp_kernel::{KernelKind, KernelOracle, KernelRows, RowProviderStats};
use gmp_smo::{BatchedSmoSolver, SolverResult};
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::collections::HashMap;
use std::sync::Arc;

/// ε-SVR hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrParams {
    /// Kernel function.
    pub kernel: KernelKind,
    /// Penalty parameter C.
    pub c: f64,
    /// Tube half-width ε (residuals inside the tube cost nothing).
    pub epsilon: f64,
    /// SMO stopping tolerance.
    pub tolerance: f64,
    /// Working-set size for the batched solver.
    pub ws_size: usize,
    /// New violators per round.
    pub q: usize,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            kernel: KernelKind::Rbf { gamma: 0.5 },
            c: 1.0,
            epsilon: 0.1,
            tolerance: 1e-3,
            ws_size: 256,
            q: 128,
        }
    }
}

impl From<SvmParams> for SvrParams {
    fn from(p: SvmParams) -> Self {
        SvrParams {
            kernel: p.kernel,
            c: p.c,
            epsilon: 0.1,
            tolerance: p.eps,
            ws_size: p.ws_size,
            q: p.q,
        }
    }
}

/// A trained ε-SVR model: `ŷ(x) = Σ coef_j K(sv_j, x) - rho`.
#[derive(Debug, Clone, PartialEq)]
pub struct SvrModel {
    /// Kernel used at training time.
    pub kernel: KernelKind,
    /// Support vectors (instances with `α_i ≠ α*_i`).
    pub svs: CsrMatrix,
    /// `α_i - α*_i` per support vector.
    pub coef: Vec<f64>,
    /// Bias.
    pub rho: f64,
    /// Solver iterations (diagnostics).
    pub iterations: u64,
    /// Whether the solver reached tolerance.
    pub converged: bool,
}

/// Row provider of the doubled SVR problem: row `t` of the `2n x 2n`
/// kernel matrix is row `t mod n` of the base kernel, tiled twice.
pub struct MirroredRows {
    oracle: Arc<KernelOracle>,
    resident: HashMap<usize, Vec<f64>>,
    capacity: usize,
    order: Vec<usize>,
    rows_computed: u64,
    hits: u64,
    misses: u64,
}

impl MirroredRows {
    /// A provider over `oracle`'s dataset, doubled, caching up to
    /// `capacity` assembled rows.
    pub fn new(oracle: Arc<KernelOracle>, capacity: usize) -> Self {
        MirroredRows {
            oracle,
            resident: HashMap::new(),
            capacity: capacity.max(2),
            order: Vec::new(),
            rows_computed: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn base_n(&self) -> usize {
        self.oracle.n()
    }
}

impl KernelRows for MirroredRows {
    fn n(&self) -> usize {
        2 * self.base_n()
    }

    fn diag(&self, i: usize) -> f64 {
        self.oracle.diag(i % self.base_n())
    }

    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]) {
        let n = self.base_n();
        // Distinct base rows still missing.
        let mut missing_base: Vec<usize> = Vec::new();
        for &id in ids {
            if self.resident.contains_key(&id) {
                self.hits += 1;
                continue;
            }
            self.misses += 1;
            let b = id % n;
            if !missing_base.contains(&b) {
                missing_base.push(b);
            }
        }
        if !missing_base.is_empty() {
            let mut block = DenseMatrix::zeros(missing_base.len(), n);
            self.oracle.compute_rows(exec, &missing_base, &mut block);
            self.rows_computed += missing_base.len() as u64;
            for (bi, &b) in missing_base.iter().enumerate() {
                let base = block.row(bi);
                let mut tiled = Vec::with_capacity(2 * n);
                tiled.extend_from_slice(base);
                tiled.extend_from_slice(base);
                // Both mirrored ids share the tiled row.
                for id in [b, b + n] {
                    if ids.contains(&id) || self.resident.len() < self.capacity {
                        self.insert(id, tiled.clone());
                    }
                }
            }
        }
        // Mirrored ids whose base row is resident under the twin id.
        let twins: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|id| !self.resident.contains_key(id))
            .collect();
        for id in twins {
            let twin = if id >= n { id - n } else { id + n };
            let row = self
                .resident
                .get(&twin)
                // gmp:allow-panic — ensure() inserts twin rows pairwise, so the twin is resident
                .expect("twin row resident after batch")
                .clone();
            self.insert(id, row);
        }
    }

    fn row(&self, id: usize) -> &[f64] {
        self.resident
            .get(&id)
            // gmp:allow-panic — row residency is guaranteed by the preceding ensure(); absence is a solver bug
            .unwrap_or_else(|| panic!("row {id} not resident"))
    }

    fn is_resident(&self, id: usize) -> bool {
        self.resident.contains_key(&id)
    }

    fn stats(&self) -> RowProviderStats {
        RowProviderStats {
            kernel_evals: self.rows_computed * self.base_n() as u64,
            rows_computed: self.rows_computed,
            buffer_hits: self.hits,
            buffer_misses: self.misses,
            evictions: 0,
        }
    }
}

impl MirroredRows {
    fn insert(&mut self, id: usize, row: Vec<f64>) {
        while self.resident.len() >= self.capacity {
            // FIFO evict, skipping nothing (capacity >= working set).
            let victim = self.order.remove(0);
            self.resident.remove(&victim);
        }
        if self.resident.insert(id, row).is_none() {
            self.order.push(id);
        }
    }
}

/// Train an ε-SVR on features `x` and targets `z`.
pub fn train_svr(params: SvrParams, x: &CsrMatrix, z: &[f64]) -> SvrModel {
    let n = x.nrows();
    assert_eq!(z.len(), n, "target/instance count mismatch");
    assert!(n >= 2, "need at least two instances");
    assert!(params.epsilon >= 0.0 && params.c > 0.0);
    let exec = CpuExecutor::xeon(1);
    let oracle = Arc::new(KernelOracle::new(Arc::new(x.clone()), params.kernel));

    // Doubled problem.
    let mut y = vec![1.0f64; 2 * n];
    y[n..].fill(-1.0);
    let mut f_init = Vec::with_capacity(2 * n);
    for zi in z {
        f_init.push(params.epsilon - zi); // y=+1 block: f = +1·(ε - z)
    }
    for zi in z {
        f_init.push(-params.epsilon - zi); // y=-1 block: f = -1·(ε + z)
    }
    let caps = vec![params.c; 2 * n];

    let ws = params.ws_size.min(2 * n).max(4);
    let mut rows = MirroredRows::new(oracle, 2 * ws);
    let solver = BatchedSmoSolver::new(gmp_smo::BatchedParams {
        base: gmp_smo::SmoParams {
            c: params.c,
            eps: params.tolerance,
            ..Default::default()
        },
        ws_size: ws,
        q: (params.q.min(ws) / 2).max(2) * 2,
        inner_relax: 0.1,
        max_inner: ws * 4,
    });
    let result: SolverResult = solver.solve_with_init(&y, &mut rows, &exec, &caps, &f_init);

    // Collapse β to per-instance coefficients α_i - α*_i.
    let mut sv_rows = Vec::new();
    let mut coef = Vec::new();
    for i in 0..n {
        let c = result.alpha[i] - result.alpha[n + i];
        if c != 0.0 {
            sv_rows.push(i);
            coef.push(c);
        }
    }
    SvrModel {
        kernel: params.kernel,
        svs: x.select_rows(&sv_rows),
        coef,
        rho: result.rho,
        iterations: result.iterations,
        converged: result.converged,
    }
}

impl SvrModel {
    /// Predict targets for every row of `test`.
    pub fn predict(&self, test: &CsrMatrix) -> Vec<f64> {
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

    /// Number of support vectors.
    pub fn n_sv(&self) -> usize {
        self.svs.nrows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[Vec<f64>], d: usize) -> CsrMatrix {
        CsrMatrix::from_dense(rows, d)
    }

    #[test]
    fn fits_linear_function_with_linear_kernel() {
        // z = 2x - 1 on [0, 2].
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 20.0]).collect();
        let z: Vec<f64> = x.iter().map(|v| 2.0 * v[0] - 1.0).collect();
        let params = SvrParams {
            kernel: KernelKind::Linear,
            c: 10.0,
            epsilon: 0.05,
            ..Default::default()
        };
        let model = train_svr(params, &dense(&x, 1), &z);
        assert!(model.converged);
        let pred = model.predict(&dense(&x, 1));
        for (p, t) in pred.iter().zip(&z) {
            assert!((p - t).abs() < 0.1, "pred {p} vs target {t}");
        }
    }

    #[test]
    fn fits_sine_with_rbf() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let z: Vec<f64> = x.iter().map(|v| v[0].sin()).collect();
        let params = SvrParams {
            kernel: KernelKind::Rbf { gamma: 1.0 },
            c: 10.0,
            epsilon: 0.02,
            ..Default::default()
        };
        let model = train_svr(params, &dense(&x, 1), &z);
        assert!(model.converged);
        let pred = model.predict(&dense(&x, 1));
        let mse: f64 = pred
            .iter()
            .zip(&z)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / z.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn tube_suppresses_support_vectors() {
        // Constant target: with a wide tube, nothing should be a SV.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let z = vec![0.5; 20];
        let params = SvrParams {
            kernel: KernelKind::Rbf { gamma: 0.1 },
            c: 1.0,
            epsilon: 1.0, // tube wider than the (zero) spread
            ..Default::default()
        };
        let model = train_svr(params, &dense(&x, 1), &z);
        assert_eq!(model.n_sv(), 0, "constant target inside tube needs no SVs");
        // Prediction falls back to -rho; rho must then be ~ -0.5 to track
        // the mean... with no SVs, rho = midpoint of f bounds.
        let pred = model.predict(&dense(&x, 1));
        for p in pred {
            assert!((p - 0.5).abs() < 1.0 + 1e-9, "degenerate prediction {p}");
        }
    }

    #[test]
    fn smaller_epsilon_more_svs() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
        let z: Vec<f64> = x.iter().map(|v| (2.0 * v[0]).cos()).collect();
        let base = SvrParams {
            kernel: KernelKind::Rbf { gamma: 1.0 },
            c: 5.0,
            ..Default::default()
        };
        let loose = train_svr(
            SvrParams {
                epsilon: 0.5,
                ..base
            },
            &dense(&x, 1),
            &z,
        );
        let tight = train_svr(
            SvrParams {
                epsilon: 0.01,
                ..base
            },
            &dense(&x, 1),
            &z,
        );
        assert!(
            tight.n_sv() > loose.n_sv(),
            "tight {} vs loose {}",
            tight.n_sv(),
            loose.n_sv()
        );
    }

    #[test]
    fn mirrored_rows_tile_correctly() {
        let x = dense(&[vec![1.0], vec![2.0], vec![3.0]], 1);
        let oracle = Arc::new(KernelOracle::new(Arc::new(x), KernelKind::Linear));
        let mut rows = MirroredRows::new(oracle.clone(), 8);
        let exec = CpuExecutor::xeon(1);
        rows.ensure(&exec, &[1, 4]); // instance 1 and its mirror 1+3
        assert_eq!(rows.n(), 6);
        let r1 = rows.row(1);
        let r4 = rows.row(4);
        assert_eq!(r1, r4, "mirrored rows identical");
        assert_eq!(r1.len(), 6);
        assert_eq!(r1[0], 2.0); // K(x1, x0) = 2
        assert_eq!(r1[3], 2.0); // tiled copy
        assert_eq!(rows.diag(1), rows.diag(4));
        // Only ONE base row computed for the pair.
        assert_eq!(rows.stats().rows_computed, 1);
    }

    #[test]
    fn equality_constraint_on_collapsed_coefficients() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64 * 0.37).sin(), i as f64 / 30.0])
            .collect();
        let z: Vec<f64> = x.iter().map(|v| v[0] + 0.5 * v[1]).collect();
        let model = train_svr(
            SvrParams {
                kernel: KernelKind::Rbf { gamma: 0.5 },
                c: 2.0,
                epsilon: 0.05,
                ..Default::default()
            },
            &dense(&x, 2),
            &z,
        );
        let sum: f64 = model.coef.iter().sum();
        assert!(sum.abs() < 1e-9, "Σ(α - α*) = {sum}");
        assert!(model.coef.iter().all(|&c| c.abs() <= 2.0 + 1e-12));
    }

    #[test]
    fn empty_test_prediction() {
        let x = dense(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]], 1);
        let z = vec![0.0, 1.0, 2.0, 3.0];
        let model = train_svr(SvrParams::default(), &x, &z);
        assert!(model.predict(&CsrMatrix::empty(1)).is_empty());
    }
}
