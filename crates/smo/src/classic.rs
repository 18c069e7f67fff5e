//! The classic two-instance SMO solver (Algorithm 1 of the paper).

use crate::common::{
    compute_objective, compute_rho_capped, in_lower, in_upper, pair_update_capped, PhaseTimes,
    SmoParams, SolverResult, SolverTelemetry, TAU,
};
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::reduce::{argmax_by_key, argmax_masked, argmin_masked};
use gmp_gpusim::Executor;
use gmp_kernel::KernelRows;
use std::time::Instant;

/// LibSVM-style SMO: per iteration, select `u` by Equation (4), `l` by the
/// second-order heuristic of Equation (5), update the pair (Equations 6–7),
/// and refresh every optimality indicator (Equation 8) until Constraint (9)
/// holds within ε.
///
/// The row provider's policy decides what this models: an LRU-buffered
/// provider reproduces LibSVM's kernel cache; the same solver run on a GPU
/// stream is the per-SVM algorithm of the paper's GPU baseline.
#[derive(Debug, Clone, Default)]
pub struct ClassicSmoSolver {
    params: SmoParams,
}

impl ClassicSmoSolver {
    /// A solver with the given parameters.
    pub fn new(params: SmoParams) -> Self {
        ClassicSmoSolver { params }
    }

    /// Train on labels `y` (±1) with kernel rows from `rows`, charging all
    /// data-parallel work to `exec`.
    ///
    /// # Panics
    /// Panics if `y.len() != rows.n()` or `y` contains values other than ±1.
    pub fn solve(&self, y: &[f64], rows: &mut dyn KernelRows, exec: &dyn Executor) -> SolverResult {
        let caps = vec![self.params.c; rows.n()];
        self.solve_weighted(y, rows, exec, &caps)
    }

    /// [`ClassicSmoSolver::solve`] with per-instance box caps
    /// `0 <= α_i <= caps[i]` (weighted classes, LibSVM's `-wi`).
    pub fn solve_weighted(
        &self,
        y: &[f64],
        rows: &mut dyn KernelRows,
        exec: &dyn Executor,
        caps: &[f64],
    ) -> SolverResult {
        let n = rows.n();
        assert_eq!(y.len(), n, "label/instance count mismatch");
        assert_eq!(caps.len(), n, "cap/instance count mismatch");
        assert!(
            y.iter().all(|&v| v == 1.0 || v == -1.0),
            "labels must be ±1"
        );
        assert!(caps.iter().all(|&c| c > 0.0), "caps must be positive");
        let eps = self.params.eps;

        // f_i = Σ α_j y_j K_ij - y_i starts at -y_i (Algorithm 1 line 2).
        let mut alpha = vec![0.0f64; n];
        let mut f: Vec<f64> = y.iter().map(|&yi| -yi).collect();

        let mut iterations = 0u64;
        let mut converged = false;
        let mut wall = PhaseTimes::default();
        let mut sim = PhaseTimes::default();

        // Shrinking state (LibSVM heuristic): instances confidently stuck
        // at a bound leave the active set; their indicators go stale and
        // are reconstructed before convergence is declared.
        let mut active = vec![true; n];
        let mut n_shrunk = 0usize;
        let shrink_interval = n.clamp(1, 1000) as u64;
        let mut next_shrink = shrink_interval;

        loop {
            // --- Step 1a: u = argmin f over I_u (one parallel reduction).
            let t0 = Instant::now();
            let s0 = exec.elapsed();
            let u_ext = argmin_masked(exec, &f, |i| active[i] && in_upper(y[i], alpha[i], caps[i]));
            let f_max = argmax_masked(exec, &f, |i| active[i] && in_lower(y[i], alpha[i], caps[i]));
            let locally_done = match (&u_ext, &f_max) {
                (Some(u), Some(m)) => m.value - u.value < eps,
                _ => true,
            };
            if locally_done {
                wall.other_s += t0.elapsed().as_secs_f64();
                sim.other_s += exec.elapsed() - s0;
                if n_shrunk == 0 {
                    converged = true;
                    break;
                }
                // Optimal on the active set: reconstruct the stale
                // indicators, reactivate everyone, and re-check globally.
                let tk = Instant::now();
                let sk = exec.elapsed();
                Self::reconstruct_f(y, &alpha, &mut f, &active, rows, exec);
                active.fill(true);
                n_shrunk = 0;
                next_shrink = iterations + shrink_interval;
                wall.kernel_s += tk.elapsed().as_secs_f64();
                sim.kernel_s += exec.elapsed() - sk;
                continue;
            }
            // gmp:allow-panic — guarded: the None case continues the loop above
            let u_ext = u_ext.expect("checked above");
            // gmp:allow-panic — guarded: the None case continues the loop above
            let f_max = f_max.expect("checked above");
            let u = u_ext.index;
            let f_u = u_ext.value;

            // --- Periodic shrinking pass.
            if self.params.shrinking && iterations >= next_shrink {
                next_shrink = iterations + shrink_interval;
                exec.charge(KernelCost::map(n as u64, 2, 16));
                for i in 0..n {
                    if !active[i] || (alpha[i] > 0.0 && alpha[i] < caps[i]) {
                        continue; // free SVs stay active
                    }
                    let up_only =
                        in_upper(y[i], alpha[i], caps[i]) && !in_lower(y[i], alpha[i], caps[i]);
                    let low_only =
                        in_lower(y[i], alpha[i], caps[i]) && !in_upper(y[i], alpha[i], caps[i]);
                    if (up_only && f[i] > f_max.value) || (low_only && f[i] < f_u) {
                        active[i] = false;
                        n_shrunk += 1;
                    }
                }
            }
            wall.other_s += t0.elapsed().as_secs_f64();
            sim.other_s += exec.elapsed() - s0;

            // --- Kernel row for u (Algorithm 1 line 5).
            let tk = Instant::now();
            let sk = exec.elapsed();
            rows.ensure(exec, &[u]);
            wall.kernel_s += tk.elapsed().as_secs_f64();
            sim.kernel_s += exec.elapsed() - sk;

            // --- Step 1b: l by the second-order heuristic (Equation 5).
            let t1 = Instant::now();
            let s1 = exec.elapsed();
            let diag_u = rows.diag(u);
            let l_ext = {
                let k_u = rows.row(u);
                argmax_by_key(
                    exec,
                    n,
                    |i| active[i] && in_lower(y[i], alpha[i], caps[i]) && f[i] > f_u,
                    |i| {
                        let eta = (diag_u + rows.diag(i) - 2.0 * k_u[i]).max(TAU);
                        let d = f_u - f[i];
                        d * d / eta
                    },
                )
            };
            wall.other_s += t1.elapsed().as_secs_f64();
            sim.other_s += exec.elapsed() - s1;
            let Some(l_ext) = l_ext else {
                // No violating partner: optimal for this ε.
                converged = true;
                break;
            };
            let l = l_ext.index;

            // --- Kernel row for l (Algorithm 1 line 7). Pin both rows.
            let tk2 = Instant::now();
            let sk2 = exec.elapsed();
            rows.ensure(exec, &[u, l]);
            wall.kernel_s += tk2.elapsed().as_secs_f64();
            sim.kernel_s += exec.elapsed() - sk2;

            // --- Steps 2 & 3: pair update + indicator refresh.
            let t2 = Instant::now();
            let s2 = exec.elapsed();
            let (lambda, u_row_l);
            {
                let k_u = rows.row(u);
                u_row_l = k_u[l];
            }
            let eta = rows.diag(u) + rows.diag(l) - 2.0 * u_row_l;
            lambda = pair_update_capped(y, &mut alpha, caps[u], caps[l], u, l, f_u, f[l], eta);
            // The pair update itself is the serial two-variable step the
            // paper notes "cannot be parallelized" — charge a token cost.
            exec.charge(KernelCost {
                threads: 1,
                flops: 16,
                bytes_read: 64,
                bytes_written: 16,
            });
            {
                let k_u = rows.row(u);
                let k_l = rows.row(l);
                for i in 0..n {
                    if active[i] {
                        f[i] += lambda * (k_u[i] - k_l[i]);
                    }
                }
            }
            exec.charge(KernelCost::map((n - n_shrunk) as u64, 4, 24));
            wall.subproblem_s += t2.elapsed().as_secs_f64();
            sim.subproblem_s += exec.elapsed() - s2;

            iterations += 1;
            if iterations >= self.params.max_iter {
                break;
            }
        }

        if n_shrunk > 0 {
            // Hit the iteration cap with instances still shrunk: make the
            // returned indicators consistent anyway.
            Self::reconstruct_f(y, &alpha, &mut f, &active, rows, exec);
        }
        let rho = compute_rho_capped(y, &alpha, &f, caps);
        let objective = compute_objective(y, &alpha, &f);
        SolverResult {
            rho,
            objective,
            iterations,
            outer_rounds: iterations,
            converged,
            telemetry: SolverTelemetry {
                rows: rows.stats(),
                sim_phases: sim,
                wall_phases: wall,
            },
            alpha,
            f,
        }
    }

    /// Recompute `f_i = Σ_j α_j y_j K_ij - y_i` for every inactive
    /// `i` from the support vectors (LibSVM's `reconstruct_gradient`).
    fn reconstruct_f(
        y: &[f64],
        alpha: &[f64],
        f: &mut [f64],
        active: &[bool],
        rows: &mut dyn KernelRows,
        exec: &dyn Executor,
    ) {
        let n = y.len();
        let stale = active.iter().filter(|a| !**a).count();
        if stale == 0 {
            return;
        }
        for (i, fi) in f.iter_mut().enumerate() {
            if !active[i] {
                *fi = -y[i];
            }
        }
        for j in 0..n {
            if alpha[j] <= 0.0 {
                continue;
            }
            rows.ensure(exec, &[j]);
            let k_j = rows.row(j);
            let w = alpha[j] * y[j];
            for i in 0..n {
                if !active[i] {
                    f[i] += w * k_j[i];
                }
            }
            exec.charge(KernelCost::map(stale as u64, 2, 16));
        }
    }
}

#[cfg(test)]
// Tests index several parallel arrays (y, alpha, f) by position.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use gmp_gpusim::CpuExecutor;
    use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
    use gmp_sparse::CsrMatrix;
    use std::sync::Arc;

    pub(crate) fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    pub(crate) fn rows_for(
        data: &[Vec<f64>],
        ncols: usize,
        kind: KernelKind,
        cap: usize,
    ) -> BufferedRows {
        let m = Arc::new(CsrMatrix::from_dense(data, ncols));
        let oracle = Arc::new(KernelOracle::new(m, kind));
        BufferedRows::new(oracle, cap, ReplacementPolicy::Lru, None).unwrap()
    }

    /// Trivially separable 1-D points: -2, -1 vs 1, 2.
    fn separable() -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            vec![vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]],
            vec![-1.0, -1.0, 1.0, 1.0],
        )
    }

    #[test]
    fn solves_separable_linear() {
        let (x, y) = separable();
        let mut rows = rows_for(&x, 1, KernelKind::Linear, 4);
        let r = ClassicSmoSolver::new(SmoParams::with_c(10.0)).solve(&y, &mut rows, &exec());
        assert!(r.converged);
        // Decision at training points: v_i = f_i + y_i - rho must classify.
        for i in 0..4 {
            let v = r.f[i] + y[i] - r.rho;
            assert!(v * y[i] > 0.0, "point {i}: v={v}");
        }
        // Margin SVs are the inner points.
        assert!(r.alpha[1] > 0.0 && r.alpha[2] > 0.0);
        assert!(
            (r.rho).abs() < 1e-6,
            "symmetric problem has rho ~ 0, got {}",
            r.rho
        );
    }

    #[test]
    fn respects_box_constraint() {
        let (x, y) = separable();
        let mut rows = rows_for(&x, 1, KernelKind::Linear, 4);
        let c = 0.3;
        let r = ClassicSmoSolver::new(SmoParams::with_c(c)).solve(&y, &mut rows, &exec());
        assert!(r.alpha.iter().all(|&a| (0.0..=c).contains(&a)));
    }

    #[test]
    fn equality_constraint_holds() {
        let (x, y) = separable();
        let mut rows = rows_for(&x, 1, KernelKind::Rbf { gamma: 0.5 }, 4);
        let r = ClassicSmoSolver::new(SmoParams::with_c(1.0)).solve(&y, &mut rows, &exec());
        let sum: f64 = r.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(sum.abs() < 1e-9, "Σ y α = {sum}");
    }

    #[test]
    fn kkt_satisfied_at_convergence() {
        let (x, y) = separable();
        let mut rows = rows_for(&x, 1, KernelKind::Rbf { gamma: 1.0 }, 4);
        let p = SmoParams::with_c(5.0);
        let r = ClassicSmoSolver::new(p).solve(&y, &mut rows, &exec());
        let mut f_u = f64::INFINITY;
        let mut f_max = f64::NEG_INFINITY;
        for i in 0..4 {
            if in_upper(y[i], r.alpha[i], p.c) {
                f_u = f_u.min(r.f[i]);
            }
            if in_lower(y[i], r.alpha[i], p.c) {
                f_max = f_max.max(r.f[i]);
            }
        }
        assert!(f_max - f_u < p.eps, "violation {}", f_max - f_u);
    }

    #[test]
    fn nonseparable_xor_with_rbf() {
        // XOR: not linearly separable, RBF handles it.
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let mut rows = rows_for(&x, 2, KernelKind::Rbf { gamma: 2.0 }, 4);
        let r = ClassicSmoSolver::new(SmoParams::with_c(10.0)).solve(&y, &mut rows, &exec());
        assert!(r.converged);
        for i in 0..4 {
            let v = r.f[i] + y[i] - r.rho;
            assert!(v * y[i] > 0.0, "XOR point {i} misclassified");
        }
    }

    #[test]
    fn objective_decreases_with_larger_c_margin_violations() {
        // Overlapping classes: larger C penalizes slack more, objective
        // (minimized form) is monotone non-increasing in feasible region
        // size; just sanity check the solver returns finite values.
        let x = vec![
            vec![-1.0],
            vec![-0.4],
            vec![0.4],
            vec![1.0],
            vec![-0.1],
            vec![0.1],
        ];
        let y = vec![-1.0, -1.0, 1.0, 1.0, 1.0, -1.0];
        let mut rows = rows_for(&x, 1, KernelKind::Rbf { gamma: 1.0 }, 6);
        let r = ClassicSmoSolver::new(SmoParams::with_c(1.0)).solve(&y, &mut rows, &exec());
        assert!(r.objective.is_finite());
        assert!(
            r.objective < 0.0,
            "non-trivial problem has negative min-form objective"
        );
    }

    #[test]
    fn telemetry_counts_work() {
        let (x, y) = separable();
        let mut rows = rows_for(&x, 1, KernelKind::Linear, 4);
        let r = ClassicSmoSolver::new(SmoParams::with_c(10.0)).solve(&y, &mut rows, &exec());
        assert!(r.iterations > 0);
        assert!(r.telemetry.rows.rows_computed > 0);
        assert!(r.telemetry.sim_phases.total() > 0.0);
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let x = vec![vec![-1.0], vec![-0.5], vec![0.5], vec![1.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let mut rows = rows_for(&x, 1, KernelKind::Rbf { gamma: 0.5 }, 4);
        let p = SmoParams {
            c: 100.0,
            eps: 1e-9,
            max_iter: 1,
            shrinking: false,
        };
        let r = ClassicSmoSolver::new(p).solve(&y, &mut rows, &exec());
        assert!(!r.converged);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn shrinking_preserves_the_optimum() {
        // Shrinking must never change what is learned, only what it costs.
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let t = i as f64 / 120.0;
                let side = if i % 2 == 0 { -1.0 } else { 1.0 };
                let jitter = ((i * 2654435761_usize) % 89) as f64 / 89.0 - 0.5;
                vec![side * (0.4 + 0.4 * jitter), t]
            })
            .collect();
        let y: Vec<f64> = (0..120)
            .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        let kind = KernelKind::Rbf { gamma: 1.5 };
        let base = SmoParams::with_c(5.0);
        let shrunk_params = SmoParams {
            shrinking: true,
            ..base
        };
        let mut rows_a = rows_for(&x, 2, kind, 64);
        let a = ClassicSmoSolver::new(base).solve(&y, &mut rows_a, &exec());
        let mut rows_b = rows_for(&x, 2, kind, 64);
        let b = ClassicSmoSolver::new(shrunk_params).solve(&y, &mut rows_b, &exec());
        assert!(a.converged && b.converged);
        assert!(
            (a.objective - b.objective).abs() < 1e-6 * a.objective.abs().max(1.0),
            "objective {} vs {}",
            a.objective,
            b.objective
        );
        assert!((a.rho - b.rho).abs() < 1e-6, "rho {} vs {}", a.rho, b.rho);
        // Final indicators are reconstructed: consistent within tolerance.
        for i in 0..y.len() {
            assert!(
                (a.f[i] - b.f[i]).abs() < 1e-6,
                "f[{i}] {} vs {}",
                a.f[i],
                b.f[i]
            );
        }
    }

    #[test]
    fn shrinking_converges_on_hard_problem() {
        // Many bound SVs (small C, heavy overlap): the main shrinking
        // opportunity. Must still satisfy global KKT at the end.
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let jitter = ((i * 40503_usize) % 97) as f64 / 97.0 - 0.5;
                vec![jitter, ((i * 7919) % 83) as f64 / 83.0]
            })
            .collect();
        let y: Vec<f64> = (0..100)
            .map(|i| if (i / 3) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let p = SmoParams {
            c: 0.5,
            shrinking: true,
            ..Default::default()
        };
        let mut rows = rows_for(&x, 2, KernelKind::Rbf { gamma: 0.8 }, 32);
        let r = ClassicSmoSolver::new(p).solve(&y, &mut rows, &exec());
        assert!(r.converged);
        let mut f_u = f64::INFINITY;
        let mut f_max = f64::NEG_INFINITY;
        for i in 0..y.len() {
            if in_upper(y[i], r.alpha[i], p.c) {
                f_u = f_u.min(r.f[i]);
            }
            if in_lower(y[i], r.alpha[i], p.c) {
                f_max = f_max.max(r.f[i]);
            }
        }
        assert!(f_max - f_u < p.eps, "violation {}", f_max - f_u);
    }

    #[test]
    fn single_class_degenerate_converges_immediately() {
        // All +1 labels: I_l is empty at α=0 ⇒ immediately optimal, α=0.
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![1.0, 1.0];
        let mut rows = rows_for(&x, 1, KernelKind::Linear, 2);
        let r = ClassicSmoSolver::new(SmoParams::with_c(1.0)).solve(&y, &mut rows, &exec());
        assert!(r.converged);
        assert!(r.alpha.iter().all(|&a| a == 0.0));
    }
}
