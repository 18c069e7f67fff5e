//! The batched working-set solver — GMP-SVM's binary SVM level (§3.3.1).
//!
//! Per outer round:
//! 1. check global optimality (two reductions over `f`);
//! 2. sort instances by their optimality indicators and pick `q` new
//!    violators — `q/2` from the `I_u` side (smallest `f`) and `q/2` from
//!    the `I_l` side (largest `f`) — keeping the rest of the previous
//!    working set resident (the "keep half" observation of the paper);
//! 3. compute the kernel rows of the new violators in **one** batched
//!    launch into the FIFO [`gmp_kernel::KernelBuffer`];
//! 4. run SMO restricted to the working set against buffered rows, with
//!    early termination scaled by `δ = f_l - f_u` to avoid local
//!    optimization on the working set;
//! 5. propagate the accumulated α changes to the optimality indicators of
//!    all instances (one map launch per changed row, batched).

use crate::common::{
    compute_objective, compute_rho_capped, in_lower, in_upper, pair_update_capped, PhaseTimes,
    SmoParams, SolverResult, SolverTelemetry, TAU,
};
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::reduce::{argmax_masked, argmin_masked};
use gmp_gpusim::Executor;
use gmp_kernel::KernelRows;
use std::time::Instant;

/// Parameters of the batched solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedParams {
    /// Shared SMO parameters (C, ε, iteration cap).
    pub base: SmoParams,
    /// Working-set / GPU-buffer capacity in rows (the paper's buffer size,
    /// default 1024).
    pub ws_size: usize,
    /// New violating instances added per outer round (the paper's `q`,
    /// default 512 — about half the buffer, per Fig. 7's finding).
    pub q: usize,
    /// Early-termination factor ρ for the inner loop: stop improving the
    /// working set once its local violation drops below
    /// `max(ε, ρ · δ₀)` where `δ₀` is the global violation at round start.
    /// Larger δ₀ ⇒ earlier exit (§3.3.1 "reducing the negative effect of
    /// local optimization").
    pub inner_relax: f64,
    /// Hard cap on inner iterations per round.
    pub max_inner: usize,
}

impl Default for BatchedParams {
    fn default() -> Self {
        BatchedParams {
            base: SmoParams::default(),
            ws_size: 1024,
            q: 512,
            inner_relax: 0.1,
            max_inner: 4096,
        }
    }
}

impl BatchedParams {
    /// Defaults with a given `C`.
    pub fn with_c(c: f64) -> Self {
        BatchedParams {
            base: SmoParams::with_c(c),
            ..Default::default()
        }
    }

    /// Clamp the working set and batch sizes to a problem of `n` instances
    /// (small problems need no 1024-row buffer).
    pub fn clamped_for(&self, n: usize) -> BatchedParams {
        let ws = self.ws_size.min(n).max(2);
        BatchedParams {
            ws_size: ws,
            q: self.q.min(ws).max(2),
            ..*self
        }
    }
}

/// The batched working-set SMO solver.
#[derive(Debug, Clone, Default)]
pub struct BatchedSmoSolver {
    params: BatchedParams,
}

impl BatchedSmoSolver {
    /// A solver with the given parameters.
    pub fn new(params: BatchedParams) -> Self {
        BatchedSmoSolver { params }
    }

    /// Train on labels `y` (±1) with rows from `rows`, charging `exec`.
    ///
    /// The row provider's buffer must hold at least `ws_size` rows.
    pub fn solve(&self, y: &[f64], rows: &mut dyn KernelRows, exec: &dyn Executor) -> SolverResult {
        let caps = vec![self.params.base.c; rows.n()];
        self.solve_weighted(y, rows, exec, &caps)
    }

    /// [`BatchedSmoSolver::solve`] with per-instance box caps
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
        let params = self.params.clamped_for(n);
        let eps = params.base.eps;
        let mut alpha = vec![0.0f64; n];
        let mut f: Vec<f64> = y.iter().map(|&yi| -yi).collect();

        let mut ws: Vec<usize> = Vec::with_capacity(params.ws_size);
        let mut in_ws = vec![false; n];
        let mut order: Vec<usize> = (0..n).collect(); // argsort scratch

        let mut iterations = 0u64;
        let mut outer_rounds = 0u64;
        let mut converged = false;
        let mut wall = PhaseTimes::default();
        let mut sim = PhaseTimes::default();

        loop {
            // --- Global optimality (Constraint 9).
            let t0 = Instant::now();
            let s0 = exec.elapsed();
            let u_ext = argmin_masked(exec, &f, |i| in_upper(y[i], alpha[i], caps[i]));
            let l_ext = argmax_masked(exec, &f, |i| in_lower(y[i], alpha[i], caps[i]));
            let (Some(u_ext), Some(l_ext)) = (u_ext, l_ext) else {
                converged = true;
                wall.other_s += t0.elapsed().as_secs_f64();
                sim.other_s += exec.elapsed() - s0;
                break;
            };
            let delta0 = l_ext.value - u_ext.value;
            if delta0 < eps {
                converged = true;
                wall.other_s += t0.elapsed().as_secs_f64();
                sim.other_s += exec.elapsed() - s0;
                break;
            }

            // --- Select q new violators (sort f ascending; take from both
            // ends respecting I_u / I_l membership), keep previous rows.
            order.sort_unstable_by(|&a, &b| f[a].total_cmp(&f[b]));
            // Bitonic-sort-equivalent launch cost.
            let logn = (n.max(2) as f64).log2();
            exec.charge(KernelCost {
                threads: (n as u64) / 2,
                flops: (n as f64 * logn * logn) as u64,
                bytes_read: (16.0 * n as f64 * logn) as u64,
                bytes_written: 8 * n as u64,
            });
            let half = (params.q / 2).max(1);
            let mut fresh: Vec<usize> = Vec::with_capacity(params.q);
            let mut picked_up = 0usize;
            // Mark membership immediately: a free SV belongs to both I_u
            // and I_l and must not be picked by both passes (a duplicate
            // working-set entry would double-apply indicator updates).
            for &i in order.iter() {
                if picked_up == half {
                    break;
                }
                if !in_ws[i] && in_upper(y[i], alpha[i], caps[i]) && f[i] < l_ext.value {
                    fresh.push(i);
                    in_ws[i] = true;
                    picked_up += 1;
                }
            }
            let mut picked_low = 0usize;
            for &i in order.iter().rev() {
                if picked_low == half {
                    break;
                }
                if !in_ws[i] && in_lower(y[i], alpha[i], caps[i]) && f[i] > u_ext.value {
                    fresh.push(i);
                    in_ws[i] = true;
                    picked_low += 1;
                }
            }
            // Refresh the working set FIFO: drop oldest to make room
            // (dropped ids are disjoint from `fresh` by construction).
            let overflow = (ws.len() + fresh.len()).saturating_sub(params.ws_size);
            for dropped in ws.drain(..overflow) {
                in_ws[dropped] = false;
            }
            ws.extend_from_slice(&fresh);
            wall.other_s += t0.elapsed().as_secs_f64();
            sim.other_s += exec.elapsed() - s0;

            if ws.is_empty() {
                // Nothing selectable although not converged: numerical
                // corner; treat as converged at current tolerance.
                converged = true;
                break;
            }

            // --- Batched kernel rows for the working set (misses only).
            let tk = Instant::now();
            let sk = exec.elapsed();
            rows.ensure(exec, &ws);
            wall.kernel_s += tk.elapsed().as_secs_f64();
            sim.kernel_s += exec.elapsed() - sk;

            // --- Inner SMO over the working set with buffered rows.
            let t2 = Instant::now();
            let s2 = exec.elapsed();
            // When no fresh violators exist, the working set already holds
            // every remaining violator: solve it to the full tolerance,
            // otherwise the δ-relaxed exit would stall below δ₀ but above ε.
            let inner_eps = if fresh.is_empty() {
                eps
            } else {
                eps.max(params.inner_relax * delta0)
            };
            let mut changed = false;
            let mut alpha_before: Vec<(usize, f64)> = ws.iter().map(|&i| (i, alpha[i])).collect();
            let mut inner_iters_this_round = 0u64;
            for _ in 0..params.max_inner {
                let mut u = usize::MAX;
                let mut f_u = f64::INFINITY;
                for &i in &ws {
                    if in_upper(y[i], alpha[i], caps[i]) && f[i] < f_u {
                        f_u = f[i];
                        u = i;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                // Local convergence is judged on the *maximum* violation in
                // the working set (Constraint 9 restricted to it) — not on
                // the violation of the second-order pick, which can be
                // small even while large violators remain.
                let local_f_max = ws
                    .iter()
                    .filter(|&&i| in_lower(y[i], alpha[i], caps[i]))
                    .map(|&i| f[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                if local_f_max - f_u < inner_eps {
                    break;
                }
                // Second-order partner selection within the working set.
                let k_u = rows.row(u);
                let diag_u = rows.diag(u);
                let mut l = usize::MAX;
                let mut best = f64::NEG_INFINITY;
                let mut f_l_sel = f64::NEG_INFINITY;
                for &i in &ws {
                    if in_lower(y[i], alpha[i], caps[i]) && f[i] > f_u {
                        let eta = (diag_u + rows.diag(i) - 2.0 * k_u[i]).max(TAU);
                        let d = f_u - f[i];
                        let gain = d * d / eta;
                        if gain > best {
                            best = gain;
                            l = i;
                            f_l_sel = f[i];
                        }
                    }
                }
                if l == usize::MAX {
                    break;
                }
                let eta = rows.diag(u) + rows.diag(l) - 2.0 * k_u[l];
                let lambda =
                    pair_update_capped(y, &mut alpha, caps[u], caps[l], u, l, f_u, f_l_sel, eta);
                // Refresh indicators of working-set members only; the rest
                // of `f` is reconciled after the inner loop.
                let k_l = rows.row(l);
                let k_u = rows.row(u);
                for &i in &ws {
                    f[i] += lambda * (k_u[i] - k_l[i]);
                }
                iterations += 1;
                inner_iters_this_round += 1;
                changed = true;
                if iterations >= params.base.max_iter {
                    break;
                }
            }
            // The whole inner solve executes as ONE device launch (the
            // ThunderSVM design: one thread block per working set, rows in
            // fast memory, iterating in-kernel). Per-iteration work: two
            // reductions and the indicator refresh over the working set.
            exec.charge(KernelCost {
                threads: ws.len() as u64,
                flops: (inner_iters_this_round.max(1)) * ws.len() as u64 * 14,
                bytes_read: inner_iters_this_round * ws.len() as u64 * 32,
                bytes_written: inner_iters_this_round * 16 + ws.len() as u64 * 8,
            });
            wall.subproblem_s += t2.elapsed().as_secs_f64();
            sim.subproblem_s += exec.elapsed() - s2;

            // --- Propagate Δα to indicators outside the working set.
            let t3 = Instant::now();
            let s3 = exec.elapsed();
            alpha_before.retain(|&(i, a0)| alpha[i] != a0);
            if !alpha_before.is_empty() {
                for &(j, a0) in &alpha_before {
                    let delta_ya = (alpha[j] - a0) * y[j];
                    let k_j = rows.row(j);
                    for i in 0..n {
                        if !in_ws[i] {
                            f[i] += delta_ya * k_j[i];
                        }
                    }
                }
                exec.charge(KernelCost::map(
                    n as u64,
                    2 * alpha_before.len() as u64,
                    8 * (1 + alpha_before.len() as u64),
                ));
            }
            wall.other_s += t3.elapsed().as_secs_f64();
            sim.other_s += exec.elapsed() - s3;

            outer_rounds += 1;
            audit_solver_state(y, &alpha, caps, &f);
            if !changed && fresh.is_empty() {
                // Stalled: no new candidates and no inner progress.
                break;
            }
            if iterations >= params.base.max_iter {
                break;
            }
        }
        audit_solver_state(y, &alpha, caps, &f);

        let rho = compute_rho_capped(y, &alpha, &f, caps);
        let objective = compute_objective(y, &alpha, &f);
        SolverResult {
            rho,
            objective,
            iterations,
            outer_rounds,
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
}

/// `debug-invariants` audit of the solver state after an outer round:
///
/// - the box `0 ≤ α_i ≤ C_i` holds exactly (pair updates clip to it);
/// - the equality constraint `Σ y α = 0` holds: α starts at zero and
///   every pair update moves α_u and α_l by ±λy, conserving the sum;
/// - every optimality indicator is finite, and every instance still
///   belongs to `I_u ∪ I_l` — an α nudged outside the box by a broken
///   update drops out of both sets and is silently never selected again.
///
/// Compiled out unless the `debug-invariants` feature is on.
#[allow(unused_variables)]
fn audit_solver_state(y: &[f64], alpha: &[f64], caps: &[f64], f: &[f64]) {
    gmp_sync::audit!({
        for i in 0..alpha.len() {
            assert!(
                (0.0..=caps[i]).contains(&alpha[i]),
                "alpha[{i}] = {} escaped the box [0, {}]",
                alpha[i],
                caps[i]
            );
            assert!(
                f[i].is_finite(),
                "indicator f[{i}] = {} is not finite",
                f[i]
            );
            assert!(
                in_upper(y[i], alpha[i], caps[i]) || in_lower(y[i], alpha[i], caps[i]),
                "instance {i} (y={}, alpha={}) fell out of I_u and I_l",
                y[i],
                alpha[i]
            );
        }
        let y_alpha: f64 = y.iter().zip(alpha).map(|(&yi, &a)| yi * a).sum();
        let tol = 1e-9 * caps.iter().fold(1.0f64, |m, &c| m.max(c)) * alpha.len() as f64;
        assert!(
            y_alpha.abs() <= tol,
            "equality constraint drifted: sum y*alpha = {y_alpha}, expected 0"
        );
    });
}

#[cfg(test)]
// Tests index several parallel arrays (y, alpha, f) by position.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::classic::ClassicSmoSolver;
    use gmp_gpusim::CpuExecutor;
    use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
    use gmp_sparse::CsrMatrix;
    use std::sync::Arc;

    fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    /// The trainer moves solvers and their results across wave threads;
    /// these bounds are part of the crate's contract, not an accident.
    #[test]
    fn solver_state_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchedSmoSolver>();
        assert_send_sync::<BatchedParams>();
        assert_send_sync::<ClassicSmoSolver>();
        assert_send_sync::<crate::common::SolverResult>();
        assert_send_sync::<crate::common::SolverTelemetry>();
    }

    fn make_rows(data: &[Vec<f64>], ncols: usize, kind: KernelKind, cap: usize) -> BufferedRows {
        let m = Arc::new(CsrMatrix::from_dense(data, ncols));
        let oracle = Arc::new(KernelOracle::new(m, kind));
        BufferedRows::new(oracle, cap, ReplacementPolicy::FifoBatch, None).unwrap()
    }

    /// Two Gaussian-ish blobs in 2-D, deterministic.
    fn blobs(n_per: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let t = i as f64 / n_per as f64;
            let jitter = ((i * 2654435761) % 97) as f64 / 97.0 - 0.5;
            x.push(vec![-1.5 + 0.6 * jitter, t + 0.3 * jitter]);
            y.push(-1.0);
            x.push(vec![1.5 - 0.6 * jitter, t - 0.3 * jitter]);
            y.push(1.0);
        }
        (x, y)
    }

    fn batched_params(ws: usize, q: usize) -> BatchedParams {
        BatchedParams {
            base: SmoParams::with_c(1.0),
            ws_size: ws,
            q,
            inner_relax: 0.1,
            max_inner: 4096,
        }
    }

    #[test]
    fn converges_on_blobs() {
        let (x, y) = blobs(40);
        let mut rows = make_rows(&x, 2, KernelKind::Rbf { gamma: 0.5 }, 32);
        let r = BatchedSmoSolver::new(batched_params(32, 16)).solve(&y, &mut rows, &exec());
        assert!(r.converged, "did not converge");
        for i in 0..y.len() {
            let v = r.f[i] + y[i] - r.rho;
            assert!(v * y[i] > 0.0, "misclassified training point {i}");
        }
    }

    #[test]
    fn matches_classic_solver_optimum() {
        let (x, y) = blobs(30);
        let kind = KernelKind::Rbf { gamma: 0.5 };
        let c = 2.0;

        let mut rows_c = make_rows(&x, 2, kind, x.len());
        let classic = ClassicSmoSolver::new(SmoParams::with_c(c)).solve(&y, &mut rows_c, &exec());

        let mut rows_b = make_rows(&x, 2, kind, 16);
        let mut bp = batched_params(16, 8);
        bp.base.c = c;
        let batched = BatchedSmoSolver::new(bp).solve(&y, &mut rows_b, &exec());

        assert!(classic.converged && batched.converged);
        // Same optimum within tolerance: objective, rho, and alphas.
        assert!(
            (classic.objective - batched.objective).abs() < 1e-2 * classic.objective.abs().max(1.0),
            "objective {} vs {}",
            classic.objective,
            batched.objective
        );
        assert!(
            (classic.rho - batched.rho).abs() < 5e-3,
            "rho {} vs {}",
            classic.rho,
            batched.rho
        );
    }

    #[test]
    fn equality_constraint_preserved() {
        let (x, y) = blobs(25);
        let mut rows = make_rows(&x, 2, KernelKind::Rbf { gamma: 1.0 }, 16);
        let r = BatchedSmoSolver::new(batched_params(16, 8)).solve(&y, &mut rows, &exec());
        let sum: f64 = r.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(sum.abs() < 1e-9, "Σ y α = {sum}");
        assert!(r.alpha.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn kkt_satisfied_globally() {
        let (x, y) = blobs(20);
        let p = batched_params(8, 4);
        let mut rows = make_rows(&x, 2, KernelKind::Rbf { gamma: 0.7 }, 8);
        let r = BatchedSmoSolver::new(p).solve(&y, &mut rows, &exec());
        let c = p.base.c;
        let mut f_u = f64::INFINITY;
        let mut f_max = f64::NEG_INFINITY;
        for i in 0..y.len() {
            if in_upper(y[i], r.alpha[i], c) {
                f_u = f_u.min(r.f[i]);
            }
            if in_lower(y[i], r.alpha[i], c) {
                f_max = f_max.max(r.f[i]);
            }
        }
        assert!(f_max - f_u < p.base.eps, "violation {}", f_max - f_u);
    }

    /// Heavily overlapping blobs: many support vectors, many SMO
    /// iterations — the regime the paper's datasets live in.
    fn hard_blobs(n_per: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let t = i as f64 / n_per as f64;
            let jitter = ((i * 2654435761) % 97) as f64 / 97.0 - 0.5;
            x.push(vec![-0.2 + 0.8 * jitter, t + 0.5 * jitter]);
            y.push(-1.0);
            x.push(vec![0.2 - 0.8 * jitter, t - 0.5 * jitter]);
            y.push(1.0);
        }
        (x, y)
    }

    #[test]
    fn fewer_kernel_rows_than_classic() {
        // The headline mechanism: batching + buffering computes fewer rows
        // than classic SMO recomputing two rows per iteration with a tiny
        // cache.
        let (x, y) = hard_blobs(60);
        let kind = KernelKind::Rbf { gamma: 2.0 };

        let mut rows_c = make_rows(&x, 2, kind, 2); // classic: effectively no cache
        let classic =
            ClassicSmoSolver::new(SmoParams::with_c(10.0)).solve(&y, &mut rows_c, &exec());

        let mut rows_b = make_rows(&x, 2, kind, 64);
        let mut bp = batched_params(64, 32);
        bp.base.c = 10.0;
        let batched = BatchedSmoSolver::new(bp).solve(&y, &mut rows_b, &exec());

        assert!(batched.converged && classic.converged);
        assert!(
            batched.telemetry.rows.rows_computed < classic.telemetry.rows.rows_computed,
            "batched {} vs classic {}",
            batched.telemetry.rows.rows_computed,
            classic.telemetry.rows.rows_computed
        );
    }

    #[test]
    fn batched_does_more_iterations_but_fewer_launches() {
        // The paper's trade-off: more (cheap) iterations, fewer row
        // computations per iteration.
        let (x, y) = blobs(50);
        let kind = KernelKind::Rbf { gamma: 0.5 };
        let mut rows_b = make_rows(&x, 2, kind, 32);
        let batched = BatchedSmoSolver::new(batched_params(32, 16)).solve(&y, &mut rows_b, &exec());
        assert!(batched.outer_rounds < batched.iterations.max(1));
        // Row computation is bounded by the batch schedule (q new rows per
        // round plus the initial fill), not by the iteration count.
        let s = batched.telemetry.rows;
        assert!(
            s.rows_computed <= (batched.outer_rounds + 2) * 16 + 32,
            "rows {} rounds {}",
            s.rows_computed,
            batched.outer_rounds
        );
    }

    #[test]
    fn working_set_smaller_than_problem_still_converges() {
        let (x, y) = blobs(80);
        let mut rows = make_rows(&x, 2, KernelKind::Rbf { gamma: 0.3 }, 8);
        let r = BatchedSmoSolver::new(batched_params(8, 4)).solve(&y, &mut rows, &exec());
        assert!(r.converged);
    }

    #[test]
    fn degenerate_single_class() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1.0, 1.0, 1.0];
        let mut rows = make_rows(&x, 1, KernelKind::Linear, 3);
        let r = BatchedSmoSolver::new(batched_params(2, 2)).solve(&y, &mut rows, &exec());
        assert!(r.converged);
        assert!(r.alpha.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn phase_times_populated() {
        let (x, y) = blobs(30);
        let mut rows = make_rows(&x, 2, KernelKind::Rbf { gamma: 0.5 }, 16);
        let r = BatchedSmoSolver::new(batched_params(16, 8)).solve(&y, &mut rows, &exec());
        let p = r.telemetry.sim_phases;
        assert!(p.kernel_s > 0.0, "kernel phase timed");
        assert!(p.subproblem_s > 0.0, "subproblem phase timed");
        assert!(p.other_s > 0.0, "other phase timed");
    }

    #[test]
    fn params_clamped_for_small_problems() {
        let p = BatchedParams::default().clamped_for(10);
        assert_eq!(p.ws_size, 10);
        assert!(p.q <= 10);
    }
}
