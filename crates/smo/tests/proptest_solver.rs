//! Property-based tests: solver invariants that must hold on *any* input.
#![allow(clippy::needless_range_loop)] // parallel-array indexing

use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::reduce::{argmax_masked, argmin_masked};
use gmp_gpusim::CpuExecutor;
use gmp_gpusim::Executor;
use gmp_kernel::KernelRows;
use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
use gmp_smo::common::{
    compute_objective, compute_rho_capped, in_lower, in_upper, pair_update_capped, PhaseTimes,
    SolverTelemetry, TAU,
};
use gmp_smo::{BatchedParams, BatchedSmoSolver, ClassicSmoSolver, SmoParams, SolverResult};
use gmp_sparse::CsrMatrix;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn exec() -> CpuExecutor {
    CpuExecutor::xeon(1)
}

/// Random small binary classification problem: points in [-1,1]^2 with
/// labels balanced (at least one of each).
fn problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (4usize..24).prop_flat_map(|n| {
        (
            proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, 2), n),
            proptest::collection::vec(proptest::bool::ANY, n),
        )
            .prop_map(|(x, flags)| {
                let mut y: Vec<f64> = flags.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
                // Guarantee both classes exist.
                y[0] = 1.0;
                let last = y.len() - 1;
                y[last] = -1.0;
                (x, y)
            })
    })
}

fn solve_classic(x: &[Vec<f64>], y: &[f64], c: f64, gamma: f64) -> SolverResult {
    let m = Arc::new(CsrMatrix::from_dense(x, 2));
    let oracle = Arc::new(KernelOracle::new(m, KernelKind::Rbf { gamma }));
    let mut rows = BufferedRows::new(oracle, x.len(), ReplacementPolicy::Lru, None).unwrap();
    ClassicSmoSolver::new(SmoParams {
        c,
        eps: 1e-3,
        max_iter: 100_000,
        shrinking: false,
    })
    .solve(y, &mut rows, &exec())
}

fn solve_batched(x: &[Vec<f64>], y: &[f64], c: f64, gamma: f64) -> SolverResult {
    let m = Arc::new(CsrMatrix::from_dense(x, 2));
    let oracle = Arc::new(KernelOracle::new(m, KernelKind::Rbf { gamma }));
    let mut rows = BufferedRows::new(oracle, 8, ReplacementPolicy::FifoBatch, None).unwrap();
    BatchedSmoSolver::new(BatchedParams {
        base: SmoParams {
            c,
            eps: 1e-3,
            max_iter: 100_000,
            shrinking: false,
        },
        ws_size: 8,
        q: 4,
        inner_relax: 0.1,
        max_inner: 64,
    })
    .solve(y, &mut rows, &exec())
}

/// The batched solver as it was before its inner solve moved onto local
/// working-set arrays: global indices, a `diag` call per member per
/// partner scan, a row lookup per use, and one pass over `n` per moved α.
/// The optimised solver must reproduce it bit for bit.
#[allow(clippy::too_many_lines)]
fn reference_solve_weighted(
    params: &BatchedParams,
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
    let params = params.clamped_for(n);
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
        if !changed && fresh.is_empty() {
            // Stalled: no new candidates and no inner progress.
            break;
        }
        if iterations >= params.base.max_iter {
            break;
        }
    }

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

/// A binary problem with duplicated rows (ties in `f` beyond the ±1 start),
/// random labels and random per-instance caps.
fn bitwise_case() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>)> {
    (2usize..=300, 1usize..6).prop_flat_map(|(n, distinct_div)| {
        let distinct = (n / distinct_div).max(1);
        (
            proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, 3), distinct),
            proptest::collection::vec(0usize..distinct, n),
            proptest::collection::vec(proptest::bool::ANY, n),
            proptest::collection::vec(0.2..6.0f64, n),
        )
            .prop_map(|(points, pick, flags, caps)| {
                let x = pick.iter().map(|&p| points[p].clone()).collect();
                let y = flags.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
                (x, y, caps)
            })
    })
}

fn bitwise_run(
    x: &[Vec<f64>],
    y: &[f64],
    caps: &[f64],
    params: &BatchedParams,
    gamma: f64,
    reference: bool,
) -> (SolverResult, f64) {
    let m = Arc::new(CsrMatrix::from_dense(x, 3));
    let oracle = Arc::new(KernelOracle::new(m, KernelKind::Rbf { gamma }));
    let cap = params.clamped_for(x.len()).ws_size;
    let mut rows = BufferedRows::new(oracle, cap, ReplacementPolicy::FifoBatch, None).unwrap();
    let e = exec();
    let r = if reference {
        reference_solve_weighted(params, y, &mut rows, &e, caps)
    } else {
        BatchedSmoSolver::new(*params).solve_weighted(y, &mut rows, &e, caps)
    };
    (r, e.elapsed())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn classic_feasibility_and_kkt((x, y) in problem(), c in 0.5..8.0f64, gamma in 0.2..2.0f64) {
        let r = solve_classic(&x, &y, c, gamma);
        prop_assert!(r.converged);
        // Box constraints.
        prop_assert!(r.alpha.iter().all(|&a| (0.0..=c).contains(&a)));
        // Equality constraint.
        let s: f64 = r.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        prop_assert!(s.abs() < 1e-9, "sum y alpha = {}", s);
        // KKT within eps.
        let mut f_u = f64::INFINITY;
        let mut f_max = f64::NEG_INFINITY;
        for i in 0..y.len() {
            if in_upper(y[i], r.alpha[i], c) { f_u = f_u.min(r.f[i]); }
            if in_lower(y[i], r.alpha[i], c) { f_max = f_max.max(r.f[i]); }
        }
        prop_assert!(f_max - f_u < 1e-3 || !f_max.is_finite() || !f_u.is_finite());
        // Minimized dual objective never exceeds the feasible point alpha=0.
        prop_assert!(r.objective <= 1e-12, "objective {}", r.objective);
    }

    #[test]
    fn batched_matches_classic((x, y) in problem(), c in 0.5..8.0f64) {
        let gamma = 0.8;
        let classic = solve_classic(&x, &y, c, gamma);
        let batched = solve_batched(&x, &y, c, gamma);
        prop_assert!(batched.converged);
        let tol = 2e-2 * classic.objective.abs().max(1.0);
        prop_assert!(
            (classic.objective - batched.objective).abs() < tol,
            "objective {} vs {}", classic.objective, batched.objective
        );
        prop_assert!((classic.rho - batched.rho).abs() < 5e-2,
            "rho {} vs {}", classic.rho, batched.rho);
    }

    #[test]
    fn batched_feasible_under_any_geometry((x, y) in problem()) {
        let r = solve_batched(&x, &y, 2.0, 1.0);
        prop_assert!(r.alpha.iter().all(|&a| (0.0..=2.0).contains(&a)));
        let s: f64 = r.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        prop_assert!(s.abs() < 1e-9);
    }

    #[test]
    fn indicators_consistent_with_alpha((x, y) in problem()) {
        // f_i must equal sum_j alpha_j y_j K_ij - y_i at the solution.
        let r = solve_classic(&x, &y, 4.0, 0.7);
        let m = CsrMatrix::from_dense(&x, 2);
        let oracle = KernelOracle::new(Arc::new(m), KernelKind::Rbf { gamma: 0.7 });
        for i in 0..y.len() {
            let mut fi = -y[i];
            for j in 0..y.len() {
                if r.alpha[j] > 0.0 {
                    fi += r.alpha[j] * y[j] * oracle.eval_pair(i, j);
                }
            }
            prop_assert!((fi - r.f[i]).abs() < 1e-8, "f[{}] {} vs {}", i, r.f[i], fi);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_solver_matches_reference_bit_for_bit(
        (x, y, caps) in bitwise_case(),
        ws_frac in 0.1..1.5f64,
        q_odd in 0usize..40,
        relax_on in proptest::bool::ANY,
        max_iter in prop_oneof![1u64..120, Just(5_000u64)],
        gamma in 0.3..3.0f64,
    ) {
        let n = x.len();
        let ws_size = ((n as f64 * ws_frac) as usize).max(2);
        // q stays at most half the working set, the paper's regime. With
        // q equal to the working set, a round replaces every member, and
        // members already in it are never re-picked: the global extremes
        // can drop out for good and both solvers then loop without an
        // inner step (a separate defect, not what this test compares).
        let params = BatchedParams {
            base: SmoParams { c: 1.0, eps: 1e-3, max_iter, shrinking: false },
            ws_size,
            q: (2 * q_odd + 1).min(ws_size / 2).max(1) | 1,
            inner_relax: if relax_on { 0.1 } else { 0.0 },
            max_inner: 256,
        };
        let (want, want_s) = bitwise_run(&x, &y, &caps, &params, gamma, true);
        let (got, got_s) = bitwise_run(&x, &y, &caps, &params, gamma, false);
        prop_assert!(same_bits(&got.alpha, &want.alpha), "alpha differs");
        prop_assert!(same_bits(&got.f, &want.f), "f differs");
        prop_assert_eq!(got.rho.to_bits(), want.rho.to_bits());
        prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits());
        prop_assert_eq!(got.iterations, want.iterations);
        prop_assert_eq!(got.outer_rounds, want.outer_rounds);
        prop_assert_eq!(got.converged, want.converged);
        prop_assert_eq!(got.telemetry.rows, want.telemetry.rows);
        prop_assert_eq!(got_s.to_bits(), want_s.to_bits());
    }
}
