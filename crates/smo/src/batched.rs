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
//!
//! On the host, step 4 runs the way the paper's thread block does: the
//! working set's `f`, α, labels, caps and kernel diagonal are gathered into
//! local arrays at round start and scattered back at its end. A masked copy
//! of `f` (−∞ outside `I_l`) makes the partner search a plain scan, and the
//! indicator update after each pair step also finds the next `u` and the
//! local maximum, so an iteration makes two passes over the working set.
//! A kernel row's working-set columns are gathered lazily, the first time
//! the row is used as `u` or `l` in the round. Step 5 makes one pass over
//! `n` with the moved α in the inner loop, so each `f_i` still receives its
//! adds in working-set order. Every comparison keeps its strict `<`/`>` and
//! its working-set order, so ties resolve and bits come out as in the
//! global-index version. Step 2 keeps its full sort: every `f` starts at
//! ±1, and the sort's tie order decides which violators are picked, so a
//! partial selection would change the iterate path.

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
                                                      // Per-round scratch, sized once so that rounds never allocate.
        let mut fresh: Vec<usize> = Vec::with_capacity(params.q);
        let mut local = LocalWs::with_capacity(params.ws_size);
        let mut moved: Vec<(usize, f64)> = Vec::with_capacity(params.ws_size);

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
            // The full sort stays: every f starts at ±1, so the sort's tie
            // order decides which violators are picked.
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
            fresh.clear();
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

            // --- Inner SMO over the working set, on local arrays indexed by
            // working-set position (see `LocalWs`).
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
            let rows_view: &dyn KernelRows = &*rows;
            let (mut u, mut f_u, mut local_f_max) =
                local.gather(&ws, y, &alpha, caps, &f, rows_view);
            let mut inner_iters_this_round = 0u64;
            for _ in 0..params.max_inner {
                if u == NONE {
                    break;
                }
                // Local convergence is judged on the *maximum* violation in
                // the working set (Constraint 9 restricted to it) — not on
                // the violation of the second-order pick, which can be
                // small even while large violators remain.
                if local_f_max - f_u < inner_eps {
                    break;
                }
                // Second-order partner selection within the working set.
                let ku = local.fetch_row(u, &ws, rows_view);
                let Some((l, f_l)) = local.partner(u, f_u, ku) else {
                    break;
                };
                let kl = local.fetch_row(l, &ws, rows_view);
                (u, f_u, local_f_max) = local.step(u, l, f_u, f_l, ku, kl);
                iterations += 1;
                inner_iters_this_round += 1;
                if iterations >= params.base.max_iter {
                    break;
                }
            }
            local.scatter(&ws, &mut alpha, &mut f);
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
            local.moved(&ws, &mut moved);
            if !moved.is_empty() {
                propagate(&moved, rows_view, &in_ws, &mut f);
                exec.charge(KernelCost::map(
                    n as u64,
                    2 * moved.len() as u64,
                    8 * (1 + moved.len() as u64),
                ));
            }
            wall.other_s += t3.elapsed().as_secs_f64();
            sim.other_s += exec.elapsed() - s3;

            outer_rounds += 1;
            audit_solver_state(y, &alpha, caps, &f);
            if inner_iters_this_round == 0 && fresh.is_empty() {
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

/// "No member" marker for working-set positions.
const NONE: usize = usize::MAX;

/// Changed α propagated per pass over `n` (a stack array of row slices,
/// so the propagation never allocates).
const PROPAGATE_ROWS: usize = 128;

/// One round's working set in contiguous arrays indexed by working-set
/// position `0..m` — the host counterpart of the paper's thread block
/// holding its working set in fast memory. Gathered at round start,
/// scattered back at its end; the buffers keep their capacity across
/// rounds.
///
/// `f_low` is `f` on `I_l` and −∞ elsewhere, so the partner search is a
/// plain scan. Its `I_u` twin (`f` or +∞) is consumed by the same pass
/// that computes it — the indicator update after each pair step, which
/// also finds the next `u` and the local `I_l` maximum — so it is never
/// stored. Only `u` and `l` change membership in a step.
///
/// Kernel values are gathered lazily: the working-set columns of a row are
/// copied into `k` the first time that row is used as `u` or `l` in the
/// round, so `k` holds only the rows the round touches.
#[derive(Default)]
struct LocalWs {
    f: Vec<f64>,
    f_low: Vec<f64>,
    alpha: Vec<f64>,
    /// α at round start: a position whose α differs at the end is a moved
    /// instance to propagate.
    alpha0: Vec<f64>,
    y: Vec<f64>,
    cap: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<bool>,
    lower: Vec<bool>,
    /// Position -> offset of its gathered row in `k` (`NONE` = not yet).
    k_at: Vec<usize>,
    k: Vec<f64>,
}

impl LocalWs {
    fn with_capacity(m: usize) -> Self {
        LocalWs {
            f: Vec::with_capacity(m),
            f_low: Vec::with_capacity(m),
            alpha: Vec::with_capacity(m),
            alpha0: Vec::with_capacity(m),
            y: Vec::with_capacity(m),
            cap: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
            upper: Vec::with_capacity(m),
            lower: Vec::with_capacity(m),
            k_at: Vec::with_capacity(m),
            // Reserved, not touched: only the rows a round uses are written.
            k: Vec::with_capacity(m * m),
        }
    }

    /// Gather the working set and return the first `(u, f_u, local f_max)`:
    /// the first minimum of `f` over `I_u` in `ws` order (`NONE` when `I_u`
    /// misses the working set) and the maximum of `f` over `I_l`.
    fn gather(
        &mut self,
        ws: &[usize],
        y: &[f64],
        alpha: &[f64],
        caps: &[f64],
        f: &[f64],
        rows: &dyn KernelRows,
    ) -> (usize, f64, f64) {
        self.f.clear();
        self.f_low.clear();
        self.alpha.clear();
        self.y.clear();
        self.cap.clear();
        self.diag.clear();
        self.upper.clear();
        self.lower.clear();
        self.k_at.clear();
        self.k.clear();
        let (mut u, mut f_u, mut f_max) = (NONE, f64::INFINITY, f64::NEG_INFINITY);
        for (a, &i) in ws.iter().enumerate() {
            let upper = in_upper(y[i], alpha[i], caps[i]);
            let lower = in_lower(y[i], alpha[i], caps[i]);
            let f_up = if upper { f[i] } else { f64::INFINITY };
            let f_low = if lower { f[i] } else { f64::NEG_INFINITY };
            if f_up < f_u {
                f_u = f_up;
                u = a;
            }
            if f_low > f_max {
                f_max = f_low;
            }
            self.f.push(f[i]);
            self.f_low.push(f_low);
            self.alpha.push(alpha[i]);
            self.y.push(y[i]);
            self.cap.push(caps[i]);
            self.diag.push(rows.diag(i));
            self.upper.push(upper);
            self.lower.push(lower);
            self.k_at.push(NONE);
        }
        self.alpha0.clone_from(&self.alpha);
        (u, f_u, f_max)
    }

    /// Offset in `k` of position `a`'s row over the working-set columns,
    /// gathering it on first use this round.
    fn fetch_row(&mut self, a: usize, ws: &[usize], rows: &dyn KernelRows) -> usize {
        if self.k_at[a] == NONE {
            self.k_at[a] = self.k.len();
            let row = rows.row(ws[a]);
            self.k.extend(ws.iter().map(|&j| row[j]));
        }
        self.k_at[a]
    }

    /// Second-order partner of `u` (row at offset `ku`): the `I_l` member
    /// with `f > f_u` of largest gain `(f_u − f)² / η`, first in `ws`
    /// order on ties. Returns its position and `f`.
    fn partner(&self, u: usize, f_u: f64, ku: usize) -> Option<(usize, f64)> {
        let m = self.f.len();
        let k_u = &self.k[ku..ku + m];
        let diag_u = self.diag[u];
        let mut l = NONE;
        let mut best = f64::NEG_INFINITY;
        let mut f_l = f64::NEG_INFINITY;
        for (i, (&fi, (&d, &k))) in self.f_low.iter().zip(self.diag.iter().zip(k_u)).enumerate() {
            if fi > f_u {
                let eta = (diag_u + d - 2.0 * k).max(TAU);
                let diff = f_u - fi;
                let gain = diff * diff / eta;
                if gain > best {
                    best = gain;
                    l = i;
                    f_l = fi;
                }
            }
        }
        (l != NONE).then_some((l, f_l))
    }

    /// Apply the pair step on `(u, l)` (rows at offsets `ku`, `kl`), then
    /// refresh every member's indicator in one pass that also returns the
    /// next `(u, f_u, local f_max)` as [`LocalWs::gather`] does.
    fn step(
        &mut self,
        u: usize,
        l: usize,
        f_u: f64,
        f_l: f64,
        ku: usize,
        kl: usize,
    ) -> (usize, f64, f64) {
        let m = self.f.len();
        let eta = self.diag[u] + self.diag[l] - 2.0 * self.k[ku + l];
        let lambda = pair_update_capped(
            &self.y,
            &mut self.alpha,
            self.cap[u],
            self.cap[l],
            u,
            l,
            f_u,
            f_l,
            eta,
        );
        for p in [u, l] {
            self.upper[p] = in_upper(self.y[p], self.alpha[p], self.cap[p]);
            self.lower[p] = in_lower(self.y[p], self.alpha[p], self.cap[p]);
        }
        let (k_u, k_l) = (&self.k[ku..ku + m], &self.k[kl..kl + m]);
        let (mut u, mut f_u, mut f_max) = (NONE, f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..m {
            let fi = self.f[i] + lambda * (k_u[i] - k_l[i]);
            self.f[i] = fi;
            let f_up = if self.upper[i] { fi } else { f64::INFINITY };
            let f_low = if self.lower[i] { fi } else { f64::NEG_INFINITY };
            self.f_low[i] = f_low;
            if f_up < f_u {
                f_u = f_up;
                u = i;
            }
            if f_low > f_max {
                f_max = f_low;
            }
        }
        (u, f_u, f_max)
    }

    /// Write the round's `f` and α back to the global arrays.
    fn scatter(&self, ws: &[usize], alpha: &mut [f64], f: &mut [f64]) {
        for (a, &i) in ws.iter().enumerate() {
            f[i] = self.f[a];
            alpha[i] = self.alpha[a];
        }
    }

    /// The members whose α moved this round, as `(instance, Δα·y)` in `ws`
    /// order.
    fn moved(&self, ws: &[usize], out: &mut Vec<(usize, f64)>) {
        out.clear();
        for (a, &i) in ws.iter().enumerate() {
            if self.alpha[a] != self.alpha0[a] {
                out.push((i, (self.alpha[a] - self.alpha0[a]) * self.y[a]));
            }
        }
    }
}

/// Propagate the moved α to the indicators outside the working set: one
/// pass over `n` per [`PROPAGATE_ROWS`] moved instances, each `f[i]`
/// receiving its adds in `moved` order.
fn propagate(moved: &[(usize, f64)], rows: &dyn KernelRows, in_ws: &[bool], f: &mut [f64]) {
    let n = f.len();
    for chunk in moved.chunks(PROPAGATE_ROWS) {
        let mut k_rows: [&[f64]; PROPAGATE_ROWS] = [&[]; PROPAGATE_ROWS];
        for (slot, &(j, _)) in k_rows.iter_mut().zip(chunk) {
            *slot = &rows.row(j)[..n];
        }
        let k_rows = &k_rows[..chunk.len()];
        for i in 0..n {
            if in_ws[i] {
                continue;
            }
            let mut fi = f[i];
            for (k_j, &(_, delta_ya)) in k_rows.iter().zip(chunk) {
                fi += delta_ya * k_j[i];
            }
            f[i] = fi;
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
