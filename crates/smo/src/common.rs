//! Shared solver types: parameters, results, telemetry, and the index-set
//! predicates of Equation (4)/(5) of the paper.

use gmp_kernel::RowProviderStats;

/// Minimum curvature substituted when `eta <= 0` (degenerate pairs), as in
/// LibSVM's `TAU`.
pub const TAU: f64 = 1e-12;

/// Parameters shared by all SMO variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Penalty parameter `C` of Problem (1).
    pub c: f64,
    /// Stopping tolerance ε: converged when `f_max - f_u < eps`
    /// (Constraint (9) with LibSVM's default 1e-3).
    pub eps: f64,
    /// Safety cap on SMO pair updates (defends against pathological
    /// configurations; hitting it is reported in the result).
    pub max_iter: u64,
    /// LibSVM's shrinking heuristic (classic solver only): periodically
    /// remove confidently-bounded instances from the active set, and
    /// reconstruct their indicators before declaring convergence. Changes
    /// cost, never the optimum.
    pub shrinking: bool,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams {
            c: 1.0,
            eps: 1e-3,
            max_iter: 10_000_000,
            shrinking: false,
        }
    }
}

impl SmoParams {
    /// Parameters with a given `C`, defaults elsewhere.
    pub fn with_c(c: f64) -> Self {
        SmoParams {
            c,
            ..Default::default()
        }
    }
}

/// Is instance `i` in `I_u = I_1 ∪ I_2 ∪ I_3` (its `y·α` can increase)?
#[inline]
pub fn in_upper(y: f64, alpha: f64, c: f64) -> bool {
    (y > 0.0 && alpha < c) || (y < 0.0 && alpha > 0.0)
}

/// Is instance `i` in `I_l = I_1 ∪ I_4 ∪ I_5` (its `y·α` can decrease)?
#[inline]
pub fn in_lower(y: f64, alpha: f64, c: f64) -> bool {
    (y > 0.0 && alpha > 0.0) || (y < 0.0 && alpha < c)
}

/// Wall/simulated time attribution over the three component groups the
/// paper's Fig. 11 reports: kernel-value computation, solving the
/// subproblem, and everything else (selection, indicator updates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Kernel value computation (batched row launches).
    pub kernel_s: f64,
    /// Solving the working-set subproblem (inner SMO iterations).
    pub subproblem_s: f64,
    /// Working-set selection, sorting, global indicator updates.
    pub other_s: f64,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> f64 {
        self.kernel_s + self.subproblem_s + self.other_s
    }

    /// Percentages `(kernel, subproblem, other)`; zeros if nothing timed.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.kernel_s / t,
            100.0 * self.subproblem_s / t,
            100.0 * self.other_s / t,
        )
    }

    /// Elementwise sum.
    pub fn add(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            kernel_s: self.kernel_s + other.kernel_s,
            subproblem_s: self.subproblem_s + other.subproblem_s,
            other_s: self.other_s + other.other_s,
        }
    }
}

/// Counters and timings of one solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverTelemetry {
    /// Row-provider counters (kernel evals, rows computed, hits/misses).
    pub rows: RowProviderStats,
    /// Simulated-time attribution per phase.
    pub sim_phases: PhaseTimes,
    /// Wall-clock attribution per phase.
    pub wall_phases: PhaseTimes,
}

/// Output of a binary SVM training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverResult {
    /// Instance weights α (length `n`).
    pub alpha: Vec<f64>,
    /// Bias term of the decision function in LibSVM's convention:
    /// `decision(x) = Σ y_j α_j K(x_j, x) - rho`.
    pub rho: f64,
    /// Final optimality indicators `f` (Equation 3). Training-set decision
    /// values follow as `v_i = f_i + y_i - rho`, which is how the sigmoid
    /// is fitted without extra kernel work.
    pub f: Vec<f64>,
    /// Dual objective in LibSVM's minimized form `½αᵀQα - Σα`.
    pub objective: f64,
    /// Number of SMO pair updates performed.
    pub iterations: u64,
    /// Outer working-set rounds (1-instance-pair rounds for the classic
    /// solver).
    pub outer_rounds: u64,
    /// True if the ε tolerance was met (false = iteration cap hit).
    pub converged: bool,
    /// Counters and phase timings.
    pub telemetry: SolverTelemetry,
}

impl SolverResult {
    /// Indices with `α > 0` (the support vectors).
    pub fn support_indices(&self) -> Vec<usize> {
        self.alpha
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.alpha.iter().filter(|&&a| a > 0.0).count()
    }
}

/// Compute `rho` (LibSVM's `calculate_rho`): the mean of `f` over free
/// support vectors, or the midpoint of the violating extremes when no free
/// support vector exists.
pub fn compute_rho(y: &[f64], alpha: &[f64], f: &[f64], c: f64) -> f64 {
    let caps = vec![c; y.len()];
    compute_rho_capped(y, alpha, f, &caps)
}

/// [`compute_rho`] with per-instance box caps.
pub fn compute_rho_capped(y: &[f64], alpha: &[f64], f: &[f64], caps: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..y.len() {
        if alpha[i] > 0.0 && alpha[i] < caps[i] {
            sum += f[i];
            count += 1;
        }
    }
    if count > 0 {
        return sum / count as f64;
    }
    // No free SVs: bracket between the set extremes.
    let mut ub = f64::INFINITY;
    let mut lb = f64::NEG_INFINITY;
    for i in 0..y.len() {
        if in_upper(y[i], alpha[i], caps[i]) {
            ub = ub.min(f[i]);
        }
        if in_lower(y[i], alpha[i], caps[i]) {
            lb = lb.max(f[i]);
        }
    }
    if ub.is_finite() && lb.is_finite() {
        (ub + lb) / 2.0
    } else {
        0.0
    }
}

/// Dual objective `½αᵀQα - Σα` from the final indicators
/// (using `(Qα)_i = y_i (f_i + y_i)`).
pub fn compute_objective(y: &[f64], alpha: &[f64], f: &[f64]) -> f64 {
    let mut quad = 0.0;
    let mut lin = 0.0;
    for i in 0..y.len() {
        quad += alpha[i] * y[i] * (f[i] + y[i]);
        lin += alpha[i];
    }
    0.5 * quad - lin
}

/// Perform the SMO pair update with box clipping and return the step λ
/// (the change of `y_u α_u`, which equals the decrease of `y_l α_l`).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pair_update(
    y: &[f64],
    alpha: &mut [f64],
    c: f64,
    u: usize,
    l: usize,
    f_u: f64,
    f_l: f64,
    eta: f64,
) -> f64 {
    pair_update_capped(y, alpha, c, c, u, l, f_u, f_l, eta)
}

/// [`pair_update`] with per-instance box caps (weighted classes: LibSVM's
/// `-wi` makes `C_i = C · w_{y_i}`).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pair_update_capped(
    y: &[f64],
    alpha: &mut [f64],
    c_u: f64,
    c_l: f64,
    u: usize,
    l: usize,
    f_u: f64,
    f_l: f64,
    eta: f64,
) -> f64 {
    debug_assert!(f_l > f_u, "pair must be violating");
    let eta = eta.max(TAU);
    // Unconstrained optimum step.
    let mut lambda = (f_l - f_u) / eta;
    // Box capacities: y_u α_u can increase by cap_u, y_l α_l can decrease
    // by cap_l.
    let cap_u = if y[u] > 0.0 { c_u - alpha[u] } else { alpha[u] };
    let cap_l = if y[l] > 0.0 { alpha[l] } else { c_l - alpha[l] };
    lambda = lambda.min(cap_u).min(cap_l);
    alpha[u] += lambda * y[u];
    alpha[l] -= lambda * y[l];
    // Snap to the box to avoid drift from rounding.
    alpha[u] = alpha[u].clamp(0.0, c_u);
    alpha[l] = alpha[l].clamp(0.0, c_l);
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_set_membership() {
        let c = 1.0;
        // free SV: in both sets
        assert!(in_upper(1.0, 0.5, c) && in_lower(1.0, 0.5, c));
        assert!(in_upper(-1.0, 0.5, c) && in_lower(-1.0, 0.5, c));
        // y=+1, α=0: I_2 ⊂ I_u only
        assert!(in_upper(1.0, 0.0, c) && !in_lower(1.0, 0.0, c));
        // y=-1, α=C: I_3 ⊂ I_u only
        assert!(in_upper(-1.0, 1.0, c) && !in_lower(-1.0, 1.0, c));
        // y=+1, α=C: I_4 ⊂ I_l only
        assert!(!in_upper(1.0, 1.0, c) && in_lower(1.0, 1.0, c));
        // y=-1, α=0: I_5 ⊂ I_l only
        assert!(!in_upper(-1.0, 0.0, c) && in_lower(-1.0, 0.0, c));
    }

    #[test]
    fn pair_update_respects_box() {
        let y = vec![1.0, -1.0];
        let c = 1.0;
        let mut alpha = vec![0.9, 0.95];
        // Huge violation: step limited by cap_u = 0.1 and cap_l = C-α_l = 0.05.
        let lambda = pair_update(&y, &mut alpha, c, 0, 1, -5.0, 5.0, 1.0);
        assert!((lambda - 0.05).abs() < 1e-12);
        assert!((alpha[0] - 0.95).abs() < 1e-12);
        assert!((alpha[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_update_unconstrained_step() {
        let y = vec![1.0, 1.0];
        let mut alpha = vec![0.0, 0.5];
        // (f_l - f_u)/eta = (1 - 0)/2 = 0.5, caps: u: C-0=1, l: α_l=0.5.
        let lambda = pair_update(&y, &mut alpha, 1.0, 0, 1, 0.0, 1.0, 2.0);
        assert!((lambda - 0.5).abs() < 1e-12);
        assert!((alpha[0] - 0.5).abs() < 1e-12);
        assert!(alpha[1].abs() < 1e-12);
    }

    #[test]
    fn pair_update_degenerate_eta_uses_tau() {
        let y = vec![1.0, 1.0];
        let mut alpha = vec![0.0, 1.0];
        let lambda = pair_update(&y, &mut alpha, 1.0, 0, 1, 0.0, 1e-6, 0.0);
        // λ = 1e-6/TAU would be astronomically large; clipped to box cap 1.
        assert!((lambda - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rho_free_sv_average() {
        let y = vec![1.0, -1.0, 1.0];
        let alpha = vec![0.5, 0.3, 0.0];
        let f = vec![-0.2, -0.4, 1.0];
        let rho = compute_rho(&y, &alpha, &f, 1.0);
        assert!((rho - (-0.3)).abs() < 1e-12);
    }

    #[test]
    fn rho_no_free_sv_midpoint() {
        let y = vec![1.0, -1.0];
        let alpha = vec![0.0, 0.0]; // y=+1 α=0 in I_u; y=-1 α=0 in I_l
        let f = vec![-1.0, 1.0];
        let rho = compute_rho(&y, &alpha, &f, 1.0);
        assert!((rho - 0.0).abs() < 1e-12);
    }

    #[test]
    fn objective_zero_alpha() {
        let y = vec![1.0, -1.0];
        let alpha = vec![0.0, 0.0];
        let f = vec![-1.0, 1.0];
        assert_eq!(compute_objective(&y, &alpha, &f), 0.0);
    }

    #[test]
    fn phase_percentages_sum_100() {
        let p = PhaseTimes {
            kernel_s: 3.0,
            subproblem_s: 1.0,
            other_s: 1.0,
        };
        let (a, b, c) = p.percentages();
        assert!((a + b + c - 100.0).abs() < 1e-9);
        assert!((a - 60.0).abs() < 1e-9);
    }

    #[test]
    fn phase_add() {
        let p = PhaseTimes {
            kernel_s: 1.0,
            subproblem_s: 2.0,
            other_s: 3.0,
        };
        let q = p.add(&p);
        assert_eq!(q.total(), 12.0);
    }

    #[test]
    fn support_indices() {
        let r = SolverResult {
            alpha: vec![0.0, 0.5, 1.0, 0.0],
            rho: 0.0,
            f: vec![0.0; 4],
            objective: 0.0,
            iterations: 0,
            outer_rounds: 0,
            converged: true,
            telemetry: SolverTelemetry::default(),
        };
        assert_eq!(r.support_indices(), vec![1, 2]);
        assert_eq!(r.n_support(), 2);
    }
}
