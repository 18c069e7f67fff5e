//! Pairwise coupling: combine binary probabilities into a multi-class
//! distribution (Problem 14, solved per Equation 15 / Wu et al. 2004).

/// The `k x k` matrix of pairwise probability estimates:
/// `r[s][t] = P(class s | class s or t, x)` with `r[t][s] = 1 - r[s][t]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseProbs {
    k: usize,
    r: Vec<f64>, // row-major k x k, diagonal unused
}

impl PairwiseProbs {
    /// An empty estimate matrix for `k` classes.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "need at least two classes");
        PairwiseProbs {
            k,
            r: vec![0.0; k * k],
        }
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Set `r[s][t] = p` (and `r[t][s] = 1 - p`), clamping into
    /// `[1e-7, 1-1e-7]` as LibSVM does to keep the coupling well posed.
    pub fn set(&mut self, s: usize, t: usize, p: f64) {
        assert!(s != t, "diagonal is undefined");
        let p = p.clamp(1e-7, 1.0 - 1e-7);
        self.r[s * self.k + t] = p;
        self.r[t * self.k + s] = 1.0 - p;
    }

    /// `r[s][t]`.
    #[inline]
    pub fn get(&self, s: usize, t: usize) -> f64 {
        self.r[s * self.k + t]
    }

    /// Build the coupling matrix `Q` of Equation (15):
    /// `Q_ss = Σ_{u≠s} r_us²`, `Q_st = -r_st·r_ts`.
    fn build_q(&self) -> Vec<f64> {
        let k = self.k;
        let mut q = vec![0.0; k * k];
        for s in 0..k {
            let mut diag = 0.0;
            for u in 0..k {
                if u == s {
                    continue;
                }
                let r_us = self.get(u, s);
                diag += r_us * r_us;
                q[s * k + u] = -self.get(s, u) * self.get(u, s);
            }
            q[s * k + s] = diag;
        }
        q
    }
}

/// `debug-invariants` audit: `p` must be a probability simplex point —
/// every coordinate finite and in `[0, 1]`, coordinates summing to 1
/// within `tol`. Compiled out unless the feature is on.
#[allow(unused_variables)]
fn audit_simplex(p: &[f64], tol: f64, who: &str) {
    gmp_sync::audit!({
        for (i, &v) in p.iter().enumerate() {
            assert!(
                v.is_finite() && (0.0..=1.0).contains(&v),
                "{who}: p[{i}] = {v} is outside [0, 1]"
            );
        }
        let sum: f64 = p.iter().sum();
        assert!(
            (sum - 1.0).abs() <= tol,
            "{who}: probabilities sum to {sum}, not 1 (tol {tol})"
        );
    });
}

/// The ridge added to `Q`'s diagonal when plain elimination meets a
/// vanishing pivot.
const RIDGE: f64 = 1e-10;

/// Solve Problem (14) in closed form: `p = Q⁻¹e / (eᵀQ⁻¹e)` via Gaussian
/// elimination with partial pivoting (Equation 15). `Q` is singular
/// whenever the estimates are pairwise consistent — at `k = 2` always — so
/// a vanishing pivot retries once with a small ridge, as the paper
/// prescribes.
pub fn couple_gaussian(r: &PairwiseProbs) -> Vec<f64> {
    let k = r.k();
    let mut x = vec![1.0f64; k]; // e
    if !gaussian_solve(&mut r.build_q(), &mut x, k) {
        let mut q = r.build_q();
        for s in 0..k {
            q[s * k + s] += RIDGE;
        }
        x.fill(1.0);
        let solved = gaussian_solve(&mut q, &mut x, k);
        gmp_sync::audit!(assert!(solved, "couple_gaussian: ridged Q is singular"));
    }
    // Normalize twice: the second division keeps the bits of every
    // probability the goldens pin.
    let sum: f64 = x.iter().sum();
    let mut p: Vec<f64> = x.iter().map(|v| v / sum).collect();
    let s2: f64 = p.iter().sum();
    for v in p.iter_mut() {
        *v /= s2;
    }
    gmp_sync::audit!({
        let res = coupling_residual(r, &p);
        assert!(res <= 10.0 * RIDGE, "couple_gaussian: residual {res:e}");
    });
    audit_simplex(&p, 1e-9, "couple_gaussian");
    p
}

/// The optimality residual of Problem (14) at `p`: `max_s |(Qp)_s − pᵀQp|`,
/// zero at the exact optimum (the quantity LibSVM's iterative solver stops
/// on).
pub fn coupling_residual(r: &PairwiseProbs, p: &[f64]) -> f64 {
    let k = r.k();
    let q = r.build_q();
    let qp: Vec<f64> = (0..k)
        .map(|s| (0..k).map(|j| q[s * k + j] * p[j]).sum())
        .collect();
    let pqp: f64 = p.iter().zip(&qp).map(|(a, b)| a * b).sum();
    qp.iter().map(|v| (v - pqp).abs()).fold(0.0, f64::max)
}

/// In-place Gaussian elimination with partial pivoting solving `A x = b`.
/// Returns false if a pivot underflows.
fn gaussian_solve(a: &mut [f64], b: &mut [f64], k: usize) -> bool {
    for col in 0..k {
        // Pivot.
        let mut piv = col;
        for row in col + 1..k {
            if a[row * k + col].abs() > a[piv * k + col].abs() {
                piv = row;
            }
        }
        if a[piv * k + col].abs() < 1e-12 {
            return false;
        }
        if piv != col {
            for j in 0..k {
                a.swap(col * k + j, piv * k + j);
            }
            b.swap(col, piv);
        }
        let d = a[col * k + col];
        for row in 0..k {
            if row == col {
                continue;
            }
            let factor = a[row * k + col] / d;
            if factor == 0.0 {
                continue;
            }
            for j in col..k {
                a[row * k + j] -= factor * a[col * k + j];
            }
            b[row] -= factor * b[col];
        }
    }
    for col in 0..k {
        b[col] /= a[col * k + col];
    }
    true
}

/// LibSVM's fixed-point iteration for Problem (14) (`multiclass_probability`
/// in svm.cpp), used as an independent cross-check of [`couple_gaussian`].
pub fn couple_iterative(r: &PairwiseProbs) -> Vec<f64> {
    let k = r.k();
    let q = r.build_q();
    let mut p = vec![1.0 / k as f64; k];
    let mut qp = vec![0.0f64; k];
    let eps = 0.005 / k as f64;
    let max_iter = 100.max(k);

    for _ in 0..=max_iter {
        let mut pqp = 0.0;
        for t in 0..k {
            qp[t] = (0..k).map(|j| q[t * k + j] * p[j]).sum();
            pqp += p[t] * qp[t];
        }
        let max_err = (0..k).map(|t| (qp[t] - pqp).abs()).fold(0.0f64, f64::max);
        if max_err < eps {
            break;
        }
        for t in 0..k {
            let diff = (-qp[t] + pqp) / q[t * k + t];
            p[t] += diff;
            pqp =
                (pqp + diff * (diff * q[t * k + t] + 2.0 * qp[t])) / ((1.0 + diff) * (1.0 + diff));
            for j in 0..k {
                qp[j] = (qp[j] + diff * q[t * k + j]) / (1.0 + diff);
                p[j] /= 1.0 + diff;
            }
        }
    }
    // The update preserves normalization only up to floating-point error,
    // so the iterative path gets a looser simplex tolerance.
    audit_simplex(&p, 1e-6, "couple_iterative");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1() -> PairwiseProbs {
        // Example 1 of the paper: SVM₁₂ gives P(class1)=0.8, SVM₁₃ gives
        // P(class3)=0.4 (⇒ r₁₃ = 0.6), SVM₂₃ gives P(class2)=0.4.
        let mut r = PairwiseProbs::new(3);
        r.set(0, 1, 0.8);
        r.set(0, 2, 0.6);
        r.set(1, 2, 0.4);
        r
    }

    fn assert_distribution(p: &[f64]) {
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "sum {p:?}");
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)), "{p:?}");
    }

    #[test]
    fn pairwise_antisymmetry() {
        let r = example1();
        assert!((r.get(1, 0) - 0.2).abs() < 1e-12);
        assert!((r.get(2, 0) - 0.4).abs() < 1e-12);
        assert!((r.get(2, 1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn example1_ordering_matches_paper() {
        // The paper reports p ≈ (0.85, 0.05, 0.10); the exact optimum of
        // Problem (14) for these inputs preserves the ordering
        // p₁ > p₃ > p₂ (class 1 dominant, class 3 over class 2).
        let p = couple_gaussian(&example1());
        assert_distribution(&p);
        assert!(p[0] > p[2] && p[2] > p[1], "{p:?}");
        assert!(p[0] > 0.5, "class 1 must dominate: {p:?}");
    }

    #[test]
    fn gaussian_and_iterative_agree() {
        let p1 = couple_gaussian(&example1());
        let p2 = couple_iterative(&example1());
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 5e-3, "{p1:?} vs {p2:?}");
        }
    }

    #[test]
    fn solution_minimizes_objective() {
        // Check optimality of the closed form against perturbations.
        let r = example1();
        let obj = |p: &[f64]| -> f64 {
            let mut o = 0.0;
            for s in 0..3 {
                for t in 0..3 {
                    if s != t {
                        let d = r.get(t, s) * p[s] - r.get(s, t) * p[t];
                        o += d * d;
                    }
                }
            }
            o
        };
        let p = couple_gaussian(&r);
        let base = obj(&p);
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let mut q = p.clone();
                let eps = 1e-4;
                if q[j] < eps {
                    continue;
                }
                q[i] += eps;
                q[j] -= eps;
                assert!(
                    obj(&q) >= base - 1e-12,
                    "perturbation ({i},{j}) improves objective"
                );
            }
        }
    }

    #[test]
    fn uniform_inputs_give_uniform_output() {
        let mut r = PairwiseProbs::new(4);
        for s in 0..4 {
            for t in s + 1..4 {
                r.set(s, t, 0.5);
            }
        }
        let p = couple_gaussian(&r);
        assert_distribution(&p);
        for &v in &p {
            assert!((v - 0.25).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn dominant_class_wins() {
        let mut r = PairwiseProbs::new(3);
        r.set(0, 1, 0.99);
        r.set(0, 2, 0.99);
        r.set(1, 2, 0.5);
        let p = couple_gaussian(&r);
        assert_distribution(&p);
        assert!(p[0] > 0.9, "{p:?}");
        assert!((p[1] - p[2]).abs() < 1e-6);
    }

    #[test]
    fn relabeling_invariance() {
        // Swap classes 0 and 2: the output distribution must permute.
        let p = couple_gaussian(&example1());
        let mut r2 = PairwiseProbs::new(3);
        // original: r01=0.8, r02=0.6, r12=0.4 → after swap 0<->2:
        // r21'=0.8, r20'=0.6, r10'=0.4
        r2.set(2, 1, 0.8);
        r2.set(2, 0, 0.6);
        r2.set(1, 0, 0.4);
        let q = couple_gaussian(&r2);
        assert!((p[0] - q[2]).abs() < 1e-9);
        assert!((p[1] - q[1]).abs() < 1e-9);
        assert!((p[2] - q[0]).abs() < 1e-9);
    }

    #[test]
    fn two_class_coupling_reduces_to_binary() {
        let mut r = PairwiseProbs::new(2);
        r.set(0, 1, 0.7);
        let p = couple_gaussian(&r);
        assert_distribution(&p);
        assert!((p[0] - 0.7).abs() < 1e-6, "{p:?}");
    }

    #[test]
    fn extreme_probabilities_clamped() {
        let mut r = PairwiseProbs::new(2);
        r.set(0, 1, 1.0); // clamped internally to 1-1e-7
        let p = couple_gaussian(&r);
        assert_distribution(&p);
        assert!(p[0] > 0.999);
    }

    #[test]
    fn iterative_handles_larger_k() {
        let k = 8;
        let mut r = PairwiseProbs::new(k);
        let mut seed = 7u64;
        for s in 0..k {
            for t in s + 1..k {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = 0.1 + 0.8 * (((seed >> 11) as f64) / ((1u64 << 53) as f64));
                r.set(s, t, v);
            }
        }
        let p1 = couple_gaussian(&r);
        let p2 = couple_iterative(&r);
        assert_distribution(&p1);
        assert_distribution(&p2);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 0.02, "{p1:?} vs {p2:?}");
        }
    }
}
