//! Platt scaling: fit a sigmoid to SVM decision values (Problem 13).
//!
//! Newton's method with backtracking line search, numerically-stable
//! formulation per Lin, Lin & Weng, "A note on Platt's probabilistic
//! outputs for support vector machines" (2007) — the algorithm LibSVM
//! implements and the paper's Phase (ii) parallelizes.

/// Fitted sigmoid parameters: `P(y=1|v) = 1/(1+exp(A·v+B))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmoidParams {
    /// Slope `A` (negative for a well-oriented classifier).
    pub a: f64,
    /// Offset `B`.
    pub b: f64,
    /// Newton iterations used by the fit.
    pub iterations: u32,
}

/// `P(y=1|v)` for a fitted sigmoid, computed in the overflow-safe form.
#[inline]
pub fn sigmoid_predict(decision_value: f64, params: &SigmoidParams) -> f64 {
    let f_apb = decision_value * params.a + params.b;
    // 1/(1+exp(f)) computed without overflow for either sign of f.
    let p = if f_apb >= 0.0 {
        (-f_apb).exp() / (1.0 + (-f_apb).exp())
    } else {
        1.0 / (1.0 + f_apb.exp())
    };
    gmp_sync::audit!({
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "sigmoid_predict left [0, 1]: p = {p} for v = {decision_value}, A = {}, B = {}",
            params.a,
            params.b
        );
    });
    p
}

/// Fit `(A, B)` on decision values and ±1 labels.
///
/// Uses the smoothed targets of Problem (13):
/// `t = (N₊+1)/(N₊+2)` for positives, `1/(N₋+2)` for negatives.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or labels are not ±1.
pub fn sigmoid_train(decision_values: &[f64], labels: &[f64]) -> SigmoidParams {
    assert_eq!(decision_values.len(), labels.len(), "length mismatch");
    assert!(
        !decision_values.is_empty(),
        "cannot fit a sigmoid to nothing"
    );
    assert!(
        labels.iter().all(|&y| y == 1.0 || y == -1.0),
        "labels must be ±1"
    );

    let n = decision_values.len();
    let prior1 = labels.iter().filter(|&&y| y > 0.0).count() as f64;
    let prior0 = n as f64 - prior1;

    const MAX_ITER: u32 = 100;
    const MIN_STEP: f64 = 1e-10;
    const SIGMA: f64 = 1e-12; // Hessian ridge
    const EPS: f64 = 1e-5;

    let hi_target = (prior1 + 1.0) / (prior1 + 2.0);
    let lo_target = 1.0 / (prior0 + 2.0);
    let t: Vec<f64> = labels
        .iter()
        .map(|&y| if y > 0.0 { hi_target } else { lo_target })
        .collect();

    let mut a = 0.0f64;
    let mut b = ((prior0 + 1.0) / (prior1 + 1.0)).ln();
    let fun = |a: f64, b: f64| -> f64 {
        let mut fval = 0.0;
        for i in 0..n {
            let f_apb = decision_values[i] * a + b;
            // -log-likelihood, stable in both branches.
            if f_apb >= 0.0 {
                fval += t[i] * f_apb + (1.0 + (-f_apb).exp()).ln();
            } else {
                fval += (t[i] - 1.0) * f_apb + (1.0 + f_apb.exp()).ln();
            }
        }
        fval
    };
    let mut fval = fun(a, b);
    let mut iterations = 0;

    for it in 0..MAX_ITER {
        iterations = it;
        // Gradient and Hessian of the negative log-likelihood.
        let (mut h11, mut h22) = (SIGMA, SIGMA);
        let mut h21 = 0.0;
        let (mut g1, mut g2) = (0.0, 0.0);
        for i in 0..n {
            let f_apb = decision_values[i] * a + b;
            let (p, q) = if f_apb >= 0.0 {
                let e = (-f_apb).exp();
                (e / (1.0 + e), 1.0 / (1.0 + e))
            } else {
                let e = f_apb.exp();
                (1.0 / (1.0 + e), e / (1.0 + e))
            };
            let d2 = p * q;
            h11 += decision_values[i] * decision_values[i] * d2;
            h22 += d2;
            h21 += decision_values[i] * d2;
            let d1 = t[i] - p;
            g1 += decision_values[i] * d1;
            g2 += d1;
        }
        if g1.abs() < EPS && g2.abs() < EPS {
            break;
        }
        // Newton direction.
        let det = h11 * h22 - h21 * h21;
        let d_a = -(h22 * g1 - h21 * g2) / det;
        let d_b = -(-h21 * g1 + h11 * g2) / det;
        let gd = g1 * d_a + g2 * d_b;

        // Backtracking line search (Armijo).
        let mut stepsize = 1.0;
        let mut accepted = false;
        while stepsize >= MIN_STEP {
            let new_a = a + stepsize * d_a;
            let new_b = b + stepsize * d_b;
            let new_f = fun(new_a, new_b);
            if new_f < fval + 1e-4 * stepsize * gd {
                a = new_a;
                b = new_b;
                fval = new_f;
                accepted = true;
                break;
            }
            stepsize /= 2.0;
        }
        if !accepted {
            // Line search failed: return the best point found.
            break;
        }
    }

    gmp_sync::audit!({
        assert!(
            a.is_finite() && b.is_finite(),
            "sigmoid_train produced non-finite parameters A = {a}, B = {b}"
        );
    });
    SigmoidParams {
        a,
        b,
        iterations: iterations + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0,1).
    fn rng01(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn synthetic(n: usize, a_true: f64, b_true: f64) -> (Vec<f64>, Vec<f64>) {
        let mut seed = 42u64;
        let mut dec = Vec::with_capacity(n);
        let mut lab = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng01(&mut seed) * 8.0 - 4.0;
            let p = 1.0 / (1.0 + (a_true * v + b_true).exp());
            dec.push(v);
            lab.push(if rng01(&mut seed) < p { 1.0 } else { -1.0 });
        }
        (dec, lab)
    }

    #[test]
    fn recovers_true_sigmoid() {
        let (dec, lab) = synthetic(4000, -2.0, 0.3);
        let p = sigmoid_train(&dec, &lab);
        assert!((p.a - (-2.0)).abs() < 0.3, "A = {}", p.a);
        assert!((p.b - 0.3).abs() < 0.3, "B = {}", p.b);
    }

    #[test]
    fn predicted_probabilities_monotone_in_decision_value() {
        let (dec, lab) = synthetic(1000, -1.5, 0.0);
        let p = sigmoid_train(&dec, &lab);
        // A < 0 ⇒ increasing v ⇒ increasing P(y=1).
        let lo = sigmoid_predict(-2.0, &p);
        let mid = sigmoid_predict(0.0, &p);
        let hi = sigmoid_predict(2.0, &p);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn probabilities_bounded() {
        let (dec, lab) = synthetic(500, -1.0, 0.5);
        let p = sigmoid_train(&dec, &lab);
        for v in [-1e6, -5.0, 0.0, 5.0, 1e6] {
            let prob = sigmoid_predict(v, &p);
            assert!((0.0..=1.0).contains(&prob), "v={v} p={prob}");
        }
    }

    #[test]
    fn perfectly_separated_data() {
        // All positives at v>0, negatives at v<0: optimizer must not blow up
        // (targets are smoothed, so the likelihood has a finite optimum).
        let dec: Vec<f64> = (0..100)
            .map(|i| {
                if i < 50 {
                    -1.0 - (i as f64) * 0.01
                } else {
                    1.0 + (i as f64) * 0.01
                }
            })
            .collect();
        let lab: Vec<f64> = (0..100).map(|i| if i < 50 { -1.0 } else { 1.0 }).collect();
        let p = sigmoid_train(&dec, &lab);
        assert!(p.a < 0.0);
        assert!(sigmoid_predict(2.0, &p) > 0.9);
        assert!(sigmoid_predict(-2.0, &p) < 0.1);
    }

    #[test]
    fn heavily_imbalanced_classes() {
        let mut dec = vec![1.0; 95];
        dec.extend(vec![-1.0; 5]);
        let mut lab = vec![1.0; 95];
        lab.extend(vec![-1.0; 5]);
        let p = sigmoid_train(&dec, &lab);
        // Targets keep probabilities off 0/1.
        let prob_pos = sigmoid_predict(1.0, &p);
        assert!(prob_pos > 0.5 && prob_pos < 1.0);
    }

    #[test]
    fn constant_decision_values_fit_prior() {
        let dec = vec![0.0; 40];
        let mut lab = vec![1.0; 30];
        lab.extend(vec![-1.0; 10]);
        let p = sigmoid_train(&dec, &lab);
        let prob = sigmoid_predict(0.0, &p);
        // ~ fraction of positives, smoothed.
        assert!((prob - 0.75).abs() < 0.05, "prob {prob}");
    }

    #[test]
    fn predict_extreme_values_no_nan() {
        let p = SigmoidParams {
            a: -3.0,
            b: 1.0,
            iterations: 1,
        };
        assert_eq!(sigmoid_predict(1e308, &p), 1.0);
        assert_eq!(sigmoid_predict(-1e308, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_inputs() {
        sigmoid_train(&[1.0], &[1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "labels must be ±1")]
    fn rejects_bad_labels() {
        sigmoid_train(&[1.0, 2.0], &[1.0, 3.0]);
    }
}
