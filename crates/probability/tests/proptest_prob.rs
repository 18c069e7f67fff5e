//! Property-based tests for the probability machinery.

use gmp_prob::{
    couple_gaussian, couple_iterative, coupling_residual, sigmoid_predict, sigmoid_train,
    PairwiseProbs,
};
use proptest::prelude::*;

/// Random pairwise probability matrix for k classes.
fn pairwise(k: usize) -> impl Strategy<Value = PairwiseProbs> {
    proptest::collection::vec(0.02..0.98f64, k * (k - 1) / 2).prop_map(move |vals| {
        let mut r = PairwiseProbs::new(k);
        let mut it = vals.into_iter();
        for s in 0..k {
            for t in s + 1..k {
                r.set(s, t, it.next().expect("enough values"));
            }
        }
        r
    })
}

/// Pairwise estimates for 2 to 20 classes that reach the `1e-7` clamps:
/// free values in `[0, 1]` with exact 0s and 1s mixed in, or values
/// consistent with a score vector (`Q` singular up to rounding).
fn pairwise_with_clamps() -> impl Strategy<Value = PairwiseProbs> {
    (2usize..=20, proptest::bool::ANY).prop_flat_map(|(k, consistent)| {
        let value = prop_oneof![Just(0.0), Just(1.0), 0.0..=1.0f64];
        (
            proptest::collection::vec(value, k * (k - 1) / 2),
            proptest::collection::vec(1e-9..1.0f64, k),
        )
            .prop_map(move |(vals, w)| {
                let mut r = PairwiseProbs::new(k);
                let mut it = vals.into_iter();
                for s in 0..k {
                    for t in s + 1..k {
                        let free = it.next().expect("enough values");
                        r.set(
                            s,
                            t,
                            if consistent {
                                w[s] / (w[s] + w[t])
                            } else {
                                free
                            },
                        );
                    }
                }
                r
            })
    })
}

/// `couple_gaussian` as it was before its unreachable fallbacks were
/// removed: ridges 0, 1e-10, 1e-8 and 1e-6, a fresh `Q` copy per attempt,
/// a negative clamp, and a uniform last resort.
fn couple_gaussian_reference(r: &PairwiseProbs) -> Vec<f64> {
    let k = r.k();
    let mut q = vec![0.0; k * k];
    for s in 0..k {
        let mut diag = 0.0;
        for u in 0..k {
            if u != s {
                diag += r.get(u, s) * r.get(u, s);
                q[s * k + u] = -r.get(s, u) * r.get(u, s);
            }
        }
        q[s * k + s] = diag;
    }
    for ridge in [0.0, 1e-10, 1e-8, 1e-6] {
        let mut a = q.clone();
        if ridge > 0.0 {
            for s in 0..k {
                a[s * k + s] += ridge;
            }
        }
        let mut b = vec![1.0f64; k];
        if reference_solve(&mut a, &mut b, k) {
            let sum: f64 = b.iter().sum();
            if sum.abs() > 1e-300 {
                let mut p: Vec<f64> = b.iter().map(|v| v / sum).collect();
                for v in p.iter_mut() {
                    *v = v.max(0.0);
                }
                let s2: f64 = p.iter().sum();
                if s2 > 0.0 {
                    for v in p.iter_mut() {
                        *v /= s2;
                    }
                    return p;
                }
            }
        }
    }
    vec![1.0 / k as f64; k]
}

/// The library's Gauss–Jordan elimination with partial pivoting.
fn reference_solve(a: &mut [f64], b: &mut [f64], k: usize) -> bool {
    for col in 0..k {
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

fn coupling_objective(r: &PairwiseProbs, p: &[f64]) -> f64 {
    let k = r.k();
    let mut o = 0.0;
    for s in 0..k {
        for t in 0..k {
            if s != t {
                let d = r.get(t, s) * p[s] - r.get(s, t) * p[t];
                o += d * d;
            }
        }
    }
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coupling_returns_distribution(r in pairwise(4)) {
        let p = couple_gaussian(&r);
        prop_assert_eq!(p.len(), 4);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)), "{:?}", p);
    }

    #[test]
    fn gaussian_agrees_with_iterative(r in pairwise(3)) {
        let a = couple_gaussian(&r);
        let b = couple_iterative(&r);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 0.02, "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn coupling_is_constrained_optimum(r in pairwise(3)) {
        // No feasible perturbation improves the objective.
        let p = couple_gaussian(&r);
        let base = coupling_objective(&r, &p);
        let eps = 1e-5;
        for i in 0..3 {
            for j in 0..3 {
                if i == j || p[j] < eps {
                    continue;
                }
                let mut q = p.clone();
                q[i] += eps;
                q[j] -= eps;
                prop_assert!(
                    coupling_objective(&r, &q) >= base - 1e-10,
                    "perturbation improved objective"
                );
            }
        }
    }

    #[test]
    fn coupling_permutation_equivariant(r in pairwise(3)) {
        // Swapping classes 0 and 1 permutes the output.
        let p = couple_gaussian(&r);
        let mut swapped = PairwiseProbs::new(3);
        // Mapping sigma: 0->1, 1->0, 2->2. r'(sigma(s), sigma(t)) = r(s, t).
        swapped.set(1, 0, r.get(0, 1));
        swapped.set(1, 2, r.get(0, 2));
        swapped.set(0, 2, r.get(1, 2));
        let q = couple_gaussian(&swapped);
        prop_assert!((p[0] - q[1]).abs() < 1e-9);
        prop_assert!((p[1] - q[0]).abs() < 1e-9);
        prop_assert!((p[2] - q[2]).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_outputs_probabilities(
        dec in proptest::collection::vec(-4.0..4.0f64, 10..60),
        labels in proptest::collection::vec(proptest::bool::ANY, 60),
    ) {
        let n = dec.len();
        let mut y: Vec<f64> = labels[..n].iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        y[0] = 1.0;
        y[n - 1] = -1.0;
        let params = sigmoid_train(&dec, &y);
        prop_assert!(params.a.is_finite() && params.b.is_finite());
        for &v in &dec {
            let p = sigmoid_predict(v, &params);
            prop_assert!((0.0..=1.0).contains(&p), "p({}) = {}", v, p);
        }
    }

    #[test]
    fn sigmoid_fit_is_deterministic(
        dec in proptest::collection::vec(-3.0..3.0f64, 12..30),
    ) {
        let y: Vec<f64> = dec.iter().enumerate()
            .map(|(i, _)| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let a = sigmoid_train(&dec, &y);
        let b = sigmoid_train(&dec, &y);
        prop_assert_eq!(a.a.to_bits(), b.a.to_bits());
        prop_assert_eq!(a.b.to_bits(), b.b.to_bits());
    }

    #[test]
    fn sigmoid_monotone_when_classes_ordered(shift in 0.5..3.0f64) {
        // Positives strictly above negatives: fitted A < 0 and predictions
        // monotone increasing in the decision value.
        let mut dec = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            dec.push(shift + i as f64 * 0.05);
            y.push(1.0);
            dec.push(-shift - i as f64 * 0.05);
            y.push(-1.0);
        }
        let p = sigmoid_train(&dec, &y);
        prop_assert!(p.a < 0.0, "A = {}", p.a);
        let lo = sigmoid_predict(-1.0, &p);
        let hi = sigmoid_predict(1.0, &p);
        prop_assert!(hi > lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn coupling_certificate_holds_at_the_clamps(r in pairwise_with_clamps()) {
        // The optimality residual of Problem (14) vanishes up to the ridge,
        // and the answer keeps the bits of the version with every fallback.
        let p = couple_gaussian(&r);
        let res = coupling_residual(&r, &p);
        prop_assert!(res <= 1e-9, "k = {}: residual {:e}", r.k(), res);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)), "{:?}", p);
        let reference = couple_gaussian_reference(&r);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&p), bits(&reference));
    }
}
