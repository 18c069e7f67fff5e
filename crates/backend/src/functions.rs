//! The four kernel functions of §2.1 of the paper.

/// A kernel function `K(x_i, x_j)` evaluated from the dot product
/// `x_i · x_j` and (for RBF) the squared norms of both operands.
///
/// Evaluating from precomputed dot products is what makes batched kernel
/// rows a matrix product (§3.3.1): the expensive part is the sparse dot,
/// the kernel itself is a cheap scalar map applied afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// Gaussian `exp(-γ ||x_i - x_j||²)` — the kernel used throughout the
    /// paper's evaluation.
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// Linear `x_i · x_j`.
    Linear,
    /// Polynomial `(γ x_i · x_j + r)^d`.
    Poly {
        /// Scale γ (the paper's `a`).
        gamma: f64,
        /// Offset `r`.
        coef0: f64,
        /// Degree `d`.
        degree: u32,
    },
    /// Sigmoid `tanh(γ x_i · x_j + r)`.
    Sigmoid {
        /// Scale γ (the paper's `a`).
        gamma: f64,
        /// Offset `r`.
        coef0: f64,
    },
}

impl KernelKind {
    /// Evaluate `K(x_i, x_j)` given `dot = x_i·x_j`, `norm_i = ||x_i||²`,
    /// `norm_j = ||x_j||²`.
    #[inline]
    pub fn eval(&self, dot: f64, norm_i: f64, norm_j: f64) -> f64 {
        match *self {
            KernelKind::Rbf { gamma } => {
                // ||a-b||² = ||a||² + ||b||² - 2 a·b; clamp the tiny negative
                // values floating-point cancellation can produce. Only
                // negatives: `max(0.0)` would also turn a NaN into 0 and so a
                // NaN input into a plausible kernel value of 1.
                let d2 = norm_i + norm_j - 2.0 * dot;
                let d2 = if d2 < 0.0 { 0.0 } else { d2 };
                (-gamma * d2).exp()
            }
            KernelKind::Linear => dot,
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot + coef0).powi(degree as i32),
            KernelKind::Sigmoid { gamma, coef0 } => (gamma * dot + coef0).tanh(),
        }
    }

    /// `K(x, x)` from the squared norm alone.
    #[inline]
    pub fn self_eval(&self, norm: f64) -> f64 {
        self.eval(norm, norm, norm)
    }

    /// FLOPs of the scalar map per kernel value (beyond the dot product),
    /// for the cost model. `exp`/`tanh`/`pow` are charged as multi-FLOP ops.
    pub fn map_flops(&self) -> u64 {
        match self {
            KernelKind::Rbf { .. } => 8, // 3 adds/muls + exp(~5)
            KernelKind::Linear => 0,
            KernelKind::Poly { .. } => 7,    // fma + pow(~5)
            KernelKind::Sigmoid { .. } => 7, // fma + tanh(~5)
        }
    }

    /// Whether squared row norms are required (only RBF needs them).
    pub fn needs_norms(&self) -> bool {
        matches!(self, KernelKind::Rbf { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbf_self_is_one() {
        let k = KernelKind::Rbf { gamma: 0.5 };
        assert_eq!(k.self_eval(123.4), 1.0);
    }

    #[test]
    fn rbf_matches_definition() {
        let k = KernelKind::Rbf { gamma: 0.5 };
        // x = (1,0), y = (0,1): ||x-y||² = 2
        let v = k.eval(0.0, 1.0, 1.0);
        assert!((v - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn rbf_clamps_negative_distance() {
        let k = KernelKind::Rbf { gamma: 1.0 };
        // Slightly inconsistent inputs due to rounding: distance would be -1e-17.
        let v = k.eval(1.0 + 5e-18, 1.0, 1.0);
        assert!(v <= 1.0 && v > 0.999999);
    }

    #[test]
    fn rbf_negative_distance_gives_exactly_one() {
        let k = KernelKind::Rbf { gamma: 1.0 };
        // dot = 1 + 2⁻⁵², so ||a||² + ||b||² − 2 a·b = −2⁻⁵¹.
        let dot = 1.0 + f64::EPSILON;
        assert!(1.0 + 1.0 - 2.0 * dot < 0.0);
        assert_eq!(k.eval(dot, 1.0, 1.0).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn rbf_propagates_nan() {
        let k = KernelKind::Rbf { gamma: 0.5 };
        assert!(k.eval(f64::NAN, 1.0, 1.0).is_nan());
        assert!(k.eval(0.5, f64::NAN, 1.0).is_nan());
        assert!(k.eval(0.5, 1.0, f64::NAN).is_nan());
    }

    #[test]
    fn linear_is_dot() {
        assert_eq!(KernelKind::Linear.eval(3.5, 9.9, 1.1), 3.5);
        assert_eq!(KernelKind::Linear.self_eval(4.0), 4.0);
    }

    #[test]
    fn poly_matches_definition() {
        let k = KernelKind::Poly {
            gamma: 2.0,
            coef0: 1.0,
            degree: 3,
        };
        assert_eq!(k.eval(1.0, 0.0, 0.0), 27.0);
    }

    #[test]
    fn sigmoid_matches_definition() {
        let k = KernelKind::Sigmoid {
            gamma: 1.0,
            coef0: 0.0,
        };
        assert!((k.eval(0.5, 0.0, 0.0) - 0.5f64.tanh()).abs() < 1e-15);
    }

    #[test]
    fn rbf_symmetric_and_bounded() {
        let k = KernelKind::Rbf { gamma: 0.1 };
        let v1 = k.eval(2.0, 5.0, 3.0);
        let v2 = k.eval(2.0, 3.0, 5.0);
        assert_eq!(v1, v2);
        assert!(v1 > 0.0 && v1 <= 1.0);
    }

    #[test]
    fn only_rbf_needs_norms() {
        assert!(KernelKind::Rbf { gamma: 1.0 }.needs_norms());
        assert!(!KernelKind::Linear.needs_norms());
        assert!(!KernelKind::Poly {
            gamma: 1.0,
            coef0: 0.0,
            degree: 2
        }
        .needs_norms());
        assert!(!KernelKind::Sigmoid {
            gamma: 1.0,
            coef0: 0.0
        }
        .needs_norms());
    }
}
