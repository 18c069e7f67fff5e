//! Probability-quality metrics: how good are the calibrated outputs?
//!
//! The paper argues MP-SVMs matter because downstream applications consume
//! the *probabilities* (medical retrieval, open-set recognition). These
//! metrics quantify that: negative log-likelihood, Brier score, and
//! expected calibration error over confidence bins.

/// Floor applied inside logs to keep the loss finite.
const P_FLOOR: f64 = 1e-15;

/// Mean negative log-likelihood of the true class:
/// `-(1/n) Σ log p_i[y_i]`. Lower is better; `ln(k)` is the uniform
/// baseline.
pub fn log_loss(probabilities: &[Vec<f64>], labels: &[u32]) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    if probabilities.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (p, &y) in probabilities.iter().zip(labels) {
        let py = p
            .get(y as usize)
            .copied()
            // gmp:allow-panic — documented precondition: labels index into the probability vectors
            .expect("label out of range for probability vector");
        acc -= py.max(P_FLOOR).ln();
    }
    acc / probabilities.len() as f64
}

/// Multi-class Brier score: `(1/n) Σ_i Σ_c (p_i[c] - 1{y_i = c})²`.
/// Lower is better; `(k-1)/k · 2/k`-ish for uniform predictions.
pub fn brier_score(probabilities: &[Vec<f64>], labels: &[u32]) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    if probabilities.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (p, &y) in probabilities.iter().zip(labels) {
        for (c, &pc) in p.iter().enumerate() {
            let target = if c == y as usize { 1.0 } else { 0.0 };
            acc += (pc - target) * (pc - target);
        }
    }
    acc / probabilities.len() as f64
}

/// One bin of a reliability diagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBin {
    /// Bin lower edge (confidence).
    pub lo: f64,
    /// Bin upper edge.
    pub hi: f64,
    /// Instances whose top-class confidence fell in the bin.
    pub count: usize,
    /// Mean confidence in the bin.
    pub mean_confidence: f64,
    /// Fraction of those instances whose top class was correct.
    pub accuracy: f64,
}

/// Reliability diagram plus expected calibration error (ECE) over equal
/// width confidence bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The bins in ascending confidence order.
    pub bins: Vec<CalibrationBin>,
    /// `Σ (count/n) · |accuracy - mean_confidence|`.
    pub ece: f64,
}

/// Compute the reliability diagram of top-class confidence vs accuracy.
pub fn calibration(probabilities: &[Vec<f64>], labels: &[u32], n_bins: usize) -> Calibration {
    assert!(n_bins >= 1, "need at least one bin");
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    let mut counts = vec![0usize; n_bins];
    let mut conf_sums = vec![0.0f64; n_bins];
    let mut correct = vec![0usize; n_bins];
    for (p, &y) in probabilities.iter().zip(labels) {
        let (top, conf) =
            p.iter().enumerate().fold(
                (0usize, 0.0f64),
                |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                },
            );
        let bin = ((conf * n_bins as f64) as usize).min(n_bins - 1);
        counts[bin] += 1;
        conf_sums[bin] += conf;
        if top == y as usize {
            correct[bin] += 1;
        }
    }
    let n = probabilities.len().max(1) as f64;
    let mut bins = Vec::with_capacity(n_bins);
    let mut ece = 0.0;
    for b in 0..n_bins {
        let count = counts[b];
        let mean_confidence = if count > 0 {
            conf_sums[b] / count as f64
        } else {
            0.0
        };
        let accuracy = if count > 0 {
            correct[b] as f64 / count as f64
        } else {
            0.0
        };
        if count > 0 {
            ece += (count as f64 / n) * (accuracy - mean_confidence).abs();
        }
        bins.push(CalibrationBin {
            lo: b as f64 / n_bins as f64,
            hi: (b + 1) as f64 / n_bins as f64,
            count,
            mean_confidence,
            accuracy,
        });
    }
    Calibration { bins, ece }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perfect() -> (Vec<Vec<f64>>, Vec<u32>) {
        (
            vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0],
            ],
            vec![0, 1, 2],
        )
    }

    #[test]
    fn perfect_predictions_score_zero() {
        let (p, y) = perfect();
        assert!(log_loss(&p, &y) < 1e-10);
        assert!(brier_score(&p, &y) < 1e-12);
        let cal = calibration(&p, &y, 10);
        assert!(cal.ece < 1e-12);
    }

    #[test]
    fn uniform_predictions_baseline() {
        let p = vec![vec![1.0 / 3.0; 3]; 9];
        let y = vec![0, 1, 2, 0, 1, 2, 0, 1, 2];
        let ll = log_loss(&p, &y);
        assert!((ll - 3.0f64.ln()).abs() < 1e-12);
        let bs = brier_score(&p, &y);
        // Σ_c (1/3 - 1{c=y})² = (2/3)² + 2·(1/3)² = 6/9 = 2/3.
        assert!((bs - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confident_wrong_is_punished() {
        let right = vec![vec![0.9, 0.1]];
        let wrong = vec![vec![0.1, 0.9]];
        let y = vec![0u32];
        assert!(log_loss(&wrong, &y) > log_loss(&right, &y));
        assert!(brier_score(&wrong, &y) > brier_score(&right, &y));
    }

    #[test]
    fn zero_probability_is_finite() {
        let p = vec![vec![0.0, 1.0]];
        let y = vec![0u32];
        assert!(log_loss(&p, &y).is_finite());
    }

    #[test]
    fn calibration_detects_overconfidence() {
        // Always 90% confident but only 50% correct.
        let mut p = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            p.push(vec![0.9, 0.1]);
            y.push(if i % 2 == 0 { 0u32 } else { 1u32 });
        }
        let cal = calibration(&p, &y, 10);
        assert!((cal.ece - 0.4).abs() < 1e-9, "ece {}", cal.ece);
        let hot = cal.bins.iter().find(|b| b.count > 0).expect("one bin used");
        assert_eq!(hot.count, 100);
        assert!((hot.mean_confidence - 0.9).abs() < 1e-12);
        assert!((hot.accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bins_partition_unit_interval() {
        let cal = calibration(&[], &[], 5);
        assert_eq!(cal.bins.len(), 5);
        assert_eq!(cal.bins[0].lo, 0.0);
        assert_eq!(cal.bins[4].hi, 1.0);
        for w in cal.bins.windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(log_loss(&[], &[]), 0.0);
        assert_eq!(brier_score(&[], &[]), 0.0);
        assert_eq!(calibration(&[], &[], 3).ece, 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        log_loss(&[vec![1.0]], &[0, 1]);
    }
}
