//! Integration tests for the beyond-the-paper features kept alongside the
//! paper's pipeline: probability metrics, class weights, and CV-calibrated
//! sigmoids, composed end-to-end.

use gmp_datasets::{BlobSpec, PaperDataset};
use gmp_prob::{brier_score, calibration, log_loss};
use gmp_svm::predict::error_rate;
use gmp_svm::{Backend, MpSvmTrainer, SvmParams};

#[test]
fn probability_metrics_on_real_pipeline() {
    let split = PaperDataset::Connect4.generate_split(0.003);
    let spec = PaperDataset::Connect4.spec();
    let params = SvmParams::default()
        .with_c(spec.c)
        .with_rbf(spec.gamma)
        .with_working_set(32, 16);
    let out = MpSvmTrainer::new(params, Backend::gmp_default())
        .train(&split.train)
        .expect("train");
    let pred = out
        .model
        .predict(&split.test.x, &Backend::gmp_default())
        .expect("predict");
    let ll = log_loss(&pred.probabilities, &split.test.y);
    let bs = brier_score(&pred.probabilities, &split.test.y);
    let cal = calibration(&pred.probabilities, &split.test.y, 10);
    // Better than the uniform baseline on both proper scoring rules.
    assert!(ll < 3.0f64.ln(), "log loss {ll}");
    assert!(bs < 2.0 / 3.0, "brier {bs}");
    assert!(cal.ece <= 1.0 && cal.ece >= 0.0);
}

#[test]
fn weighted_training_through_gmp_backend() {
    // Class weights must flow through the GPU path identically to the CPU
    // path (same classifier).
    let data = BlobSpec {
        n: 120,
        dim: 2,
        classes: 2,
        spread: 0.35,
        seed: 103,
    }
    .generate();
    let params = SvmParams::default()
        .with_c(1.0)
        .with_rbf(1.0)
        .with_working_set(16, 8);
    let cpu = MpSvmTrainer::new(params, Backend::libsvm())
        .with_class_weights(vec![1.0, 3.0])
        .train(&data)
        .expect("cpu");
    let gpu = MpSvmTrainer::new(params, Backend::gmp_default())
        .with_class_weights(vec![1.0, 3.0])
        .train(&data)
        .expect("gpu");
    for (a, b) in cpu.model.binaries.iter().zip(&gpu.model.binaries) {
        assert!((a.rho - b.rho).abs() < 2e-2, "rho {} vs {}", a.rho, b.rho);
    }
}

#[test]
fn cv_sigmoid_end_to_end_probabilities() {
    let split = PaperDataset::Connect4.generate_split(0.002);
    let spec = PaperDataset::Connect4.spec();
    let params = SvmParams::default()
        .with_c(spec.c)
        .with_rbf(spec.gamma)
        .with_working_set(16, 8)
        .with_cv_sigmoid(3);
    let out = MpSvmTrainer::new(params, Backend::cmp_svm())
        .train(&split.train)
        .expect("train");
    let pred = out
        .model
        .predict(&split.test.x, &Backend::cmp_svm())
        .expect("predict");
    for p in &pred.probabilities {
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
    assert!(error_rate(&pred.labels, &split.test.y) < 0.3);
}
