//! Host-parallelism guarantees: running the GMP backend's waves on real
//! threads must change wall-clock behaviour only — every reported number
//! that defines the experiment (classifier, kernel-eval counts, device
//! budget) must be identical to the sequential run.

use gmp_datasets::BlobSpec;
use gmp_svm::{Backend, MpSvmTrainer, PreparedPredictor, SvmParams, TrainOutcome};
use std::sync::Arc;

/// Four classes -> six binary problems, so a wave genuinely holds several
/// concurrent problems and every (row, class) segment is reused by k-1 = 3
/// of them.
fn data() -> gmp_datasets::Dataset {
    BlobSpec {
        n: 240,
        dim: 3,
        classes: 4,
        spread: 0.3,
        seed: 11,
    }
    .generate()
}

fn params() -> SvmParams {
    SvmParams::default()
        .with_c(2.0)
        .with_rbf(1.0)
        .with_working_set(32, 16)
}

fn train(threads: usize) -> TrainOutcome {
    MpSvmTrainer::new(params(), Backend::gmp_default())
        .with_host_threads(Some(threads))
        .train(&data())
        .unwrap()
}

#[test]
fn four_threads_reproduce_sequential_classifier_bit_for_bit() {
    let seq = train(1);
    let par = train(4);
    assert_eq!(par.report.host_threads, 4);
    assert_eq!(seq.report.host_threads, 1);
    assert_eq!(seq.model.binaries.len(), par.model.binaries.len());
    for (a, b) in seq.model.binaries.iter().zip(&par.model.binaries) {
        assert_eq!(
            a.rho.to_bits(),
            b.rho.to_bits(),
            "rho differs for pair {:?}",
            (a.s, a.t)
        );
        assert_eq!(
            a.sv_idx,
            b.sv_idx,
            "SV set differs for pair {:?}",
            (a.s, a.t)
        );
        assert_eq!(a.coef.len(), b.coef.len());
        for (ca, cb) in a.coef.iter().zip(&b.coef) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "coef differs for {:?}",
                (a.s, a.t)
            );
        }
        match (a.sigmoid, b.sigmoid) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.a.to_bits(), sb.a.to_bits());
                assert_eq!(sa.b.to_bits(), sb.b.to_bits());
            }
            (None, None) => {}
            _ => panic!("sigmoid presence differs"),
        }
    }
}

#[test]
fn four_threads_compute_the_same_kernel_work() {
    // Single-flight in the shared store: with the store budget comfortably
    // above the working set, each (row, class) segment is computed exactly
    // once no matter how many threads race for it — so total kernel evals
    // and rows computed must match the sequential run exactly.
    let seq = train(1);
    let par = train(4);
    assert_eq!(
        seq.report.kernel_evals, par.report.kernel_evals,
        "threading changed total kernel evals"
    );
    assert_eq!(
        seq.report.rows_computed, par.report.rows_computed,
        "threading changed rows computed"
    );
    assert!(seq.report.kernel_evals > 0);
}

#[test]
fn concurrent_training_respects_device_budget() {
    let par = train(4);
    let device = par.report.device.as_ref().expect("gmp runs on a device");
    assert!(par.report.peak_device_mem > 0);
    // gmp_default models a Tesla P100: 12 GiB of global memory.
    assert!(
        par.report.peak_device_mem <= 12 * (1u64 << 30),
        "peak {} exceeds device capacity",
        par.report.peak_device_mem
    );
    assert!(device.launches > 0);
    assert!(par.report.concurrency > 1, "waves were not concurrent");
}

#[test]
fn threaded_prediction_matches_sequential() {
    let out = train(1);
    let d = data();
    let model = Arc::new(out.model);
    let predict = |threads| {
        PreparedPredictor::new(model.clone(), Backend::gmp_default())
            .host_threads(Some(threads))
            .predict(&d.x)
            .unwrap()
    };
    let (seq, par) = (predict(1), predict(4));
    assert_eq!(seq.labels, par.labels);
    assert_eq!(par.report.host_threads, 4);
    for (a, b) in seq
        .decision_values
        .iter()
        .flatten()
        .zip(par.decision_values.iter().flatten())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "decision values diverged");
    }
    for (a, b) in seq
        .probabilities
        .iter()
        .flatten()
        .zip(par.probabilities.iter().flatten())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "probabilities diverged");
    }
}
