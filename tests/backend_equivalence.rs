//! The compute-backend acceptance tests:
//!
//! 1. `scalar` is bit-identical to the pre-refactor pipeline — the train
//!    eval count, serialized model text, and prediction outputs are pinned
//!    as FNV-1a 64 hashes captured on the code *before* the backend seam
//!    existed.
//! 2. Every selectable backend produces bit-identical models, predictions,
//!    eval counts, and simulated times (train → `to_text` → `from_text` →
//!    serve-score end to end).
//! 3. Host threading never changes bits, on any backend.
//! 4. A many-feature, many-binary scenario (the News20 stand-in) keeps
//!    pinned bits through every predict route: offline at any host-thread
//!    count and served in batches of any size.
//! 5. The four comparator backends (LibSVM with and without OpenMP, the
//!    GPU baseline, CMP-SVM) keep their pinned training results.

use gmp_integration::{
    fnv64, fnv64_f64s, fnv64_u32s, golden_backend, golden_dataset, golden_params,
    news20_golden_params, news20_golden_split, predict_hashes,
};
use gmp_serve::PredictorEngine;
use gmp_svm::{
    Backend, ComputeBackendKind, MpSvmModel, MpSvmTrainer, PredictOutcome, PreparedPredictor,
    TrainOutcome,
};
use std::sync::Arc;

/// Offline prediction of `x` through the builder, on `threads` host
/// threads and the `compute` backend.
fn predict_on(
    model: &MpSvmModel,
    x: &gmp_sparse::CsrMatrix,
    backend: Backend,
    threads: usize,
    compute: ComputeBackendKind,
) -> PredictOutcome {
    PreparedPredictor::new(Arc::new(model.clone()), backend)
        .host_threads(Some(threads))
        .compute_backend(compute)
        .predict(x)
        // gmp:allow-panic — test
        .expect("prediction")
}

fn train_on(compute: ComputeBackendKind, threads: Option<usize>) -> TrainOutcome {
    let data = golden_dataset();
    MpSvmTrainer::new(
        golden_params().with_compute_backend(compute),
        golden_backend(),
    )
    .with_host_threads(threads)
    .train(&data)
    // gmp:allow-panic — test
    .expect("training the pinned scenario")
}

/// Goldens captured on the pre-refactor seed code (single host thread).
const GOLDEN_TRAIN_EVALS: u64 = 4320;
const GOLDEN_MODEL_FNV: u64 = 0xbd67b201923327bc;
const GOLDEN_PREDICT_EVALS: u64 = 900;
const GOLDEN_DV_FNV: u64 = 0xc1b8772dec901b45;
const GOLDEN_PROB_FNV: u64 = 0x95cc2655ffd5d775;
const GOLDEN_LABELS_FNV: u64 = 0xc99086524695a995;

#[test]
fn scalar_backend_matches_pre_refactor_goldens() {
    let data = golden_dataset();
    let out = train_on(ComputeBackendKind::Scalar, Some(1));
    assert_eq!(out.report.kernel_evals, GOLDEN_TRAIN_EVALS);
    assert_eq!(out.report.compute_backend, "scalar");
    let text = out.model.to_text();
    assert_eq!(fnv64(text.bytes()), GOLDEN_MODEL_FNV, "model text drifted");

    let pred = predict_on(
        &out.model,
        &data.x,
        golden_backend(),
        1,
        ComputeBackendKind::from_env(),
    );
    assert_eq!(pred.report.kernel_evals, GOLDEN_PREDICT_EVALS);
    let (dv, prob, labels) = predict_hashes(&pred);
    assert_eq!(dv, GOLDEN_DV_FNV, "decision values drifted");
    assert_eq!(prob, GOLDEN_PROB_FNV, "probabilities drifted");
    assert_eq!(labels, GOLDEN_LABELS_FNV, "labels drifted");
}

#[test]
fn all_backends_are_bit_identical_end_to_end() {
    // Train, serialize, reparse, and serve-score on each compute backend;
    // every artifact must carry the same bits.
    struct Summary {
        name: String,
        train_evals: u64,
        model_fnv: u64,
        predict_hashes: (u64, u64, u64),
        sim_bits: u64,
    }
    let data = golden_dataset();
    let mut summaries: Vec<Summary> = Vec::new();
    for compute in ComputeBackendKind::ALL {
        let out = train_on(compute, Some(1));
        assert_eq!(out.report.compute_backend, compute.name());
        let text = out.model.to_text();
        // gmp:allow-panic — test
        let reparsed = MpSvmModel::from_text(&text).expect("reparsing serialized model");

        // Offline prediction on the reparsed model.
        let pred = predict_on(&reparsed, &data.x, golden_backend(), 1, compute);
        assert_eq!(pred.report.compute_backend, compute.name());

        // Serve-score the same rows through the engine (train → text →
        // parse → serve): must match the offline path bit for bit.
        let engine =
            PredictorEngine::with_compute_backend(reparsed, golden_backend(), Some(1), compute)
                // gmp:allow-panic — test
                .expect("engine construction");
        assert_eq!(engine.compute_backend(), compute);
        // gmp:allow-panic — test
        let served = engine.predict_batch(&data.x).expect("serve scoring");
        assert_eq!(served.decision_values, pred.decision_values);
        assert_eq!(served.probabilities, pred.probabilities);
        assert_eq!(served.labels, pred.labels);

        summaries.push(Summary {
            name: compute.name().to_string(),
            train_evals: out.report.kernel_evals,
            model_fnv: fnv64(text.bytes()),
            predict_hashes: predict_hashes(&pred),
            sim_bits: pred.report.sim_s.to_bits(),
        });
    }
    let first = &summaries[0];
    for s in &summaries[1..] {
        assert_eq!(
            s.train_evals, first.train_evals,
            "{}: train eval count diverged",
            s.name
        );
        assert_eq!(
            s.model_fnv, first.model_fnv,
            "{}: model bits diverged",
            s.name
        );
        assert_eq!(
            s.predict_hashes, first.predict_hashes,
            "{}: prediction bits diverged",
            s.name
        );
        assert_eq!(
            s.sim_bits, first.sim_bits,
            "{}: simulated time diverged",
            s.name
        );
    }
}

#[test]
fn host_threads_never_change_bits() {
    let data = golden_dataset();
    for compute in ComputeBackendKind::ALL {
        let single = train_on(compute, Some(1));
        let multi = train_on(compute, Some(4));
        assert_eq!(
            single.model.to_text(),
            multi.model.to_text(),
            "{}: threading changed the model",
            compute.name()
        );
        let p1 = predict_on(&single.model, &data.x, golden_backend(), 1, compute);
        let p4 = predict_on(&multi.model, &data.x, golden_backend(), 4, compute);
        assert_eq!(
            predict_hashes(&p1),
            predict_hashes(&p4),
            "{}",
            compute.name()
        );
    }
}

#[test]
fn unshared_prediction_path_agrees_across_backends() {
    // The per-binary (unshared) scoring path also rides the backend seam.
    let data = golden_dataset();
    let out = train_on(ComputeBackendKind::Scalar, Some(1));
    let mut hashes = Vec::new();
    for compute in ComputeBackendKind::ALL {
        let pred = predict_on(&out.model, &data.x, Backend::libsvm(), 1, compute);
        hashes.push(predict_hashes(&pred));
    }
    assert!(hashes.windows(2).all(|w| w[0] == w[1]));
}

/// News20 goldens, captured before decision scoring took rows in groups
/// of four (single host thread, any compute backend).
const NEWS20_MODEL_FNV: u64 = 0xf38dbf51c5d31aa8;
const NEWS20_DV_FNV: u64 = 0x25296dd7be50a263;
const NEWS20_PROB_FNV: u64 = 0xf3a502bd758dd613;
const NEWS20_LABELS_FNV: u64 = 0xeac5ded79e511f3c;

#[test]
fn news20_stand_in_matches_goldens_on_every_predict_route() {
    let split = news20_golden_split();
    let out = MpSvmTrainer::new(news20_golden_params(), golden_backend())
        .with_host_threads(Some(1))
        .train(&split.train)
        // gmp:allow-panic — test
        .expect("training the News20 scenario");
    assert_eq!(out.model.classes, 20);
    let text = out.model.to_text();
    let golden = (NEWS20_DV_FNV, NEWS20_PROB_FNV, NEWS20_LABELS_FNV);
    assert_eq!(fnv64(text.bytes()), NEWS20_MODEL_FNV, "model text drifted");

    for threads in [1, 3] {
        let pred = predict_on(
            &out.model,
            &split.test.x,
            golden_backend(),
            threads,
            ComputeBackendKind::from_env(),
        );
        assert_eq!(predict_hashes(&pred), golden, "{threads} host threads");
    }

    // Served in batches of 1, 5 and 16 rows: the batches of 5 and 16 reach
    // both the groups of four rows and the one-row remainder.
    let engine = PredictorEngine::new(out.model, golden_backend(), Some(1))
        // gmp:allow-panic — test
        .expect("engine construction");
    let n = split.test.n();
    for batch in [1, 5, 16] {
        let (mut dv, mut prob, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for start in (0..n).step_by(batch) {
            let rows: Vec<usize> = (start..(start + batch).min(n)).collect();
            let part = engine
                .predict_batch(&split.test.x.select_rows(&rows))
                // gmp:allow-panic — test
                .expect("serve scoring");
            dv.extend(part.decision_values.into_iter().flatten());
            prob.extend(part.probabilities.into_iter().flatten());
            labels.extend(part.labels);
        }
        let served = (fnv64_f64s(&dv), fnv64_f64s(&prob), fnv64_u32s(&labels));
        assert_eq!(served, golden, "batches of {batch}");
    }
}

/// The comparator scenario: four overlapping classes (six binaries of about
/// 120 rows), a weighted class, and a 16-row LRU cache, so the classic paths
/// evict and the batched one refreshes its working set many times.
fn comparator_outcome(backend: Backend) -> TrainOutcome {
    let data = gmp_datasets::SynthSpec {
        n: 240,
        dim: 400,
        classes: 4,
        density: 0.05,
        class_sep: 0.6,
        label_noise: 0.05,
        scale: 1.0,
        seed: 21,
    }
    .generate();
    let mut params = golden_params().with_c(5.0).with_working_set(16, 8);
    params.cache_rows = 16;
    MpSvmTrainer::new(params, backend)
        .with_class_weights(vec![1.0, 1.5])
        .with_host_threads(Some(1))
        .train(&data)
        // gmp:allow-panic — test
        .expect("training the comparator scenario")
}

/// Training goldens of the four comparator backends, captured before they
/// ran through the one wave loop: model-text FNV, kernel evals, rows
/// computed, total SMO iterations and the bits of the simulated seconds.
#[test]
fn comparator_backends_match_training_goldens() {
    struct Golden {
        backend: Backend,
        model_fnv: u64,
        kernel_evals: u64,
        rows_computed: u64,
        iterations: u64,
        sim_bits: u64,
    }
    let libsvm = |backend| Golden {
        backend,
        model_fnv: 0xc9d3fb7b0dcecd77,
        kernel_evals: 282_599,
        rows_computed: 2_355,
        iterations: 1_178,
        sim_bits: 0x3f68c9388a51c1e0,
    };
    let goldens = [
        libsvm(Backend::libsvm()),
        libsvm(Backend::libsvm_openmp()),
        Golden {
            sim_bits: 0x3fa8a3df55b28b96,
            ..libsvm(Backend::gpu_baseline_default())
        },
        Golden {
            backend: Backend::cmp_svm(),
            model_fnv: 0x7205bfcca7c69369,
            kernel_evals: 54_537,
            rows_computed: 909,
            iterations: 1_895,
            sim_bits: 0x3f50b5cff7ec5205,
        },
    ];
    for g in goldens {
        let name = g.backend.label();
        let on_device = matches!(g.backend, Backend::GpuBaseline { .. });
        let out = comparator_outcome(g.backend);
        let r = &out.report;
        assert_eq!(fnv64(out.model.to_text().bytes()), g.model_fnv, "{name}");
        assert_eq!(r.kernel_evals, g.kernel_evals, "{name}");
        assert_eq!(r.rows_computed, g.rows_computed, "{name}");
        assert_eq!(r.total_iterations(), g.iterations, "{name}");
        // The device clock is a sum in one fixed order. The host clocks may
        // round differently with the order the problems' times are added.
        let golden_sim = f64::from_bits(g.sim_bits);
        if on_device {
            assert_eq!(r.sim_s.to_bits(), g.sim_bits, "{name}");
        } else {
            let rel = (r.sim_s - golden_sim).abs() / golden_sim;
            assert!(rel <= 1e-12, "{name}: sim_s {} vs {golden_sim}", r.sim_s);
        }
    }
}
