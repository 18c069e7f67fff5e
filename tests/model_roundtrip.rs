//! Model persistence: trained models survive the text format round-trip
//! and predict identically afterwards.

use gmp_datasets::BlobSpec;
use gmp_svm::{Backend, MpSvmModel, MpSvmTrainer, SvmParams};

fn trained(classes: usize, probability: bool) -> (gmp_svm::TrainOutcome, gmp_datasets::Dataset) {
    let data = BlobSpec {
        n: 60 * classes,
        dim: 3,
        classes,
        spread: 0.25,
        seed: 61,
    }
    .generate();
    let mut params = SvmParams::default()
        .with_c(2.0)
        .with_rbf(0.8)
        .with_working_set(32, 16);
    params.probability = probability;
    let out = MpSvmTrainer::new(params, Backend::gmp_default())
        .train(&data)
        .expect("train");
    (out, data)
}

#[test]
fn roundtrip_preserves_predictions() {
    let (out, data) = trained(3, true);
    let text = out.model.to_text();
    let loaded = MpSvmModel::from_text(&text).expect("parse");
    let backend = Backend::gmp_default();
    let a = out
        .model
        .predict(&data.x, &backend)
        .expect("predict original");
    let b = loaded.predict(&data.x, &backend).expect("predict loaded");
    assert_eq!(a.labels, b.labels);
    for (pa, pb) in a.probabilities.iter().zip(&b.probabilities) {
        for (x, y) in pa.iter().zip(pb) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

#[test]
fn roundtrip_preserves_structure() {
    let (out, _) = trained(4, true);
    let loaded = MpSvmModel::from_text(&out.model.to_text()).expect("parse");
    assert_eq!(loaded.classes, 4);
    assert_eq!(loaded.binaries.len(), 6);
    assert_eq!(loaded.sv_pool.nrows(), out.model.n_sv());
    assert_eq!(loaded.kernel, out.model.kernel);
    for (a, b) in out.model.binaries.iter().zip(&loaded.binaries) {
        assert_eq!((a.s, a.t), (b.s, b.t));
        assert_eq!(a.sv_idx, b.sv_idx);
        assert_eq!(a.rho, b.rho);
    }
}

#[test]
fn roundtrip_without_probability() {
    let (out, data) = trained(2, false);
    assert!(!out.model.has_probability());
    let loaded = MpSvmModel::from_text(&out.model.to_text()).expect("parse");
    assert!(!loaded.has_probability());
    let backend = Backend::gmp_default();
    let a = out.model.predict(&data.x, &backend).expect("predict");
    let b = loaded.predict(&data.x, &backend).expect("predict");
    assert_eq!(a.labels, b.labels);
    assert!(a.probabilities.is_empty() && b.probabilities.is_empty());
}

#[test]
fn corrupted_models_rejected_with_context() {
    let (out, _) = trained(2, true);
    let text = out.model.to_text();
    // Truncate mid-file.
    let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
    assert!(MpSvmModel::from_text(&truncated).is_err());
    // A class id beyond the class count is refused on its own line.
    let bad = text.replace("binary 0 1", "binary 0 999");
    let err = MpSvmModel::from_text(&bad).unwrap_err();
    let binary_line = text
        .lines()
        .position(|l| l.starts_with("binary 0 1"))
        .unwrap()
        + 1;
    assert_eq!(err.line, binary_line, "{err}");
    assert!(err.message.contains("found 0 999"), "{err}");
    let bad_pool = text.replacen("sv_pool", "sv_pool_oops", 1);
    let err = MpSvmModel::from_text(&bad_pool).unwrap_err();
    assert!(
        err.line >= 4,
        "error should point at the sv_pool line: {err}"
    );
}

#[test]
fn file_roundtrip() {
    let (out, data) = trained(3, true);
    let path = std::env::temp_dir().join("gmp_model_roundtrip_test.gmpsvm");
    std::fs::write(&path, out.model.to_text()).expect("write");
    let loaded =
        MpSvmModel::from_text(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    let backend = Backend::gmp_default();
    let a = out.model.predict(&data.x, &backend).expect("predict");
    let b = loaded.predict(&data.x, &backend).expect("predict");
    assert_eq!(a.labels, b.labels);
    std::fs::remove_file(&path).ok();
}
