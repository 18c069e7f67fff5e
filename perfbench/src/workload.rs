//! Workload inputs: a Table-2 stand-in generated from a benchmark seed, and
//! the training configuration every phase shares.

use gmp_datasets::{Dataset, PaperDataset, SplitDataset, SynthSpec};
use gmp_svm::{Backend, ComputeBackendKind, SvmParams};

/// Extra held-out rows per test row, for the quality metrics only.
const QUALITY_FACTOR: usize = 4;

/// The train/test split plus `QUALITY_FACTOR` times as many further rows
/// from the same generator. The generator draws rows in order from one
/// stream, so the first rows are exactly those of the plain stand-in: seed 0
/// reproduces `PaperDataset::generate_split`, and any other seed shifts the
/// generator seed and the split seed by the same amount.
pub fn generate(ds: PaperDataset, scale: f64, seed: u64) -> (SplitDataset, Dataset) {
    let spec = ds.spec();
    let n = ((spec.cardinality as f64 * scale).round() as usize).max(8 * spec.classes);
    let n_test = (n as f64 * TEST_FRACTION).round() as usize;
    let all = SynthSpec {
        n: n + QUALITY_FACTOR * n_test,
        dim: spec.dimension,
        classes: spec.classes,
        density: spec.density,
        class_sep: spec.class_sep,
        label_noise: spec.label_noise,
        scale: 1.0 / (2.0 * spec.gamma).sqrt(),
        seed: (0x9e37_79b9 ^ spec.cardinality as u64).wrapping_add(seed),
    }
    .generate();
    let rows: Vec<usize> = (0..all.n()).collect();
    let split = all
        .select(&rows[..n])
        .split(TEST_FRACTION, 0xdead_beef_u64.wrapping_add(seed));
    (split, all.select(&rows[n..]))
}

const TEST_FRACTION: f64 = 0.2;

pub fn dataset(name: &str) -> Option<PaperDataset> {
    match name {
        "mnist" => Some(PaperDataset::Mnist),
        "adult" => Some(PaperDataset::Adult),
        "news20" => Some(PaperDataset::News20),
        _ => None,
    }
}

/// Table-2 C/γ, default `SvmParams` otherwise (probability on), pinned to
/// the scalar compute backend.
pub fn params(ds: PaperDataset) -> SvmParams {
    gmp_bench::params_for(ds).with_compute_backend(ComputeBackendKind::Scalar)
}

pub fn backend() -> Backend {
    Backend::gmp_default()
}
