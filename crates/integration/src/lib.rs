//! Shared fixtures and hashing helpers for the repository-root
//! integration tests (see the `[[test]]` entries in `Cargo.toml`).
//!
//! The bit-exactness tests pin results as FNV-1a 64 hashes of the raw
//! IEEE-754 bits, so "bit-identical" means exactly that — any change to a
//! summation order, a charge, or the model text shows up as a hash
//! mismatch, not a tolerance failure.

use gmp_datasets::{BlobSpec, Dataset, PaperDataset, SplitDataset};
use gmp_svm::predict::PredictOutcome;
use gmp_svm::{Backend, SvmParams};

/// FNV-1a 64-bit over a byte stream.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a 64 over the exact bits of a stream of `f64`s (little-endian,
/// iteration order).
pub fn fnv64_f64s<'a>(vals: impl IntoIterator<Item = &'a f64>) -> u64 {
    fnv64(vals.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// FNV-1a 64 over `u32` labels (little-endian).
pub fn fnv64_u32s<'a>(vals: impl IntoIterator<Item = &'a u32>) -> u64 {
    fnv64(vals.into_iter().flat_map(|v| v.to_le_bytes()))
}

/// Row-major hashes of a prediction outcome: (decision values,
/// probabilities, labels).
pub fn predict_hashes(p: &PredictOutcome) -> (u64, u64, u64) {
    (
        fnv64_f64s(p.decision_values.iter().flatten()),
        fnv64_f64s(p.probabilities.iter().flatten()),
        fnv64_u32s(p.labels.iter()),
    )
}

/// The pinned end-to-end scenario: a 3-class blob problem small enough to
/// train in milliseconds but large enough to exercise working-set rounds,
/// the shared store, sigmoid fitting, and coupling.
pub fn golden_dataset() -> Dataset {
    BlobSpec {
        n: 90,
        dim: 2,
        classes: 3,
        spread: 0.15,
        seed: 9,
    }
    .generate()
}

/// Parameters of the pinned scenario (deterministic given one host
/// thread).
pub fn golden_params() -> SvmParams {
    SvmParams::default()
        .with_c(2.0)
        .with_rbf(1.0)
        .with_working_set(32, 16)
}

/// The pinned scenario's execution backend.
pub fn golden_backend() -> Backend {
    Backend::gmp_default()
}

/// The many-class pinned scenario: the News20 stand-in (20 classes,
/// 0.13% dense over 62,061 features, 190 binaries with long SV lists) at
/// 8% of its published size, split 80/20: 1,020 training rows, about 100
/// per binary and nearly all of them SVs. Small enough to train in about
/// two seconds in a debug build.
pub fn news20_golden_split() -> SplitDataset {
    PaperDataset::News20.generate_split(0.08)
}

/// Parameters of the News20 scenario: Table 2's C and γ with the reduced
/// working set the Table-3 pipeline uses.
pub fn news20_golden_params() -> SvmParams {
    let spec = PaperDataset::News20.spec();
    SvmParams::default()
        .with_c(spec.c)
        .with_rbf(spec.gamma)
        .with_working_set(128, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Known FNV-1a 64 values.
        assert_eq!(fnv64([]), 0xcbf29ce484222325);
        assert_eq!(fnv64(*b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(*b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_helpers_are_order_sensitive() {
        let a = [1.0f64, 2.0];
        let b = [2.0f64, 1.0];
        assert_ne!(fnv64_f64s(a.iter()), fnv64_f64s(b.iter()));
        assert_ne!(fnv64_u32s([1u32, 2].iter()), fnv64_u32s([2u32, 1].iter()));
    }
}
