//! Synthetic stand-ins for the paper's nine evaluation datasets (Table 2).
//!
//! Each variant records the published class count, cardinality,
//! dimensionality and (C, γ) hyper-parameters, plus a density and
//! difficulty profile estimated from the public datasets. `generate(scale)`
//! produces a deterministic synthetic dataset with the same shape at
//! `scale` times the published cardinality — experiments report the scale
//! they ran at, and `EXPERIMENTS.md` records the substitution.

use crate::dataset::{Dataset, SplitDataset};
use crate::synth::SynthSpec;

/// The nine datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Adult (a9a): 2 classes, 32,561 x 123, C=100, γ=0.5.
    Adult,
    /// RCV1: 2 classes, 20,242 x 47,236, C=100, γ=0.125.
    Rcv1,
    /// Real-sim: 2 classes, 72,309 x 20,958, C=4, γ=0.5.
    RealSim,
    /// Webdata (w8a-like): 2 classes, 49,749 x 300, C=10, γ=0.5.
    Webdata,
    /// CIFAR-10: 10 classes, 50,000 x 3,072, C=10, γ=0.002.
    Cifar10,
    /// Connect-4: 3 classes, 67,557 x 126, C=1, γ=0.3.
    Connect4,
    /// MNIST: 10 classes, 60,000 x 780, C=10, γ=0.125.
    Mnist,
    /// MNIST8M: 10 classes, 8,100,000 x 784, C=1000, γ=0.006.
    Mnist8m,
    /// News20: 20 classes, 15,935 x 62,061, C=4, γ=0.5.
    News20,
}

/// Published metadata of one dataset plus the generator profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Short name used in tables.
    pub name: &'static str,
    /// Number of classes (Table 2).
    pub classes: usize,
    /// Published cardinality (Table 2).
    pub cardinality: usize,
    /// Published dimensionality (Table 2).
    pub dimension: usize,
    /// Published penalty parameter C (Table 2).
    pub c: f64,
    /// Published RBF γ (Table 2).
    pub gamma: f64,
    /// Approximate feature density of the public dataset.
    pub density: f64,
    /// Class-signature fraction for the generator (separability).
    pub class_sep: f64,
    /// Label-noise fraction (≈ the irreducible training error of Table 4).
    pub label_noise: f64,
}

impl PaperDataset {
    /// All nine datasets in Table 2 / Table 3 order.
    pub fn all() -> [PaperDataset; 9] {
        [
            PaperDataset::Adult,
            PaperDataset::Rcv1,
            PaperDataset::RealSim,
            PaperDataset::Webdata,
            PaperDataset::Cifar10,
            PaperDataset::Connect4,
            PaperDataset::Mnist,
            PaperDataset::Mnist8m,
            PaperDataset::News20,
        ]
    }

    /// The four binary datasets (used by Figs. 9/10 and the binary-level
    /// sensitivity studies).
    pub fn binary() -> [PaperDataset; 4] {
        [
            PaperDataset::Adult,
            PaperDataset::Rcv1,
            PaperDataset::RealSim,
            PaperDataset::Webdata,
        ]
    }

    /// Published metadata and generation profile.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            PaperDataset::Adult => DatasetSpec {
                name: "Adult",
                classes: 2,
                cardinality: 32_561,
                dimension: 123,
                c: 100.0,
                gamma: 0.5,
                density: 0.11,
                class_sep: 0.65,
                label_noise: 0.05,
            },
            PaperDataset::Rcv1 => DatasetSpec {
                name: "RCV1",
                classes: 2,
                cardinality: 20_242,
                dimension: 47_236,
                c: 100.0,
                gamma: 0.125,
                density: 0.0016,
                class_sep: 0.85,
                label_noise: 0.001,
            },
            PaperDataset::RealSim => DatasetSpec {
                name: "Real-sim",
                classes: 2,
                cardinality: 72_309,
                dimension: 20_958,
                c: 4.0,
                gamma: 0.5,
                density: 0.0025,
                class_sep: 0.85,
                label_noise: 0.003,
            },
            PaperDataset::Webdata => DatasetSpec {
                name: "Webdata",
                classes: 2,
                cardinality: 49_749,
                dimension: 300,
                c: 10.0,
                gamma: 0.5,
                density: 0.04,
                class_sep: 0.75,
                label_noise: 0.005,
            },
            PaperDataset::Cifar10 => DatasetSpec {
                name: "CIFAR-10",
                classes: 10,
                cardinality: 50_000,
                dimension: 3_072,
                c: 10.0,
                gamma: 0.002,
                density: 0.99,
                class_sep: 0.55,
                label_noise: 0.004,
            },
            PaperDataset::Connect4 => DatasetSpec {
                name: "Connect-4",
                classes: 3,
                cardinality: 67_557,
                dimension: 126,
                c: 1.0,
                gamma: 0.3,
                density: 0.33,
                class_sep: 0.6,
                label_noise: 0.04,
            },
            PaperDataset::Mnist => DatasetSpec {
                name: "MNIST",
                classes: 10,
                cardinality: 60_000,
                dimension: 780,
                c: 10.0,
                gamma: 0.125,
                density: 0.19,
                class_sep: 0.7,
                label_noise: 0.0,
            },
            PaperDataset::Mnist8m => DatasetSpec {
                name: "MNIST8M",
                classes: 10,
                cardinality: 8_100_000,
                dimension: 784,
                c: 1000.0,
                gamma: 0.006,
                density: 0.25,
                class_sep: 0.7,
                label_noise: 0.0,
            },
            PaperDataset::News20 => DatasetSpec {
                name: "News20",
                classes: 20,
                cardinality: 15_935,
                dimension: 62_061,
                c: 4.0,
                gamma: 0.5,
                density: 0.0013,
                class_sep: 0.8,
                label_noise: 0.02,
            },
        }
    }

    /// Generate the synthetic stand-in at `scale` times the published
    /// cardinality (clamped to at least 8 instances per class).
    ///
    /// Feature values are L2-normalized then multiplied by
    /// `1/sqrt(2γ)` so the published γ operates in a sensible range —
    /// see `crate::synth` docs.
    pub fn generate(&self, scale: f64) -> Dataset {
        let spec = self.spec();
        let n = ((spec.cardinality as f64 * scale).round() as usize).max(8 * spec.classes);
        let dim = spec.dimension;
        SynthSpec {
            n,
            dim,
            classes: spec.classes,
            density: spec.density,
            class_sep: spec.class_sep,
            label_noise: spec.label_noise,
            scale: 1.0 / (2.0 * spec.gamma).sqrt(),
            seed: 0x9e37_79b9 ^ (spec.cardinality as u64),
        }
        .generate()
    }

    /// Generate and split 80/20 train/test (deterministic).
    pub fn generate_split(&self, scale: f64) -> SplitDataset {
        self.generate(scale).split(0.2, 0xdead_beef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_consistent_with_table2() {
        for ds in PaperDataset::all() {
            let s = ds.spec();
            assert!(s.classes >= 2);
            assert!(s.c > 0.0 && s.gamma > 0.0);
            assert!(s.density > 0.0 && s.density <= 1.0);
        }
        assert_eq!(PaperDataset::Mnist.spec().classes, 10);
        assert_eq!(PaperDataset::News20.spec().classes, 20);
        assert_eq!(PaperDataset::Connect4.spec().classes, 3);
        assert_eq!(PaperDataset::Adult.spec().dimension, 123);
        assert_eq!(PaperDataset::Mnist8m.spec().cardinality, 8_100_000);
    }

    #[test]
    fn binary_subset() {
        for ds in PaperDataset::binary() {
            assert_eq!(ds.spec().classes, 2, "{:?}", ds);
        }
    }

    #[test]
    fn generation_matches_spec_shape() {
        let d = PaperDataset::Mnist.generate(0.01);
        assert_eq!(d.n(), 600);
        assert_eq!(d.dim(), 780);
        assert_eq!(d.n_classes(), 10);
    }

    #[test]
    fn scale_floor_keeps_classes_populated() {
        let d = PaperDataset::News20.generate(0.0001);
        assert!(d.n() >= 8 * 20);
        assert_eq!(d.n_classes(), 20);
        assert!(d.class_counts().iter().all(|&c| c >= 2));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            PaperDataset::Adult.generate(0.01),
            PaperDataset::Adult.generate(0.01)
        );
    }

    #[test]
    fn gamma_operating_range() {
        // γ·E[||xi - xj||²] should land near [0.1, 1.5] for RBF to be
        // informative.
        for ds in [
            PaperDataset::Adult,
            PaperDataset::Cifar10,
            PaperDataset::News20,
        ] {
            let spec = ds.spec();
            let d = ds.generate(0.005);
            let mut acc = 0.0;
            let mut cnt = 0;
            let norms = d.x.row_norms_sq();
            for i in 0..20.min(d.n()) {
                for j in (i + 1)..20.min(d.n()) {
                    let dot = d.x.row(i).dot_sparse(&d.x.row(j));
                    acc += norms[i] + norms[j] - 2.0 * dot;
                    cnt += 1;
                }
            }
            let gd2 = spec.gamma * acc / cnt as f64;
            assert!(
                (0.05..=2.0).contains(&gd2),
                "{}: γ·E[d²] = {gd2}",
                spec.name
            );
        }
    }

    #[test]
    fn split_partitions() {
        let s = PaperDataset::Webdata.generate_split(0.005);
        let total = s.train.n() + s.test.n();
        assert_eq!(total, PaperDataset::Webdata.generate(0.005).n());
        assert!(s.test.n() > 0 && s.train.n() > s.test.n());
    }
}
