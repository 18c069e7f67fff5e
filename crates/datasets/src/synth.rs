//! Deterministic synthetic dataset generators.
//!
//! Two families:
//! * [`SynthSpec`] — sparse, high-dimensional, class-structured data in the
//!   style of the paper's text/image datasets: each class owns a signature
//!   feature set; instances mix signature and background features, are
//!   L2-normalized, then scaled so that the dataset's published RBF γ
//!   lands in a sensible operating range (`scale = 1/sqrt(2γ)` makes
//!   `γ·||x_i - x_j||²` span roughly `[0, 1]`).
//! * [`BlobSpec`] — small dense Gaussian blobs for examples and tests.

use crate::dataset::Dataset;
use gmp_sparse::CsrBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a sparse, signature-based synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Number of instances.
    pub n: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Average fraction of non-zero features per instance.
    pub density: f64,
    /// Fraction of an instance's features drawn from its class signature
    /// (higher = more separable).
    pub class_sep: f64,
    /// Probability of replacing a label with a random other class
    /// (controls irreducible training error).
    pub label_noise: f64,
    /// Multiplier applied to the L2-normalized rows.
    pub scale: f64,
    /// RNG seed — identical specs generate identical datasets.
    pub seed: u64,
}

impl SynthSpec {
    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        assert!(self.classes >= 2, "need at least two classes");
        assert!(
            self.dim >= self.classes,
            "need at least one feature per class"
        );
        assert!((0.0..=1.0).contains(&self.class_sep));
        assert!((0.0..=1.0).contains(&self.label_noise));
        let mut rng = StdRng::seed_from_u64(self.seed);

        let nnz_per_row = ((self.density * self.dim as f64).round() as usize).clamp(1, self.dim);
        // Class signatures: disjoint feature bands plus a shared pool. The
        // band is kept narrow relative to the per-row signature count so
        // that two instances of the same class share many features (high
        // within-class kernel similarity), while still fitting `classes`
        // disjoint bands.
        let n_sig_target = ((nnz_per_row as f64) * self.class_sep).round() as usize;
        let band = (2 * n_sig_target.max(2))
            .min(self.dim / self.classes)
            .max(1);
        let sig_start = |c: usize| (c * band).min(self.dim - band);
        let pool_start = (self.classes * band).min(self.dim.saturating_sub(1));

        let mut b = CsrBuilder::new(self.dim);
        b.reserve(self.n * nnz_per_row);
        let mut y = Vec::with_capacity(self.n);

        let mut cols: Vec<u32> = Vec::with_capacity(nnz_per_row);
        for i in 0..self.n {
            let c = i % self.classes; // balanced classes
            let n_sig = ((nnz_per_row as f64) * self.class_sep).round() as usize;
            let n_bg = nnz_per_row - n_sig.min(nnz_per_row);
            cols.clear();
            for _ in 0..n_sig.min(nnz_per_row) {
                cols.push((sig_start(c) + rng.gen_range(0..band)) as u32);
            }
            for _ in 0..n_bg {
                let span = self.dim - pool_start;
                let col = if span > 0 {
                    pool_start + rng.gen_range(0..span)
                } else {
                    rng.gen_range(0..self.dim)
                };
                cols.push(col as u32);
            }
            cols.sort_unstable();
            cols.dedup();

            // Values: positive, jittered; then normalize and scale.
            let vals: Vec<f64> = cols.iter().map(|_| 0.5 + rng.gen::<f64>()).collect();
            let norm: f64 = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
            b.start_row();
            for (&col, v) in cols.iter().zip(&vals) {
                b.push(col, self.scale * v / norm);
            }

            // Label noise.
            let label = if self.label_noise > 0.0 && rng.gen::<f64>() < self.label_noise {
                let mut other = rng.gen_range(0..self.classes - 1);
                if other >= c {
                    other += 1;
                }
                other as u32
            } else {
                c as u32
            };
            y.push(label);
        }
        Dataset::new(b.finish(), y)
    }
}

/// Dense Gaussian blobs: one spherical cluster per class on a circle.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobSpec {
    /// Number of instances.
    pub n: usize,
    /// Feature dimensionality (>= 2).
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Cluster standard deviation (cluster centers sit on the unit circle
    /// of the first two dimensions; `spread` ≳ 0.5 makes classes overlap).
    pub spread: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BlobSpec {
    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        assert!(self.dim >= 2, "blobs need at least two dimensions");
        assert!(self.classes >= 2);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = CsrBuilder::new(self.dim);
        let mut y = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let c = i % self.classes;
            let angle = 2.0 * std::f64::consts::PI * (c as f64) / (self.classes as f64);
            let (cx, cy) = (angle.cos(), angle.sin());
            b.start_row();
            for dcol in 0..self.dim {
                let center = match dcol {
                    0 => cx,
                    1 => cy,
                    _ => 0.0,
                };
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = center + self.spread * g;
                if v != 0.0 {
                    b.push(dcol as u32, v);
                }
            }
            y.push(c as u32);
        }
        Dataset::new(b.finish(), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SynthSpec {
        SynthSpec {
            n: 200,
            dim: 500,
            classes: 4,
            density: 0.05,
            class_sep: 0.8,
            label_noise: 0.0,
            scale: 1.0,
            seed: 11,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(spec().generate(), spec().generate());
    }

    #[test]
    fn different_seed_differs() {
        let mut s2 = spec();
        s2.seed = 12;
        assert_ne!(spec().generate(), s2.generate());
    }

    #[test]
    fn shape_and_balance() {
        let d = spec().generate();
        assert_eq!(d.n(), 200);
        assert_eq!(d.dim(), 500);
        assert_eq!(d.n_classes(), 4);
        let counts = d.class_counts();
        assert!(counts.iter().all(|&c| c == 50), "{counts:?}");
    }

    #[test]
    fn density_approximate() {
        let d = spec().generate();
        let target = 0.05;
        let got = d.x.density();
        assert!(
            (got - target).abs() / target < 0.4,
            "density {got} vs target {target}"
        );
    }

    #[test]
    fn rows_unit_norm_times_scale() {
        let mut s = spec();
        s.scale = 2.0;
        let d = s.generate();
        for i in 0..20 {
            let norm = d.x.row(i).norm_sq().sqrt();
            assert!((norm - 2.0).abs() < 1e-9, "row {i} norm {norm}");
        }
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // Same-class dot products should exceed cross-class on average.
        let d = spec().generate();
        let (mut same, mut cross) = (0.0, 0.0);
        let (mut ns, mut nc) = (0usize, 0usize);
        for i in 0..50 {
            for j in i + 1..50 {
                let dot = d.x.row(i).dot_sparse(&d.x.row(j));
                if d.y[i] == d.y[j] {
                    same += dot;
                    ns += 1;
                } else {
                    cross += dot;
                    nc += 1;
                }
            }
        }
        assert!(same / ns as f64 > 2.0 * (cross / nc as f64).max(1e-9));
    }

    #[test]
    fn label_noise_flips_labels() {
        let mut s = spec();
        s.label_noise = 0.3;
        let noisy = s.generate();
        let clean_labels: Vec<u32> = (0..s.n).map(|i| (i % s.classes) as u32).collect();
        let flips = noisy
            .y
            .iter()
            .zip(&clean_labels)
            .filter(|(a, b)| a != b)
            .count();
        let frac = flips as f64 / s.n as f64;
        assert!((frac - 0.3).abs() < 0.12, "flip fraction {frac}");
    }

    #[test]
    fn blobs_shape() {
        let d = BlobSpec {
            n: 90,
            dim: 3,
            classes: 3,
            spread: 0.2,
            seed: 5,
        }
        .generate();
        assert_eq!(d.n(), 90);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![30, 30, 30]);
    }

    #[test]
    fn blobs_cluster_around_centers() {
        let d = BlobSpec {
            n: 300,
            dim: 2,
            classes: 3,
            spread: 0.1,
            seed: 9,
        }
        .generate();
        // Mean of class 0 should be near (1, 0).
        let idx = d.class_indices(0);
        let mut mx = 0.0;
        let mut my = 0.0;
        for &i in &idx {
            let mut dense = vec![0.0; 2];
            d.x.row(i).scatter(&mut dense);
            mx += dense[0];
            my += dense[1];
        }
        mx /= idx.len() as f64;
        my /= idx.len() as f64;
        assert!((mx - 1.0).abs() < 0.1 && my.abs() < 0.1, "({mx},{my})");
    }
}
