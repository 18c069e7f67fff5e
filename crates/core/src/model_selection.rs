//! Hyper-parameter grid search over (C, γ) by cross-validation — the
//! model-selection workflow the paper's §4.1 sweep ("we also varied the
//! hyper-parameters C from 0.01 to 100 and γ from 0.03 to 10") automates.

use crate::cv::cross_validate;
use crate::params::{Backend, SvmParams};
use crate::trainer::TrainError;
use gmp_datasets::Dataset;

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Penalty parameter.
    pub c: f64,
    /// RBF γ.
    pub gamma: f64,
    /// Mean cross-validated error.
    pub cv_error: f64,
}

/// Grid-search specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// Candidate C values.
    pub c_values: Vec<f64>,
    /// Candidate γ values.
    pub gamma_values: Vec<f64>,
    /// Cross-validation folds.
    pub folds: usize,
    /// Shuffle seed for the folds.
    pub seed: u64,
}

impl GridSearch {
    /// The paper's sweep ranges at a coarse resolution:
    /// C in {0.01, 1, 100}, γ in {0.03, 0.5, 10}.
    pub fn paper_sweep() -> Self {
        GridSearch {
            c_values: vec![0.01, 1.0, 100.0],
            gamma_values: vec![0.03, 0.5, 10.0],
            folds: 3,
            seed: 0x5eed,
        }
    }

    /// Evaluate every grid point; returns the best parameter set and all
    /// evaluated points (sorted by ascending error; ties keep grid order,
    /// so results are deterministic).
    pub fn run(
        &self,
        base: SvmParams,
        backend: &Backend,
        data: &Dataset,
    ) -> Result<(SvmParams, Vec<GridPoint>), TrainError> {
        assert!(
            !self.c_values.is_empty() && !self.gamma_values.is_empty(),
            "empty grid"
        );
        let mut points = Vec::with_capacity(self.c_values.len() * self.gamma_values.len());
        for &c in &self.c_values {
            for &gamma in &self.gamma_values {
                let params = base.with_c(c).with_rbf(gamma);
                let cv = cross_validate(params, backend.clone(), data, self.folds, self.seed)?;
                points.push(GridPoint {
                    c,
                    gamma,
                    cv_error: cv.mean_error,
                });
            }
        }
        let best = points
            .iter()
            .min_by(|a, b| a.cv_error.total_cmp(&b.cv_error))
            // gmp:allow-panic — both grid axes are validated non-empty above,
            // so at least one point was pushed.
            .expect("non-empty grid");
        let best_params = base.with_c(best.c).with_rbf(best.gamma);
        points.sort_by(|a, b| a.cv_error.total_cmp(&b.cv_error));
        Ok((best_params, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;

    #[test]
    fn finds_a_sane_operating_point() {
        let data = BlobSpec {
            n: 90,
            dim: 2,
            classes: 3,
            spread: 0.15,
            seed: 77,
        }
        .generate();
        let grid = GridSearch {
            c_values: vec![0.01, 1.0],
            gamma_values: vec![0.01, 1.0],
            folds: 3,
            seed: 1,
        };
        let base = SvmParams::default().with_working_set(16, 8);
        let (best, points) = grid.run(base, &Backend::libsvm(), &data).unwrap();
        assert_eq!(points.len(), 4);
        // Errors sorted ascending.
        assert!(points.windows(2).all(|w| w[0].cv_error <= w[1].cv_error));
        // The best point performs at least as well as the worst by a real
        // margin on this easy problem (tiny C + tiny gamma underfits badly).
        assert!(points[0].cv_error <= points[3].cv_error);
        assert_eq!(best.c, points[0].c);
        // Best parameters classify the blobs well.
        assert!(
            points[0].cv_error < 0.2,
            "best cv error {}",
            points[0].cv_error
        );
    }

    #[test]
    fn deterministic() {
        let data = BlobSpec {
            n: 60,
            dim: 2,
            classes: 2,
            spread: 0.2,
            seed: 78,
        }
        .generate();
        let grid = GridSearch {
            c_values: vec![1.0, 10.0],
            gamma_values: vec![0.5],
            folds: 2,
            seed: 9,
        };
        let base = SvmParams::default().with_working_set(16, 8);
        let a = grid.run(base, &Backend::libsvm(), &data).unwrap();
        let b = grid.run(base, &Backend::libsvm(), &data).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.c, b.0.c);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn rejects_empty_grid() {
        let data = BlobSpec {
            n: 20,
            dim: 2,
            classes: 2,
            spread: 0.2,
            seed: 79,
        }
        .generate();
        let grid = GridSearch {
            c_values: vec![],
            gamma_values: vec![1.0],
            folds: 2,
            seed: 0,
        };
        let _ = grid.run(SvmParams::default(), &Backend::libsvm(), &data);
    }

    #[test]
    fn paper_sweep_shape() {
        let g = GridSearch::paper_sweep();
        assert_eq!(g.c_values.len() * g.gamma_values.len(), 9);
        assert_eq!(g.c_values[0], 0.01);
        assert_eq!(*g.gamma_values.last().unwrap(), 10.0);
    }
}
