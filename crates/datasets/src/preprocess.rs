//! Feature preprocessing: the transformations practitioners apply before
//! SVM training (LibSVM ships `svm-scale`; the public datasets of Table 2
//! are distributed pre-scaled in exactly these ways).

use crate::dataset::Dataset;
use gmp_sparse::{CsrBuilder, CsrMatrix};

/// Per-column affine scaling `x' = (x - min) * scale` fitted on training
/// data and replayed on test data (LibSVM's `svm-scale -l 0 -u 1`).
///
/// Only *stored* entries are transformed — structural zeros stay zero, as
/// in `svm-scale`'s sparse behaviour when the column minimum is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    scales: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit per-column min/max. Structural zeros participate in the range
    /// (a column stored in fewer than `nrows` rows implicitly contains 0),
    /// matching dense semantics.
    pub fn fit(x: &CsrMatrix) -> MinMaxScaler {
        let d = x.ncols();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        let mut stored = vec![0usize; d];
        for i in 0..x.nrows() {
            let row = x.row(i);
            for (&c, &v) in row.indices.iter().zip(row.values) {
                let c = c as usize;
                mins[c] = mins[c].min(v);
                maxs[c] = maxs[c].max(v);
                stored[c] += 1;
            }
        }
        for c in 0..d {
            if stored[c] < x.nrows() && stored[c] > 0 {
                mins[c] = mins[c].min(0.0);
                maxs[c] = maxs[c].max(0.0);
            }
        }
        let scales = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| {
                if hi > lo {
                    1.0 / (hi - lo)
                } else {
                    0.0 // constant (or unseen) column maps to 0
                }
            })
            .collect();
        // Unseen columns: neutral transform.
        let mins = mins
            .into_iter()
            .map(|m| if m.is_finite() { m } else { 0.0 })
            .collect();
        MinMaxScaler { mins, scales }
    }

    /// Apply the fitted transform (entries clamp into `[0, 1]` so unseen
    /// out-of-range test values cannot explode).
    pub fn transform(&self, x: &CsrMatrix) -> CsrMatrix {
        assert_eq!(x.ncols(), self.mins.len(), "dimension mismatch");
        let mut b = CsrBuilder::new(x.ncols());
        b.reserve(x.nnz());
        for i in 0..x.nrows() {
            b.start_row();
            let row = x.row(i);
            for (&c, &v) in row.indices.iter().zip(row.values) {
                let ci = c as usize;
                let scaled = ((v - self.mins[ci]) * self.scales[ci]).clamp(0.0, 1.0);
                if scaled != 0.0 {
                    b.push(c, scaled);
                }
            }
        }
        b.finish()
    }
}

/// L2-normalize every row to unit norm (the standard text-data transform;
/// RCV1/News20 ship this way). Zero rows stay zero.
pub fn l2_normalize(x: &CsrMatrix) -> CsrMatrix {
    let mut b = CsrBuilder::new(x.ncols());
    b.reserve(x.nnz());
    for i in 0..x.nrows() {
        b.start_row();
        let row = x.row(i);
        let norm = row.norm_sq().sqrt();
        if norm > 0.0 {
            for (&c, &v) in row.indices.iter().zip(row.values) {
                b.push(c, v / norm);
            }
        }
    }
    b.finish()
}

/// Convenience: fit a scaler on `train`, producing scaled train and test
/// datasets with labels preserved.
pub fn scale_pair(train: &Dataset, test: &Dataset) -> (Dataset, Dataset, MinMaxScaler) {
    let scaler = MinMaxScaler::fit(&train.x);
    (
        Dataset::new(scaler.transform(&train.x), train.y.clone()),
        Dataset::new(scaler.transform(&test.x), test.y.clone()),
        scaler,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f64>], d: usize) -> CsrMatrix {
        CsrMatrix::from_dense(rows, d)
    }

    #[test]
    fn minmax_maps_training_range_to_unit() {
        let x = m(&[vec![2.0, 10.0], vec![4.0, 20.0], vec![3.0, 15.0]], 2);
        let s = MinMaxScaler::fit(&x);
        let t = s.transform(&x);
        let d = t.to_dense();
        assert!((d[0][0] - 0.0).abs() < 1e-12);
        assert!((d[1][0] - 1.0).abs() < 1e-12);
        assert!((d[2][0] - 0.5).abs() < 1e-12);
        assert!((d[2][1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn minmax_clamps_test_outliers() {
        let train = m(&[vec![0.0, 1.0], vec![2.0, 3.0]], 2);
        let s = MinMaxScaler::fit(&train);
        let test = m(&[vec![100.0, -50.0]], 2);
        let t = s.transform(&test);
        let d = t.to_dense();
        assert_eq!(d[0][0], 1.0);
        assert_eq!(d[0][1], 0.0);
    }

    #[test]
    fn minmax_constant_column_collapses_to_zero() {
        let x = m(&[vec![5.0], vec![5.0]], 1);
        let s = MinMaxScaler::fit(&x);
        let t = s.transform(&x);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn minmax_unseen_column_neutral() {
        let train = m(&[vec![1.0, 0.0]], 2); // column 1 never stored
        let s = MinMaxScaler::fit(&train);
        let test = m(&[vec![0.0, 7.0]], 2);
        let t = s.transform(&test);
        // Unseen column scale is 0: value collapses (no training range).
        assert_eq!(t.row(0).nnz(), 0);
    }

    #[test]
    fn l2_unit_norms() {
        let x = m(&[vec![3.0, 4.0], vec![0.0, 0.0], vec![5.0, 0.0]], 2);
        let t = l2_normalize(&x);
        assert!((t.row(0).norm_sq() - 1.0).abs() < 1e-12);
        assert_eq!(t.row(1).nnz(), 0);
        assert!((t.row(2).norm_sq() - 1.0).abs() < 1e-12);
        let d = t.to_dense();
        assert!((d[0][0] - 0.6).abs() < 1e-12);
        assert!((d[0][1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn scale_pair_is_consistent() {
        let train = Dataset::new(m(&[vec![0.0, 2.0], vec![10.0, 4.0]], 2), vec![0, 1]);
        let test = Dataset::new(m(&[vec![5.0, 3.0]], 2), vec![0]);
        let (tr, te, scaler) = scale_pair(&train, &test);
        assert_eq!(tr.y, train.y);
        assert_eq!(te.y, test.y);
        let direct = scaler.transform(&test.x);
        assert_eq!(te.x, direct);
        let d = te.x.to_dense();
        assert!((d[0][0] - 0.5).abs() < 1e-12);
        assert!((d[0][1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_rejects_wrong_width() {
        let s = MinMaxScaler::fit(&m(&[vec![1.0]], 1));
        let _ = s.transform(&m(&[vec![1.0, 2.0]], 2));
    }
}
