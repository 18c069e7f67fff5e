//! Labeled sparse datasets.

use gmp_sparse::CsrMatrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled dataset: CSR features plus integer class labels `0..k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one row per instance.
    pub x: CsrMatrix,
    /// Class label per instance (`0..n_classes`).
    pub y: Vec<u32>,
}

/// A train/test split of a [`Dataset`].
#[derive(Debug, Clone)]
pub struct SplitDataset {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
}

impl Dataset {
    /// Build, validating label/row agreement.
    pub fn new(x: CsrMatrix, y: Vec<u32>) -> Self {
        assert_eq!(x.nrows(), y.len(), "row/label count mismatch");
        Dataset { x, y }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.y.len()
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.x.ncols()
    }

    /// Number of distinct classes (assumes labels are `0..k` dense).
    pub fn n_classes(&self) -> usize {
        self.y.iter().copied().max().map_or(0, |m| m as usize + 1)
    }

    /// Count of instances per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let k = self.n_classes();
        let mut counts = vec![0usize; k];
        for &c in &self.y {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Instance indices of class `c`.
    pub fn class_indices(&self, c: u32) -> Vec<usize> {
        self.y
            .iter()
            .enumerate()
            .filter(|(_, &y)| y == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// A new dataset with only the given rows (in the given order).
    pub fn select(&self, rows: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(rows),
            y: rows.iter().map(|&r| self.y[r]).collect(),
        }
    }

    /// Deterministically shuffle and split: first `1 - test_fraction` of the
    /// permutation trains, the remainder tests.
    pub fn split(&self, test_fraction: f64, seed: u64) -> SplitDataset {
        assert!((0.0..1.0).contains(&test_fraction), "bad test fraction");
        let mut order: Vec<usize> = (0..self.n()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let n_test = ((self.n() as f64) * test_fraction).round() as usize;
        let n_train = self.n() - n_test;
        SplitDataset {
            train: self.select(&order[..n_train]),
            test: self.select(&order[n_train..]),
        }
    }

    /// Group instances class-contiguously (class 0 first, then 1, ...),
    /// returning the grouped dataset, the per-class offsets (length `k+1`),
    /// and the mapping `grouped index -> original index`.
    ///
    /// This is the layout the shared kernel store (Fig. 3) requires.
    pub fn group_by_class(&self) -> (Dataset, Vec<usize>, Vec<usize>) {
        let k = self.n_classes();
        let mut order: Vec<usize> = Vec::with_capacity(self.n());
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0);
        for c in 0..k as u32 {
            order.extend(self.class_indices(c));
            offsets.push(order.len());
        }
        (self.select(&order), offsets, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![2.0, 0.0],
                vec![0.0, 2.0],
            ],
            2,
        );
        Dataset::new(x, vec![0, 1, 2, 0, 1])
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.n(), 5);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![2, 2, 1]);
        assert_eq!(d.class_indices(0), vec![0, 3]);
    }

    #[test]
    fn select_keeps_labels_aligned() {
        let d = toy();
        let s = d.select(&[4, 0]);
        assert_eq!(s.y, vec![1, 0]);
        assert_eq!(s.x.row(0).values, d.x.row(4).values);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let d = toy();
        let s1 = d.split(0.4, 7);
        let s2 = d.split(0.4, 7);
        assert_eq!(s1.train.y, s2.train.y);
        assert_eq!(s1.test.y, s2.test.y);
        assert_eq!(s1.train.n() + s1.test.n(), d.n());
        assert_eq!(s1.test.n(), 2);
    }

    #[test]
    fn different_seeds_differ() {
        // With 5! permutations, two seeds almost surely give different
        // splits; pick seeds verified to differ.
        let d = toy();
        let a = d.split(0.4, 1);
        let b = d.split(0.4, 2);
        assert!(a.train.y != b.train.y || a.train.x != b.train.x);
    }

    #[test]
    fn group_by_class_layout() {
        let d = toy();
        let (g, offsets, map) = d.group_by_class();
        assert_eq!(offsets, vec![0, 2, 4, 5]);
        assert_eq!(g.y, vec![0, 0, 1, 1, 2]);
        assert_eq!(map, vec![0, 3, 1, 4, 2]);
        // Content preserved under the mapping.
        for (gi, &orig) in map.iter().enumerate() {
            assert_eq!(g.x.row(gi).values, d.x.row(orig).values);
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_mismatched_labels() {
        let x = CsrMatrix::from_dense(&[vec![1.0]], 1);
        Dataset::new(x, vec![0, 1]);
    }
}
