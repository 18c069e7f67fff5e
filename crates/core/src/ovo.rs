//! One-vs-one (pairwise coupling) decomposition — Fig. 1 of the paper.

use gmp_datasets::Dataset;

/// All `k(k-1)/2` ordered class pairs `(s, t)` with `s < t`, in LibSVM's
/// enumeration order.
pub fn class_pairs(k: usize) -> Vec<(u16, u16)> {
    class_pair_iter(k)
        .map(|(s, t)| (s as u16, t as u16))
        .collect()
}

/// [`class_pairs`] as a lazy iterator: nothing is allocated up front, so
/// an untrusted class count (a model file's) cannot size an allocation.
pub fn class_pair_iter(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k).flat_map(move |s| (s + 1..k).map(move |t| (s, t)))
}

/// A materialized binary subproblem: the instances of classes `s` and `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryProblem {
    /// Class pair (`s < t`).
    pub s: u16,
    /// Second class.
    pub t: u16,
    /// ±1 labels: `+1` for class `s`, `-1` for class `t` (LibSVM's
    /// convention: decision > 0 predicts the first class).
    pub y: Vec<f64>,
    /// For each local instance, its row index in the *original* dataset.
    pub original_index: Vec<usize>,
}

impl BinaryProblem {
    /// Extract problem `(s, t)` from a class-grouped dataset with the given
    /// per-class offsets, where `grouped_to_original` maps grouped rows
    /// back to original dataset rows.
    ///
    /// Local index space: `0..n_s` are class `s` instances (grouped order),
    /// `n_s..n_s+n_t` class `t` — exactly the layout `SharedRows` serves.
    pub fn from_grouped(
        s: u16,
        t: u16,
        offsets: &[usize],
        grouped_to_original: &[usize],
    ) -> BinaryProblem {
        let rs = offsets[s as usize]..offsets[s as usize + 1];
        let rt = offsets[t as usize]..offsets[t as usize + 1];
        let n_s = rs.len();
        let n_t = rt.len();
        let mut y = Vec::with_capacity(n_s + n_t);
        let mut original_index = Vec::with_capacity(n_s + n_t);
        for g in rs {
            y.push(1.0);
            original_index.push(grouped_to_original[g]);
        }
        for g in rt {
            y.push(-1.0);
            original_index.push(grouped_to_original[g]);
        }
        BinaryProblem {
            s,
            t,
            y,
            original_index,
        }
    }

    /// Number of instances in the subproblem.
    pub fn n(&self) -> usize {
        self.y.len()
    }

    /// Grouped-dataset row range of this problem's class-`s` block
    /// (for slicing sub-datasets out of the grouped matrix).
    pub fn grouped_rows(&self, offsets: &[usize]) -> Vec<usize> {
        let mut rows: Vec<usize> =
            (offsets[self.s as usize]..offsets[self.s as usize + 1]).collect();
        rows.extend(offsets[self.t as usize]..offsets[self.t as usize + 1]);
        rows
    }
}

/// Decompose a dataset: group by class and materialize every pair's
/// problem description (labels + index maps; feature slices are taken
/// lazily by the backends).
pub fn decompose(data: &Dataset) -> (Dataset, Vec<usize>, Vec<usize>, Vec<BinaryProblem>) {
    let (grouped, offsets, map) = data.group_by_class();
    let k = data.n_classes();
    let problems = class_pairs(k)
        .into_iter()
        .map(|(s, t)| BinaryProblem::from_grouped(s, t, &offsets, &map))
        .collect();
    (grouped, offsets, map, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_sparse::CsrMatrix;

    #[test]
    fn pair_enumeration() {
        assert_eq!(class_pairs(2), vec![(0, 1)]);
        assert_eq!(class_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(class_pairs(10).len(), 45);
        assert_eq!(class_pairs(20).len(), 190);
        assert!(class_pairs(0).is_empty() && class_pairs(1).is_empty());
    }

    fn toy() -> Dataset {
        let x = CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0], // class 1
                vec![2.0, 0.0], // class 0
                vec![3.0, 0.0], // class 2
                vec![4.0, 0.0], // class 0
                vec![5.0, 0.0], // class 1
            ],
            2,
        );
        Dataset::new(x, vec![1, 0, 2, 0, 1])
    }

    #[test]
    fn decompose_layout() {
        let d = toy();
        let (grouped, offsets, map, problems) = decompose(&d);
        assert_eq!(offsets, vec![0, 2, 4, 5]);
        assert_eq!(map, vec![1, 3, 0, 4, 2]);
        assert_eq!(problems.len(), 3);
        // Problem (0,1): classes 0 (grouped 0..2) then 1 (grouped 2..4).
        let p01 = &problems[0];
        assert_eq!((p01.s, p01.t), (0, 1));
        assert_eq!(p01.y, vec![1.0, 1.0, -1.0, -1.0]);
        assert_eq!(p01.original_index, vec![1, 3, 0, 4]);
        // Grouped feature rows consistent with labels.
        assert_eq!(grouped.y, vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn grouped_rows_slice() {
        let d = toy();
        let (_, offsets, _, problems) = decompose(&d);
        let p02 = &problems[1];
        assert_eq!((p02.s, p02.t), (0, 2));
        assert_eq!(p02.grouped_rows(&offsets), vec![0, 1, 4]);
        assert_eq!(p02.n(), 3);
        assert_eq!(p02.y, vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn binary_dataset_single_pair() {
        let x = CsrMatrix::from_dense(&[vec![1.0], vec![2.0]], 1);
        let d = Dataset::new(x, vec![0, 1]);
        let (_, _, _, problems) = decompose(&d);
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].y, vec![1.0, -1.0]);
    }
}
