//! Property-based tests for the CSR substrate.
#![allow(clippy::needless_range_loop)] // parallel-array indexing

use gmp_sparse::{ops, CsrMatrix};
use proptest::prelude::*;

/// Strategy: a small dense matrix with controlled sparsity.
fn dense_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            proptest::collection::vec(prop_oneof![3 => Just(0.0), 2 => -10.0..10.0f64], c),
            r,
        )
    })
}

proptest! {
    #[test]
    fn dense_roundtrip(d in dense_matrix(8, 8)) {
        let ncols = d[0].len();
        let m = CsrMatrix::from_dense(&d, ncols);
        prop_assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn dot_sparse_matches_dense(d in dense_matrix(6, 10)) {
        let ncols = d[0].len();
        let m = CsrMatrix::from_dense(&d, ncols);
        for i in 0..m.nrows() {
            for j in 0..m.nrows() {
                let brute: f64 = d[i].iter().zip(&d[j]).map(|(a, b)| a * b).sum();
                let got = m.row(i).dot_sparse(&m.row(j));
                prop_assert!((got - brute).abs() < 1e-9, "({},{}) {} vs {}", i, j, got, brute);
            }
        }
    }

    #[test]
    fn dot_is_symmetric(d in dense_matrix(6, 6)) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        for i in 0..m.nrows() {
            for j in 0..m.nrows() {
                prop_assert_eq!(
                    m.row(i).dot_sparse(&m.row(j)),
                    m.row(j).dot_sparse(&m.row(i))
                );
            }
        }
    }

    #[test]
    fn norms_nonnegative_and_match_self_dot(d in dense_matrix(6, 6)) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        let norms = m.row_norms_sq();
        for i in 0..m.nrows() {
            prop_assert!(norms[i] >= 0.0);
            prop_assert!((norms[i] - m.row(i).dot_sparse(&m.row(i))).abs() < 1e-9);
        }
    }

    #[test]
    fn block_product_agrees_with_pairwise(d in dense_matrix(6, 6)) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        let rows: Vec<usize> = (0..m.nrows()).collect();
        let block = ops::row_block_product(&m, &rows);
        for (bi, &r) in rows.iter().enumerate() {
            for j in 0..m.nrows() {
                let expect = m.row(r).dot_sparse(&m.row(j));
                prop_assert!((block.get(bi, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn structural_invariants_hold(d in dense_matrix(8, 8)) {
        // Column indices strictly increasing within each row, every index
        // in bounds, and per-row extents consistent with the total nnz
        // (i.e. the indptr array is monotone and ends at nnz).
        let m = CsrMatrix::from_dense(&d, d[0].len());
        let mut total = 0usize;
        for i in 0..m.nrows() {
            let r = m.row(i);
            for w in r.indices.windows(2) {
                prop_assert!(w[0] < w[1], "row {} not strictly sorted: {:?}", i, r.indices);
            }
            for &c in r.indices {
                prop_assert!((c as usize) < m.ncols());
            }
            prop_assert_eq!(r.nnz(), m.row_nnz(i));
            total += r.nnz();
        }
        prop_assert_eq!(total, m.nnz());
    }

    #[test]
    fn transpose_matches_dense_transpose(d in dense_matrix(7, 9)) {
        let ncols = d[0].len();
        let m = CsrMatrix::from_dense(&d, ncols);
        let t = m.transpose();
        prop_assert_eq!(t.nrows(), m.ncols());
        prop_assert_eq!(t.ncols(), m.nrows());
        prop_assert_eq!(t.nnz(), m.nnz());
        let td = t.to_dense();
        for i in 0..m.nrows() {
            for j in 0..ncols {
                prop_assert_eq!(td[j][i], d[i][j], "mismatch at ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn transpose_is_involutive(d in dense_matrix(8, 8)) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn columns_is_the_cached_transpose(d in dense_matrix(7, 9)) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        let copy = m.clone();
        // The transpose, less its trailing empty rows (columns that store
        // nothing past the last stored one).
        let (cols, t) = (m.columns(), m.transpose());
        prop_assert_eq!(cols.ncols(), t.ncols());
        for c in 0..t.nrows() {
            let want = t.row(c);
            if c < cols.nrows() {
                prop_assert_eq!(cols.row(c).indices, want.indices);
                prop_assert_eq!(cols.row(c).values, want.values);
            } else {
                prop_assert_eq!(want.nnz(), 0);
            }
        }
        prop_assert!(cols.nrows() == 0 || cols.row(cols.nrows() - 1).nnz() > 0);
        prop_assert!(std::ptr::eq(m.columns(), m.columns()));
        prop_assert_eq!(&m, &copy);
        let recopy = m.clone();
        prop_assert_eq!(&recopy, &copy);
        prop_assert_eq!(recopy.columns(), copy.columns());
    }

    #[test]
    fn select_rows_preserves_content(d in dense_matrix(8, 5), seed in 0u64..1000) {
        let m = CsrMatrix::from_dense(&d, d[0].len());
        // Deterministic pseudo-random subset from the seed.
        let rows: Vec<usize> = (0..m.nrows())
            .filter(|i| (seed >> (i % 16)) & 1 == 1)
            .collect();
        let s = m.select_rows(&rows);
        prop_assert_eq!(s.nrows(), rows.len());
        for (si, &r) in rows.iter().enumerate() {
            prop_assert_eq!(s.row(si).indices, m.row(r).indices);
            prop_assert_eq!(s.row(si).values, m.row(r).values);
        }
    }
}
