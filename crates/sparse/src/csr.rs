//! Compressed sparse row matrices.

use std::fmt;
use std::sync::OnceLock;

/// Errors produced when constructing or validating a [`CsrMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `indptr` must start at 0, end at `nnz`, and be non-decreasing.
    BadIndptr(String),
    /// A column index is out of bounds for the declared number of columns.
    ColumnOutOfBounds { row: usize, col: u32, ncols: usize },
    /// Column indices within a row must be strictly increasing.
    UnsortedRow { row: usize },
    /// `indices` and `values` must have the same length.
    LengthMismatch { indices: usize, values: usize },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::BadIndptr(msg) => write!(f, "invalid indptr: {msg}"),
            CsrError::ColumnOutOfBounds { row, col, ncols } => {
                write!(f, "row {row}: column {col} out of bounds (ncols={ncols})")
            }
            CsrError::UnsortedRow { row } => {
                write!(f, "row {row}: column indices not strictly increasing")
            }
            CsrError::LengthMismatch { indices, values } => {
                write!(f, "indices length {indices} != values length {values}")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// An immutable CSR (compressed sparse row) matrix of `f64` values.
///
/// Invariants (enforced at construction):
/// * `indptr.len() == nrows + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[nrows] == indices.len() == values.len()`;
/// * every column index is `< ncols`;
/// * column indices are strictly increasing within each row.
///
/// Equality compares the stored entries only, never the cached
/// [`CsrMatrix::columns`] copy.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    /// The transpose, built by the first [`CsrMatrix::columns`] call.
    columns: OnceLock<Box<CsrMatrix>>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.ncols == other.ncols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

/// Borrowed view of a single CSR row: parallel slices of column indices and
/// values, sorted by column.
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    /// Column indices, strictly increasing.
    pub indices: &'a [u32],
    /// Values matching `indices` position-wise.
    pub values: &'a [f64],
}

impl<'a> SparseRow<'a> {
    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Sum of squared values of the row.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Dot product with another sparse row (two-pointer merge).
    pub fn dot_sparse(&self, other: &SparseRow<'_>) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let (a_idx, b_idx) = (self.indices, other.indices);
        while i < a_idx.len() && j < b_idx.len() {
            match a_idx[i].cmp(&b_idx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Dot product against a dense vector indexed by column.
    ///
    /// `dense` must have length at least `ncols` of the parent matrix.
    #[inline]
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&c, &v) in self.indices.iter().zip(self.values) {
            sum += v * dense[c as usize];
        }
        sum
    }

    /// Scatter this row into `dense` (which must be zeroed beforehand or
    /// cleared afterwards with [`SparseRow::clear_scatter`]).
    #[inline]
    pub fn scatter(&self, dense: &mut [f64]) {
        for (&c, &v) in self.indices.iter().zip(self.values) {
            dense[c as usize] = v;
        }
    }

    /// Undo a previous [`SparseRow::scatter`] into `dense`, restoring zeros.
    #[inline]
    pub fn clear_scatter(&self, dense: &mut [f64]) {
        for &c in self.indices {
            dense[c as usize] = 0.0;
        }
    }
}

impl CsrMatrix {
    /// Construct from raw parts, validating all invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, CsrError> {
        if indices.len() != values.len() {
            return Err(CsrError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        if indptr.len() != nrows + 1 {
            return Err(CsrError::BadIndptr(format!(
                "expected length {} got {}",
                nrows + 1,
                indptr.len()
            )));
        }
        if indptr[0] != 0 {
            return Err(CsrError::BadIndptr("must start at 0".into()));
        }
        // indptr.len() == nrows + 1 >= 1 was just established.
        if indptr[nrows] != indices.len() {
            return Err(CsrError::BadIndptr(format!(
                "must end at nnz={} but ends at {}",
                indices.len(),
                indptr[nrows]
            )));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(CsrError::BadIndptr("must be non-decreasing".into()));
            }
        }
        for row in 0..nrows {
            let s = indptr[row];
            let e = indptr[row + 1];
            let mut prev: Option<u32> = None;
            for &c in &indices[s..e] {
                if (c as usize) >= ncols {
                    return Err(CsrError::ColumnOutOfBounds { row, col: c, ncols });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(CsrError::UnsortedRow { row });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            ncols,
            indptr,
            indices,
            values,
            columns: OnceLock::new(),
        })
    }

    /// An empty matrix with `ncols` columns and no rows.
    pub fn empty(ncols: usize) -> Self {
        CsrMatrix {
            ncols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            columns: OnceLock::new(),
        }
    }

    /// Build from dense row-major data, dropping exact zeros.
    pub fn from_dense(rows: &[Vec<f64>], ncols: usize) -> Self {
        let mut b = CsrBuilder::new(ncols);
        for r in rows {
            assert!(r.len() <= ncols, "dense row wider than ncols");
            b.start_row();
            for (c, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    b.push(c as u32, v);
                }
            }
        }
        b.finish()
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of stored entries, `nnz / (nrows * ncols)`; 0 for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.nrows() * self.ncols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row(&self, i: usize) -> SparseRow<'_> {
        let s = self.indptr[i];
        let e = self.indptr[i + 1];
        SparseRow {
            indices: &self.indices[s..e],
            values: &self.values[s..e],
        }
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterate over all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = SparseRow<'_>> + '_ {
        (0..self.nrows()).map(move |i| self.row(i))
    }

    /// Squared Euclidean norm of every row.
    pub fn row_norms_sq(&self) -> Vec<f64> {
        self.rows().map(|r| r.norm_sq()).collect()
    }

    /// A new matrix containing the given rows (in the given order).
    ///
    /// This is how binary one-vs-one subproblems materialize their training
    /// subsets when *not* using the shared-kernel layout.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let nnz: usize = rows.iter().map(|&r| self.row_nnz(r)).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0usize);
        for &r in rows {
            let row = self.row(r);
            indices.extend_from_slice(row.indices);
            values.extend_from_slice(row.values);
            indptr.push(indices.len());
        }
        CsrMatrix {
            ncols: self.ncols,
            indptr,
            indices,
            values,
            columns: OnceLock::new(),
        }
    }

    /// Densify into row-major storage (tests / dense baselines only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        (0..self.nrows())
            .map(|i| {
                let mut d = vec![0.0; self.ncols];
                self.row(i).scatter(&mut d);
                d
            })
            .collect()
    }

    /// Transpose: the `ncols x nrows` matrix with rows and columns swapped.
    ///
    /// Counting sort over columns, `O(nnz + ncols)`. The result is built
    /// directly (no re-validation): scanning rows in increasing order writes
    /// strictly increasing row ids into each transposed row, and the
    /// counting pass makes the new `indptr` exact by construction.
    pub fn transpose(&self) -> CsrMatrix {
        self.transpose_first(self.ncols)
    }

    /// [`CsrMatrix::transpose`] keeping only the first `cols` columns as
    /// rows; `cols` must exceed every stored column index.
    fn transpose_first(&self, cols: usize) -> CsrMatrix {
        let nrows = self.nrows();
        debug_assert!(nrows <= u32::MAX as usize, "row ids must fit in u32");
        let mut indptr = vec![0usize; cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..cols {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr.clone(); // next write slot per transposed row
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for row in 0..nrows {
            let r = self.row(row);
            for (&c, &v) in r.indices.iter().zip(r.values) {
                let slot = next[c as usize];
                indices[slot] = row as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        CsrMatrix {
            ncols: nrows,
            indptr,
            indices,
            values,
            columns: OnceLock::new(),
        }
    }

    /// The column view: [`CsrMatrix::transpose`], built on the first call
    /// and kept for the matrix's lifetime, so row `c` lists every row that
    /// stores feature `c`, in increasing row order. The kernel backend
    /// walks it to touch only the targets a source row's nonzeros reach.
    ///
    /// It has one row per column up to the largest stored one, not per
    /// declared column: a claimed width never sizes it, and a feature past
    /// its last row meets only zeros here, so walkers skip it.
    pub fn columns(&self) -> &CsrMatrix {
        self.columns.get_or_init(|| {
            let stored = self.indices.iter().max().map_or(0, |&c| c as usize + 1);
            Box::new(self.transpose_first(stored))
        })
    }

    /// Approximate heap footprint in bytes (used by the device-memory
    /// accounting when a dataset is "copied to the GPU").
    pub fn mem_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

/// Incremental row-by-row builder for [`CsrMatrix`].
///
/// Columns must be pushed in strictly increasing order within a row; this is
/// checked with `debug_assert!` in release-hot paths and validated fully by
/// [`CsrBuilder::finish`].
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// A builder for a matrix with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        CsrBuilder {
            ncols,
            indptr: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Reserve room for `nnz` additional entries.
    pub fn reserve(&mut self, nnz: usize) {
        self.indices.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Begin a new (initially empty) row.
    pub fn start_row(&mut self) {
        // `indptr` holds the start offset of each row; finish() appends the
        // trailing nnz marker.
        self.indptr.push(self.indices.len());
    }

    /// Append an entry to the current row.
    ///
    /// # Panics
    /// Panics (debug) if no row has been started or ordering is violated.
    #[inline]
    pub fn push(&mut self, col: u32, value: f64) {
        debug_assert!(!self.indptr.is_empty(), "start_row before push");
        debug_assert!((col as usize) < self.ncols, "column out of bounds");
        if let (Some(&last), Some(&row_start)) = (self.indices.last(), self.indptr.last()) {
            if self.indices.len() > row_start {
                debug_assert!(col > last, "columns must be strictly increasing");
            }
        }
        self.indices.push(col);
        self.values.push(value);
    }

    /// Number of rows started so far.
    pub fn rows_started(&self) -> usize {
        self.indptr.len()
    }

    /// Validate and produce the matrix.
    pub fn finish(mut self) -> CsrMatrix {
        self.indptr.push(self.indices.len());
        // `indptr` currently holds starts of each row (first element 0) and
        // the final nnz; that is exactly the CSR indptr.
        CsrMatrix::from_parts(
            self.indptr.len() - 1,
            self.ncols,
            self.indptr,
            self.indices,
            self.values,
        )
        // gmp:allow-panic — the builder maintains every CSR invariant by
        // construction (ordering is debug-asserted in push); a failure here
        // is a CsrBuilder bug, not caller input, so re-validation panics.
        .expect("CsrBuilder produced invalid matrix")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 4);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn row_views() {
        let m = sample();
        let r0 = m.row(0);
        assert_eq!(r0.indices, &[0, 2]);
        assert_eq!(r0.values, &[1.0, 2.0]);
        assert_eq!(m.row(1).nnz(), 0);
        assert_eq!(m.row_nnz(2), 2);
    }

    #[test]
    fn dot_products() {
        let m = sample();
        // row0 . row2 = 1*3 + 0 + 0 = 3
        assert_eq!(m.row(0).dot_sparse(&m.row(2)), 3.0);
        assert_eq!(m.row(0).dot_sparse(&m.row(1)), 0.0);
        assert_eq!(m.row(0).dot_dense(&[1.0, 1.0, 1.0]), 3.0);
        assert_eq!(m.row(0).norm_sq(), 5.0);
    }

    #[test]
    fn scatter_roundtrip() {
        let m = sample();
        let mut d = vec![0.0; 3];
        m.row(2).scatter(&mut d);
        assert_eq!(d, vec![3.0, 4.0, 0.0]);
        m.row(2).clear_scatter(&mut d);
        assert_eq!(d, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn builder_matches_from_parts() {
        let mut b = CsrBuilder::new(3);
        b.start_row();
        b.push(0, 1.0);
        b.push(2, 2.0);
        b.start_row();
        b.start_row();
        b.push(0, 3.0);
        b.push(1, 4.0);
        assert_eq!(b.rows_started(), 3);
        assert_eq!(b.finish(), sample());
    }

    #[test]
    fn from_dense_drops_zeros() {
        let m = CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0, 2.0],
                vec![0.0, 0.0, 0.0],
                vec![3.0, 4.0, 0.0],
            ],
            3,
        );
        assert_eq!(m, sample());
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(CsrMatrix::from_dense(&d, 3), m);
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row(0).values, m.row(2).values);
        assert_eq!(s.row(1).values, m.row(0).values);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]),
            Err(CsrError::ColumnOutOfBounds { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]),
            Err(CsrError::UnsortedRow { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_parts(1, 3, vec![0], vec![], vec![]),
            Err(CsrError::BadIndptr(_))
        ));
        assert!(matches!(
            CsrMatrix::from_parts(1, 3, vec![0, 1], vec![0], vec![]),
            Err(CsrError::LengthMismatch { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_parts(2, 3, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]),
            Err(CsrError::BadIndptr(_))
        ));
    }

    #[test]
    fn transpose_sample() {
        let m = sample();
        let t = m.transpose();
        // [ 1 0 3 ]
        // [ 0 0 4 ]
        // [ 2 0 0 ]
        assert_eq!(
            t.to_dense(),
            vec![
                vec![1.0, 0.0, 3.0],
                vec![0.0, 0.0, 4.0],
                vec![2.0, 0.0, 0.0],
            ]
        );
        assert_eq!(t.transpose(), m);
        // Rows (former columns) stay sorted even with an empty column.
        let e = CsrMatrix::empty(4).transpose();
        assert_eq!(e.nrows(), 4);
        assert_eq!(e.nnz(), 0);
    }

    #[test]
    fn columns_is_the_cached_transpose() {
        let m = sample();
        let first = m.columns();
        assert_eq!(*first, m.transpose());
        assert!(std::ptr::eq(first, m.columns()), "second call rebuilt");
        // Sized by the stored columns, not the declared width.
        assert_eq!(CsrMatrix::empty(2).columns().nrows(), 0);
        let wide = CsrMatrix::from_dense(&[vec![0.0, 1.5, 0.0, 0.0]], 4);
        assert_eq!(wide.columns().nrows(), 2);
        assert_eq!(wide.columns().row(1).values, &[1.5]);
    }

    #[test]
    fn equality_ignores_the_cached_columns() {
        let built = sample();
        built.columns();
        let fresh = sample();
        assert_eq!(built, fresh);
        assert_eq!(fresh, built);
        assert_eq!(built.clone(), fresh.clone());
        assert_eq!(*built.clone().columns(), *fresh.columns());
        assert_ne!(built, built.select_rows(&[0, 1]));
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(10);
        assert_eq!(m.nrows(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.row_norms_sq(), Vec::<f64>::new());
    }

    #[test]
    fn mem_bytes_counts_storage() {
        let m = sample();
        let expected = 4 * std::mem::size_of::<usize>()
            + 4 * std::mem::size_of::<u32>()
            + 4 * std::mem::size_of::<f64>();
        assert_eq!(m.mem_bytes(), expected);
    }
}
