//! Small dense row-major matrix used for kernel-row blocks and the dense
//! baseline (GPUSVM-like) data representation.

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero-filled `nrows x ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense data length mismatch");
        DenseMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] = v;
    }

    /// The full backing slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The full backing slice (row-major), mutable: split it on row
    /// boundaries (`ncols` values) to fill rows in parallel.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshape in place to `nrows x ncols`, zero-filled, reusing the
    /// backing allocation when it is large enough. This is the hot-path
    /// primitive behind allocation-free row scratch buffers: once grown to
    /// its steady-state shape, `reset` never touches the allocator.
    pub fn reset(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
    }

    /// Heap footprint in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Dot product of two equally-sized dense vectors.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn from_vec_layout() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice().len(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_rejects_bad_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn row_mut_updates() {
        let mut m = DenseMatrix::zeros(1, 2);
        m.row_mut(0).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m.get(0, 1), 8.0);
    }

    #[test]
    fn dense_dot() {
        assert_eq!(DenseMatrix::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn mem_bytes() {
        assert_eq!(DenseMatrix::zeros(2, 3).mem_bytes(), 48);
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut m = DenseMatrix::zeros(4, 4);
        m.set(3, 3, 9.0);
        let ptr = m.as_slice().as_ptr();
        m.reset(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        // Shrinking reuses the same backing buffer.
        assert_eq!(m.as_slice().as_ptr(), ptr);
        m.reset(8, 8); // growing may reallocate, shape must still be right
        assert_eq!((m.nrows(), m.ncols()), (8, 8));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }
}
