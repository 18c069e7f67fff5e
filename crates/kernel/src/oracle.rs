//! The kernel-value oracle: computes rows (and row segments) of the kernel
//! matrix on demand, counting every evaluation.

use crate::functions::KernelKind;
use gmp_backend::{ComputeBackend, ComputeBackendKind, KernelContext};
use gmp_gpusim::Executor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Computes kernel values over a fixed dataset.
///
/// Row `i` of the kernel matrix is `K(x_i, x_j)` for all `j`; the oracle
/// computes batches of rows as one "launch" (one [`Executor::charge`]) —
/// the cuSPARSE-style batched product of §3.3.1. The numeric loops and the
/// launch accounting live behind a pluggable [`ComputeBackend`]; the oracle
/// owns the monotone `kernel_evals` counter — the hardware-independent
/// ground truth behind every speedup claim — and reconciles it against the
/// owner-attributed counts each backend call returns (exactly
/// `rows × width`, audited under `debug-invariants`).
pub struct KernelOracle {
    data: Arc<CsrMatrix>,
    kind: KernelKind,
    norms: Vec<f64>,
    diag: Vec<f64>,
    host_threads: usize,
    backend: Arc<dyn ComputeBackend>,
    kernel_evals: AtomicU64,
}

impl KernelOracle {
    /// Build an oracle over `data` (norms and diagonal precomputed). The
    /// compute backend defaults to the `GMP_BACKEND` selection.
    ///
    /// Every stored value must be finite: that is the precondition under
    /// which all backends agree bit for bit (audited under
    /// `debug-invariants`).
    pub fn new(data: Arc<CsrMatrix>, kind: KernelKind) -> Self {
        gmp_sync::audit!(assert!(
            data.rows().all(|r| r.values.iter().all(|v| v.is_finite())),
            "kernel oracle dataset holds a non-finite value"
        ));
        let norms = data.row_norms_sq();
        let diag = norms.iter().map(|&n2| kind.self_eval(n2)).collect();
        KernelOracle {
            data,
            kind,
            norms,
            diag,
            host_threads: 1,
            backend: ComputeBackendKind::from_env().instance(),
            kernel_evals: AtomicU64::new(0),
        }
    }

    /// Use `threads` host threads for the actual numeric work (the CPU
    /// backends' real parallelism; accounting is unaffected).
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Execute the numeric hot ops on the given compute backend.
    pub fn with_backend(mut self, backend: Arc<dyn ComputeBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The compute backend executing this oracle's hot ops.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.data.nrows()
    }

    /// The dataset the oracle evaluates over.
    pub fn data(&self) -> &Arc<CsrMatrix> {
        &self.data
    }

    /// The kernel function.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// `K(x_i, x_i)`.
    #[inline]
    pub fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    /// Squared norm of instance `i`.
    #[inline]
    pub fn norm_sq(&self, i: usize) -> f64 {
        self.norms[i]
    }

    /// Total kernel values computed so far.
    pub fn eval_count(&self) -> u64 {
        self.kernel_evals.load(Ordering::Relaxed)
    }

    /// The backend view of this oracle's dataset.
    fn ctx(&self) -> KernelContext<'_> {
        KernelContext {
            data: &self.data,
            norms: &self.norms,
            kind: self.kind,
            host_threads: self.host_threads,
        }
    }

    /// One kernel value (used by tests and the classic solver's eta terms
    /// when rows are unavailable). Counted.
    pub fn eval_pair(&self, i: usize, j: usize) -> f64 {
        self.kernel_evals.fetch_add(1, Ordering::Relaxed);
        let dot = self.data.row(i).dot_sparse(&self.data.row(j));
        self.kind.eval(dot, self.norms[i], self.norms[j])
    }

    /// Compute full kernel rows for `row_ids` into `out` (shape
    /// `row_ids.len() x n`), charged to `exec` as **one** batched launch.
    /// Returns the kernel values computed.
    pub fn compute_rows(
        &self,
        exec: &dyn Executor,
        row_ids: &[usize],
        out: &mut DenseMatrix,
    ) -> u64 {
        self.compute_rows_range(exec, row_ids, 0..self.n(), out)
    }

    /// Compute the kernel segment `K(x_r, x_j)` for `r` in `row_ids`,
    /// `j` in `cols`, into `out` (shape `row_ids.len() x cols.len()`).
    /// Returns the kernel values computed (`row_ids.len() * cols.len()`).
    ///
    /// This is the class-segment primitive of the shared store (Fig. 3).
    pub fn compute_rows_range(
        &self,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: std::ops::Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64 {
        let expected = (row_ids.len() * cols.len()) as u64;
        let evals = self
            .backend
            .batch_kernel_rows(&self.ctx(), exec, row_ids, cols, out);
        gmp_sync::audit!(assert_eq!(
            evals,
            expected,
            "backend {} misreported batch eval count",
            self.backend.name()
        ));
        self.kernel_evals.fetch_add(evals, Ordering::Relaxed);
        evals
    }

    /// Kernel values of rows of `other` against every instance of this
    /// oracle's dataset (prediction: test instances x support vectors).
    /// Charged as one batched launch; returns the kernel values computed.
    ///
    /// Squared norms of the requested rows are computed once up front; use
    /// [`KernelOracle::compute_cross_with_norms`] to amortize them across
    /// calls (prediction chunks, per-binary sweeps).
    pub fn compute_cross(
        &self,
        exec: &dyn Executor,
        other: &CsrMatrix,
        other_rows: &[usize],
        out: &mut DenseMatrix,
    ) -> u64 {
        // Norms of the requested rows only, indexed by global row id.
        let mut other_norms = vec![0.0; other.nrows()];
        for &r in other_rows {
            other_norms[r] = other.row(r).norm_sq();
        }
        self.compute_cross_with_norms(exec, other, other_rows, &other_norms, out)
    }

    /// [`KernelOracle::compute_cross`] with the squared norms of `other`'s
    /// rows precomputed by the caller (`other_norms[r]` for every `r` in
    /// `other_rows`) — callers that sweep many chunks or many binary SVMs
    /// over the same test set compute the norms exactly once instead of
    /// once per call. Returns the kernel values computed
    /// (`other_rows.len() * n`).
    pub fn compute_cross_with_norms(
        &self,
        exec: &dyn Executor,
        other: &CsrMatrix,
        other_rows: &[usize],
        other_norms: &[f64],
        out: &mut DenseMatrix,
    ) -> u64 {
        let expected = (other_rows.len() * self.n()) as u64;
        let evals =
            self.backend
                .test_sv_matrix(&self.ctx(), exec, other, other_rows, other_norms, out);
        gmp_sync::audit!(assert_eq!(
            evals,
            expected,
            "backend {} misreported cross eval count",
            self.backend.name()
        ));
        self.kernel_evals.fetch_add(evals, Ordering::Relaxed);
        evals
    }

    /// Decision values gathered from a computed kernel block — see
    /// [`ComputeBackend::score_rows`]. Routed through the oracle so
    /// prediction paths use the same backend instance as row computation.
    pub fn score_rows(
        &self,
        exec: &dyn Executor,
        block: &DenseMatrix,
        scorers: &[gmp_backend::RowScorer<'_>],
        out: &mut [Vec<f64>],
    ) {
        self.backend
            .score_rows(exec, block, scorers, self.host_threads, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_backend::BlockedBackend;
    use gmp_gpusim::CpuExecutor;

    fn exec() -> CpuExecutor {
        CpuExecutor::xeon(1)
    }

    fn toy_data() -> Arc<CsrMatrix> {
        Arc::new(CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![2.0, 0.0],
            ],
            2,
        ))
    }

    #[test]
    fn non_finite_data_trips_the_audit() {
        let data = Arc::new(CsrMatrix::from_dense(&[vec![1.0, f64::NAN]], 2));
        let built = std::panic::catch_unwind(|| KernelOracle::new(data, KernelKind::Linear));
        assert_eq!(built.is_err(), gmp_sync::AUDIT);
    }

    #[test]
    fn rbf_row_matches_pairwise() {
        let o = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.5 });
        let e = exec();
        let mut out = DenseMatrix::zeros(1, 4);
        o.compute_rows(&e, &[0], &mut out);
        for j in 0..4 {
            let brute = o.kind().eval(
                toy_data().row(0).dot_sparse(&toy_data().row(j)),
                o.norm_sq(0),
                o.norm_sq(j),
            );
            assert!((out.get(0, j) - brute).abs() < 1e-12);
        }
        assert_eq!(out.get(0, 0), 1.0); // RBF self
    }

    #[test]
    fn batch_rows_match_single_rows() {
        let o = KernelOracle::new(toy_data(), KernelKind::Linear);
        let e = exec();
        let mut batch = DenseMatrix::zeros(3, 4);
        o.compute_rows(&e, &[0, 2, 3], &mut batch);
        for (bi, &r) in [0usize, 2, 3].iter().enumerate() {
            let mut single = DenseMatrix::zeros(1, 4);
            o.compute_rows(&e, &[r], &mut single);
            assert_eq!(batch.row(bi), single.row(0));
        }
    }

    #[test]
    fn range_is_slice_of_full_row() {
        let o = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 1.0 });
        let e = exec();
        let mut full = DenseMatrix::zeros(1, 4);
        o.compute_rows(&e, &[2], &mut full);
        let mut part = DenseMatrix::zeros(1, 2);
        o.compute_rows_range(&e, &[2], 1..3, &mut part);
        assert_eq!(part.get(0, 0), full.get(0, 1));
        assert_eq!(part.get(0, 1), full.get(0, 2));
    }

    #[test]
    fn eval_counter_tracks_values() {
        let o = KernelOracle::new(toy_data(), KernelKind::Linear);
        let e = exec();
        let mut out = DenseMatrix::zeros(2, 4);
        let evals = o.compute_rows(&e, &[0, 1], &mut out);
        assert_eq!(evals, 8);
        assert_eq!(o.eval_count(), 8);
        o.eval_pair(0, 1);
        assert_eq!(o.eval_count(), 9);
    }

    #[test]
    fn diag_matches_self_eval() {
        let o = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.3 });
        for i in 0..4 {
            assert_eq!(o.diag(i), 1.0);
        }
        let lin = KernelOracle::new(toy_data(), KernelKind::Linear);
        assert_eq!(lin.diag(3), 4.0);
    }

    #[test]
    fn cross_matches_within_dataset() {
        let data = toy_data();
        let o = KernelOracle::new(data.clone(), KernelKind::Rbf { gamma: 0.7 });
        let e = exec();
        // Cross of the same matrix row 1 must equal compute_rows of row 1.
        let mut cross = DenseMatrix::zeros(1, 4);
        let evals = o.compute_cross(&e, &data, &[1], &mut cross);
        assert_eq!(evals, 4);
        let mut direct = DenseMatrix::zeros(1, 4);
        o.compute_rows(&e, &[1], &mut direct);
        for j in 0..4 {
            assert!((cross.get(0, j) - direct.get(0, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn multithreaded_matches_single_threaded() {
        let o1 = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.5 });
        let o4 = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.5 }).with_host_threads(4);
        let e = exec();
        let mut a = DenseMatrix::zeros(4, 4);
        let mut b = DenseMatrix::zeros(4, 4);
        o1.compute_rows(&e, &[0, 1, 2, 3], &mut a);
        o4.compute_rows(&e, &[0, 1, 2, 3], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn blocked_backend_is_bit_identical_through_the_oracle() {
        let scalar = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.5 });
        let blocked = KernelOracle::new(toy_data(), KernelKind::Rbf { gamma: 0.5 })
            .with_backend(Arc::new(BlockedBackend));
        assert_eq!(blocked.backend_name(), "blocked");
        let (ea, eb) = (exec(), exec());
        let mut a = DenseMatrix::zeros(4, 4);
        let mut b = DenseMatrix::zeros(4, 4);
        scalar.compute_rows(&ea, &[0, 1, 2, 3], &mut a);
        blocked.compute_rows(&eb, &[0, 1, 2, 3], &mut b);
        assert_eq!(a, b);
        assert_eq!(scalar.eval_count(), blocked.eval_count());
        // Identical simulated cost: the cost model describes the modeled
        // device, not the backend's host loop structure.
        assert_eq!(ea.elapsed().to_bits(), eb.elapsed().to_bits());
    }

    #[test]
    fn batched_launch_cheaper_than_singles_on_gpu() {
        use gmp_gpusim::{Device, DeviceConfig, Stream};
        let o = KernelOracle::new(toy_data(), KernelKind::Linear);
        let dev = Device::new(DeviceConfig::tesla_p100());
        let s_batch = Stream::new(dev.clone(), 1.0);
        let s_single = Stream::new(dev, 1.0);
        let mut out = DenseMatrix::zeros(4, 4);
        o.compute_rows(&s_batch, &[0, 1, 2, 3], &mut out);
        for r in 0..4 {
            let mut one = DenseMatrix::zeros(1, 4);
            o.compute_rows(&s_single, &[r], &mut one);
        }
        assert!(s_batch.elapsed() < s_single.elapsed());
    }
}
