//! Prediction with support-vector and kernel-value sharing (§3.3.3, Fig. 2).

use crate::model::MpSvmModel;
use crate::params::Backend;
use crate::telemetry::PredictReport;
use crate::trainer::{check_finite, resolve_host_threads_opt, TrainError};
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::{Device, Executor};
use gmp_kernel::{ComputeBackendKind, KernelOracle, RowScorer};
use gmp_prob::{couple_gaussian, sigmoid_predict, PairwiseProbs};
use gmp_sparse::{CsrMatrix, DenseMatrix};
use std::sync::Arc;
use std::time::Instant;

/// Prediction results.
#[derive(Debug, Clone)]
pub struct PredictOutcome {
    /// Predicted class per instance.
    pub labels: Vec<u32>,
    /// Multi-class probabilities per instance (rows sum to 1). Empty when
    /// the model has no sigmoids.
    pub probabilities: Vec<Vec<f64>>,
    /// Decision values per instance per binary SVM (pair-enumeration
    /// order) — the Table 4 comparison quantity.
    pub decision_values: Vec<Vec<f64>>,
    /// Timings and counters.
    pub report: PredictReport,
}

impl MpSvmModel {
    /// Predict labels (and probabilities, when the model has sigmoids) for
    /// every row of `test`, on the default host threads and compute
    /// backend. For other settings, or to score many batches with one
    /// model, use [`PreparedPredictor`]: both run the same code.
    ///
    /// Backend selects the execution/cost model **and** the sharing
    /// strategy: GMP-SVM and CMP-SVM compute the test-by-SV kernel block
    /// once for all binary SVMs (support-vector sharing); the LibSVM-like
    /// and GPU-baseline paths score one binary SVM at a time against its
    /// own support vectors, recomputing kernel values for shared SVs.
    pub fn predict(
        &self,
        test: &CsrMatrix,
        backend: &Backend,
    ) -> Result<PredictOutcome, TrainError> {
        let wall = Instant::now();
        ScoringPlan::new(self, backend.clone()).predict(self, test, wall)
    }
}

/// The one prediction path: one prepared [`KernelOracle`] per scoring
/// group, plus the settings every call scores with.
struct ScoringPlan {
    backend: Backend,
    compute: ComputeBackendKind,
    host_threads: usize,
    /// The sharing backends (GMP, CMP-SVM) have one group over the whole SV
    /// pool; the unshared ones (LibSVM, GPU baseline) one per binary with
    /// support vectors. Empty when the pool is.
    groups: Vec<ScoringGroup>,
}

struct ScoringGroup {
    oracle: KernelOracle,
    /// `None`: the whole SV pool, every binary gathering its own columns.
    /// `Some(bi)`: binary `bi` alone, whose SV list is the oracle's rows.
    binary: Option<usize>,
}

impl ScoringPlan {
    /// Prepare `model`'s groups for `backend`, on the default host threads
    /// (`GMP_HOST_THREADS`, else available parallelism) and compute backend
    /// (`GMP_BACKEND`, else scalar).
    fn new(model: &MpSvmModel, backend: Backend) -> Self {
        let host_threads = resolve_host_threads_opt(None);
        let compute = ComputeBackendKind::from_env();
        let prepare = |svs: CsrMatrix, binary: Option<usize>| {
            let oracle = KernelOracle::new(Arc::new(svs), model.kernel)
                .with_host_threads(host_threads)
                .with_backend(compute.instance());
            // Build the column view now, so no scoring call pays for it.
            oracle.data().columns();
            ScoringGroup { oracle, binary }
        };
        let groups = if model.sv_pool.nrows() == 0 {
            Vec::new()
        } else if backend.shares_kernel_values() {
            vec![prepare(model.sv_pool.clone(), None)]
        } else {
            model
                .binaries
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.sv_idx.is_empty())
                .map(|(bi, b)| {
                    let rows: Vec<usize> = b.sv_idx.iter().map(|&i| i as usize).collect();
                    prepare(model.sv_pool.select_rows(&rows), Some(bi))
                })
                .collect()
        };
        ScoringPlan {
            backend,
            compute,
            host_threads,
            groups,
        }
    }

    /// The same groups, scoring on `host_threads` real threads and the
    /// `compute` backend.
    fn configure(mut self, host_threads: usize, compute: ComputeBackendKind) -> Self {
        self.groups = std::mem::take(&mut self.groups)
            .into_iter()
            .map(|g| ScoringGroup {
                oracle: g
                    .oracle
                    .with_host_threads(host_threads)
                    .with_backend(compute.instance()),
                ..g
            })
            .collect();
        ScoringPlan {
            host_threads,
            compute,
            ..self
        }
    }

    /// Score `test`; the report's wall time runs from `wall`.
    fn predict(
        &self,
        model: &MpSvmModel,
        test: &CsrMatrix,
        wall: Instant,
    ) -> Result<PredictOutcome, TrainError> {
        if test.ncols() != model.sv_pool.ncols() {
            return Err(TrainError::DimensionMismatch {
                model: model.sv_pool.ncols(),
                test: test.ncols(),
            });
        }
        check_finite(test)?;
        let m = test.nrows();
        let k = model.classes;
        let n_binaries = model.binaries.len();
        let ht = self.host_threads;

        let device = self.backend.device();
        let exec = self.backend.executor(device.as_ref(), 1.0);
        let exec = &*exec;

        // A binary no group scores (no support vectors) keeps `-rho`, with
        // no launch: `0.0 - rho` would flip the sign bit at `rho = 0`.
        let mut decision_values: Vec<Vec<f64>> =
            vec![model.binaries.iter().map(|b| -b.rho).collect(); m];
        let sim_decision_start = exec.elapsed();
        let kernel_evals = if m > 0 {
            self.decide(model, test, exec, device.as_ref(), &mut decision_values)?
        } else {
            0
        };
        let sim_decision_s = exec.elapsed() - sim_decision_start;

        // --- Sigmoids (Equation 12).
        let sim_sigmoid_start = exec.elapsed();
        let has_prob = model.has_probability();
        let mut pairwise: Vec<PairwiseProbs> = Vec::new();
        if has_prob && m > 0 {
            // Per-instance sigmoid application is embarrassingly parallel;
            // each slot is written by exactly one thread.
            pairwise = vec![PairwiseProbs::new(k.max(2)); m];
            for_each_chunk(ht, 1, &mut pairwise, |first, piece| {
                for (dv, r) in decision_values[first..].iter().zip(piece) {
                    for (bi, b) in model.binaries.iter().enumerate() {
                        // gmp:allow-panic — guarded: has_probability() was checked by the caller of this path
                        let sig = b.sigmoid.as_ref().expect("has_probability checked");
                        r.set(b.s as usize, b.t as usize, sigmoid_predict(dv[bi], sig));
                    }
                }
            });
            exec.charge(KernelCost::map((m * n_binaries) as u64, 8, 16));
        }
        let sim_sigmoid_s = exec.elapsed() - sim_sigmoid_start;

        // --- Coupling (Problem 14 via Equation 15) + labels.
        let sim_coupling_start = exec.elapsed();
        let mut probabilities: Vec<Vec<f64>> = Vec::new();
        let labels: Vec<u32> = if has_prob && m > 0 {
            // One Gaussian elimination (k³/3 flops) per instance, all
            // instances in parallel on the device (§3.2 Phase iii) — and
            // genuinely in parallel on the host.
            exec.charge(KernelCost::map(
                m as u64,
                ((k * k * k) / 3).max(1) as u64,
                (k * k * 8) as u64,
            ));
            probabilities = vec![Vec::new(); m];
            for_each_chunk(ht, 1, &mut probabilities, |first, piece| {
                for (pw, slot) in pairwise[first..].iter().zip(piece) {
                    *slot = couple_gaussian(pw);
                }
            });
            probabilities.iter().map(|p| argmax(p) as u32).collect()
        } else {
            // One-against-one voting.
            decision_values
                .iter()
                .map(|dv| {
                    let mut votes = vec![0u32; k.max(1)];
                    for (bi, b) in model.binaries.iter().enumerate() {
                        if dv[bi] > 0.0 {
                            votes[b.s as usize] += 1;
                        } else {
                            votes[b.t as usize] += 1;
                        }
                    }
                    argmax(&votes) as u32
                })
                .collect()
        };
        let sim_coupling_s = exec.elapsed() - sim_coupling_start;

        let report = PredictReport {
            backend: self.backend.label(),
            compute_backend: self.compute.name().to_string(),
            wall_s: wall.elapsed().as_secs_f64(),
            sim_s: exec.elapsed(),
            kernel_evals,
            unique_svs: model.n_sv(),
            total_sv_refs: model.total_sv_refs(),
            sim_decision_s,
            sim_sigmoid_s,
            sim_coupling_s,
            host_threads: ht,
        };
        Ok(PredictOutcome {
            labels,
            probabilities,
            decision_values,
            report,
        })
    }

    /// Decision values of every test row into `out`: for each group, the
    /// SVs' device residency, then the test rows in chunks, one kernel
    /// block and one fused scoring launch per chunk. Returns the kernel
    /// values computed.
    fn decide(
        &self,
        model: &MpSvmModel,
        test: &CsrMatrix,
        exec: &dyn Executor,
        device: Option<&Device>,
        out: &mut [Vec<f64>],
    ) -> Result<u64, TrainError> {
        let m = test.nrows();
        // Squared norms of every test row, once for all groups and chunks.
        let test_norms = test.row_norms_sq();
        let mut evals = 0u64;
        for group in &self.groups {
            let oracle = &group.oracle;
            let n_sv = oracle.n();
            // Device residency: the group's SVs + one chunk of the kernel block.
            let bytes = oracle.data().mem_bytes() as u64;
            let _sv_mem = device.map(|d| d.alloc(bytes)).transpose()?;
            exec.charge_transfer(bytes);
            let scorers: Vec<RowScorer<'_>> = match group.binary {
                // Every binary scores against the same block: one fused
                // backend launch per chunk for all of them.
                None => model
                    .binaries
                    .iter()
                    .enumerate()
                    .map(|(bi, b)| RowScorer {
                        out_col: bi,
                        sv_idx: Some(&b.sv_idx),
                        coef: &b.coef,
                        rho: b.rho,
                    })
                    .collect(),
                // The block's columns are exactly this binary's SV list, in
                // order: a dense-sweep scorer writing column `bi`.
                Some(bi) => vec![RowScorer {
                    out_col: bi,
                    sv_idx: None,
                    coef: &model.binaries[bi].coef,
                    rho: model.binaries[bi].rho,
                }],
            };
            let chunk = chunk_rows(m, n_sv, device);
            let mut start = 0usize;
            while start < m {
                let end = (start + chunk).min(m);
                let rows: Vec<usize> = (start..end).collect();
                let block_bytes = (rows.len() * n_sv * 8) as u64;
                let _block_mem = device.map(|d| d.alloc(block_bytes)).transpose()?;
                let mut block = DenseMatrix::zeros(rows.len(), n_sv);
                evals +=
                    oracle.compute_cross_with_norms(exec, test, &rows, &test_norms, &mut block);
                oracle.score_rows(exec, &block, &scorers, &mut out[start..end]);
                start = end;
            }
        }
        Ok(evals)
    }
}

/// A model prepared for repeated (online) prediction, and the one builder
/// for prediction settings.
///
/// [`MpSvmModel::predict`] prepares its scoring state on every call: the
/// SV copies handed to the kernel oracles (the whole pool for the sharing
/// backends, each binary's SV list for the unshared ones), their squared
/// norms, kernel diagonals and column views ([`CsrMatrix::columns`]). A
/// long-lived server scoring many small batches would pay that setup on
/// every call. `PreparedPredictor` prepares it once and runs the **same**
/// scoring code for every batch, so results are bit-identical to the
/// offline API no matter how requests are batched.
pub struct PreparedPredictor {
    model: Arc<MpSvmModel>,
    plan: ScoringPlan,
}

impl PreparedPredictor {
    /// Prepare `model` for repeated prediction on `backend`, on the default
    /// host threads (`GMP_HOST_THREADS`, else available parallelism) and
    /// compute backend (`GMP_BACKEND`, else scalar).
    pub fn new(model: Arc<MpSvmModel>, backend: Backend) -> Self {
        let plan = ScoringPlan::new(&model, backend);
        PreparedPredictor { model, plan }
    }

    /// Score on `threads` real host threads (`None` = the default). An
    /// explicit value is honoured verbatim, so the multi-threaded path can
    /// be exercised on any machine; results are bit-identical at any count.
    pub fn host_threads(mut self, threads: Option<usize>) -> Self {
        let compute = self.plan.compute;
        self.plan = self
            .plan
            .configure(resolve_host_threads_opt(threads), compute);
        self
    }

    /// Score on the `kind` compute backend.
    pub fn compute_backend(mut self, kind: ComputeBackendKind) -> Self {
        let threads = self.plan.host_threads;
        self.plan = self.plan.configure(threads, kind);
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<MpSvmModel> {
        &self.model
    }

    /// The backend every call scores on.
    pub fn backend(&self) -> &Backend {
        &self.plan.backend
    }

    /// The compute backend every call scores on.
    pub fn compute_kind(&self) -> ComputeBackendKind {
        self.plan.compute
    }

    /// Predict every row of `test` — bit-identical to
    /// [`MpSvmModel::predict`] on the same rows and settings.
    pub fn predict(&self, test: &CsrMatrix) -> Result<PredictOutcome, TrainError> {
        self.plan.predict(&self.model, test, Instant::now())
    }
}

/// Test-chunk size so a kernel block fits in a conservative slice of device
/// memory (or a fixed host budget).
fn chunk_rows(m: usize, n_sv: usize, device: Option<&Device>) -> usize {
    let budget = match device {
        Some(d) => (d.mem_available() / 4).max(1 << 20),
        None => 256 << 20,
    };
    ((budget / (n_sv.max(1) as u64 * 8)) as usize).clamp(1, m.max(1))
}

/// Index of the first largest entry.
fn argmax<T: PartialOrd>(p: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in p.iter().enumerate() {
        if *v > p[best] {
            best = i;
        }
    }
    best
}

/// Classification error rate of predictions against reference labels.
pub fn error_rate(predicted: &[u32], truth: &[u32]) -> f64 {
    assert_eq!(predicted.len(), truth.len());
    if predicted.is_empty() {
        return 0.0;
    }
    let wrong = predicted.iter().zip(truth).filter(|(a, b)| a != b).count();
    wrong as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SvmParams;
    use crate::trainer::MpSvmTrainer;
    use gmp_datasets::BlobSpec;

    fn trained() -> (crate::trainer::TrainOutcome, gmp_datasets::Dataset) {
        let data = BlobSpec {
            n: 120,
            dim: 2,
            classes: 3,
            spread: 0.15,
            seed: 4,
        }
        .generate();
        let out = MpSvmTrainer::new(
            SvmParams::default()
                .with_c(2.0)
                .with_rbf(1.0)
                .with_working_set(32, 16),
            Backend::gmp_default(),
        )
        .train(&data)
        .unwrap();
        (out, data)
    }

    #[test]
    fn predicts_training_set_accurately() {
        let (out, data) = trained();
        let pred = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        let err = error_rate(&pred.labels, &data.y);
        assert!(err < 0.05, "training error {err}");
    }

    #[test]
    fn probabilities_are_distributions() {
        let (out, data) = trained();
        let pred = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        assert_eq!(pred.probabilities.len(), data.n());
        for p in &pred.probabilities {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn label_matches_probability_argmax() {
        let (out, data) = trained();
        let pred = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        for (lbl, p) in pred.labels.iter().zip(&pred.probabilities) {
            let am = argmax(p) as u32;
            assert_eq!(*lbl, am);
        }
    }

    #[test]
    fn shared_and_unshared_paths_agree() {
        let (out, data) = trained();
        let shared = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        let unshared = out
            .model
            .predict(&data.x, &Backend::gpu_baseline_default())
            .unwrap();
        for (a, b) in shared
            .decision_values
            .iter()
            .flatten()
            .zip(unshared.decision_values.iter().flatten())
        {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(shared.labels, unshared.labels);
    }

    #[test]
    fn sharing_computes_fewer_kernel_values() {
        let (out, data) = trained();
        let shared = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        let unshared = out
            .model
            .predict(&data.x, &Backend::gpu_baseline_default())
            .unwrap();
        assert!(
            shared.report.kernel_evals <= unshared.report.kernel_evals,
            "shared {} vs unshared {}",
            shared.report.kernel_evals,
            unshared.report.kernel_evals
        );
        assert!(shared.report.sim_s < unshared.report.sim_s);
    }

    #[test]
    fn phase_breakdown_covers_total() {
        let (out, data) = trained();
        let pred = out.model.predict(&data.x, &Backend::gmp_default()).unwrap();
        let r = &pred.report;
        let phases = r.sim_decision_s + r.sim_sigmoid_s + r.sim_coupling_s;
        assert!(phases <= r.sim_s + 1e-9);
        assert!(
            r.sim_decision_s > r.sim_coupling_s,
            "decision dominates (Fig 12)"
        );
    }

    #[test]
    fn empty_test_set() {
        let (out, _) = trained();
        let empty = CsrMatrix::empty(2);
        let pred = out.model.predict(&empty, &Backend::gmp_default()).unwrap();
        assert!(pred.labels.is_empty());
        assert!(pred.probabilities.is_empty());
    }

    #[test]
    fn voting_without_probability() {
        let data = BlobSpec {
            n: 90,
            dim: 2,
            classes: 3,
            spread: 0.15,
            seed: 6,
        }
        .generate();
        let out = MpSvmTrainer::new(
            SvmParams::default()
                .with_c(2.0)
                .with_rbf(1.0)
                .without_probability(),
            Backend::libsvm(),
        )
        .train(&data)
        .unwrap();
        let pred = out.model.predict(&data.x, &Backend::libsvm()).unwrap();
        assert!(pred.probabilities.is_empty());
        let err = error_rate(&pred.labels, &data.y);
        assert!(err < 0.1, "voting error {err}");
    }

    /// `prepared` scores row chunks of 1, 7 and 30 with the bits of
    /// [`MpSvmModel::predict`]: every decision value, probability and
    /// label matches the whole-set call, and each chunk's kernel evals and
    /// simulated seconds match an offline call on the same rows.
    fn assert_chunks_match_predict(
        model: &MpSvmModel,
        data: &gmp_datasets::Dataset,
        prepared: &PreparedPredictor,
    ) {
        let backend = prepared.backend();
        let whole = model.predict(&data.x, backend).unwrap();
        let all = prepared.predict(&data.x).unwrap();
        assert_eq!(all.decision_values, whole.decision_values);
        assert_eq!(all.probabilities, whole.probabilities);
        assert_eq!(all.labels, whole.labels);
        assert_eq!(all.report.kernel_evals, whole.report.kernel_evals);
        for chunk in [1usize, 7, 30] {
            for start in (0..data.n()).step_by(chunk) {
                let rows: Vec<usize> = (start..(start + chunk).min(data.n())).collect();
                let sub = data.x.select_rows(&rows);
                let p = prepared.predict(&sub).unwrap();
                let direct = model.predict(&sub, backend).unwrap();
                assert_eq!(p.report.kernel_evals, direct.report.kernel_evals);
                assert_eq!(p.report.sim_s.to_bits(), direct.report.sim_s.to_bits());
                for (i, &r) in rows.iter().enumerate() {
                    assert_eq!(p.decision_values[i], whole.decision_values[r]);
                    assert_eq!(p.probabilities[i], whole.probabilities[r]);
                    assert_eq!(p.labels[i], whole.labels[r]);
                }
            }
        }
        // Kernel-eval accounting stays per-call (not cumulative).
        let again = prepared.predict(&data.x).unwrap();
        assert_eq!(again.report.kernel_evals, whole.report.kernel_evals);
    }

    #[test]
    fn prepared_predictor_bitwise_matches_predict() {
        let (out, data) = trained();
        let prepared = PreparedPredictor::new(Arc::new(out.model.clone()), Backend::gmp_default())
            .host_threads(Some(1));
        assert_chunks_match_predict(&out.model, &data, &prepared);
    }

    #[test]
    fn prepared_predictor_unshared_backend_falls_back() {
        // The unshared backends prepare one oracle per binary's SV list.
        let (out, data) = trained();
        let model = Arc::new(out.model);
        for backend in [Backend::libsvm(), Backend::gpu_baseline_default()] {
            for threads in [1, 4] {
                let prepared = PreparedPredictor::new(model.clone(), backend.clone())
                    .host_threads(Some(threads));
                assert_eq!(prepared.plan.groups.len(), model.binaries.len());
                assert_chunks_match_predict(&model, &data, &prepared);
            }
        }
    }

    #[test]
    fn too_wide_test_matrix_is_refused() {
        let (out, _) = trained();
        let wide = CsrMatrix::from_dense(&[vec![0.1, 0.5, 0.0, 0.0, 1.0]], 5);
        for backend in [Backend::gmp_default(), Backend::libsvm()] {
            let err = out.model.predict(&wide, &backend).unwrap_err();
            assert!(matches!(
                err,
                TrainError::DimensionMismatch { model: 2, test: 5 }
            ));
            assert_eq!(
                err.to_string(),
                "test data has 5 features but the model has 2"
            );
        }
    }

    #[test]
    fn non_finite_test_feature_is_refused_on_every_entry_point() {
        let (out, _) = trained();
        let model = Arc::new(out.model);
        let nan_first = CsrMatrix::from_dense(&[vec![f64::NAN, 0.5], vec![f64::INFINITY, 0.0]], 2);
        let inf_second = CsrMatrix::from_dense(&[vec![0.1, 0.5], vec![0.0, f64::NEG_INFINITY]], 2);
        for backend in [Backend::gmp_default(), Backend::libsvm()] {
            let prepared = PreparedPredictor::new(model.clone(), backend.clone());
            for (test, row, feature) in [(&nan_first, 0, 0), (&inf_second, 1, 1)] {
                let want = TrainError::NonFiniteFeature { row, feature };
                assert_eq!(model.predict(test, &backend).unwrap_err(), want);
                assert_eq!(prepared.predict(test).unwrap_err(), want);
            }
        }
        let err = model
            .predict(&nan_first, &Backend::gmp_default())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "row 0, feature column 0: value is not finite"
        );
    }

    #[test]
    fn error_rate_helper() {
        assert_eq!(error_rate(&[1, 2, 3], &[1, 2, 0]), 1.0 / 3.0);
        assert_eq!(error_rate(&[], &[]), 0.0);
    }
}
