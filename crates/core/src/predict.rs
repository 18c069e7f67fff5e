//! Prediction with support-vector and kernel-value sharing (§3.3.3, Fig. 2).

use crate::model::MpSvmModel;
use crate::params::Backend;
use crate::telemetry::PredictReport;
use crate::trainer::{resolve_host_threads_opt, TrainError};
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::{CpuExecutor, Device, Executor, Stream};
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
    /// every row of `test`.
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
        self.predict_with_threads(test, backend, None)
    }

    /// [`MpSvmModel::predict`] on an explicit compute backend (instead of
    /// the `GMP_BACKEND` selection).
    pub fn predict_with_compute_backend(
        &self,
        test: &CsrMatrix,
        backend: &Backend,
        compute: ComputeBackendKind,
    ) -> Result<PredictOutcome, TrainError> {
        self.predict_inner(test, backend, resolve_host_threads_opt(None), None, compute)
    }

    /// [`MpSvmModel::predict`] with an explicit real host-thread count for
    /// the numeric work (kernel blocks, decision accumulation, sigmoids,
    /// coupling). `None` = auto (`GMP_HOST_THREADS` env var, else available
    /// parallelism). An explicit value is honoured verbatim, so the
    /// multi-threaded path can be exercised on any machine.
    pub fn predict_with_threads(
        &self,
        test: &CsrMatrix,
        backend: &Backend,
        host_threads: Option<usize>,
    ) -> Result<PredictOutcome, TrainError> {
        self.predict_inner(
            test,
            backend,
            resolve_host_threads_opt(host_threads),
            None,
            ComputeBackendKind::from_env(),
        )
    }

    fn predict_inner(
        &self,
        test: &CsrMatrix,
        backend: &Backend,
        ht: usize,
        prepared_oracle: Option<&KernelOracle>,
        compute: ComputeBackendKind,
    ) -> Result<PredictOutcome, TrainError> {
        let wall = Instant::now();
        let m = test.nrows();
        let k = self.classes;
        let n_binaries = self.binaries.len();
        let shared = matches!(backend, Backend::Gmp { .. } | Backend::CpuBatched { .. });

        // Executor + optional device.
        let device = match backend {
            Backend::GpuBaseline { device } | Backend::Gmp { device, .. } => {
                Some(Device::new(device.clone()))
            }
            _ => None,
        };
        let exec: Box<dyn Executor> = match backend {
            Backend::CpuClassic { threads } | Backend::CpuBatched { threads } => {
                Box::new(CpuExecutor::xeon(*threads as u32))
            }
            // gmp:allow-panic — this match arm is only reached for GPU backends, which always carry a device
            _ => Box::new(Stream::new(device.clone().expect("gpu backend"), 1.0)),
        };
        let exec = &*exec;

        let mut decision_values = vec![vec![0.0f64; n_binaries]; m];
        let mut kernel_evals = 0u64;
        let sim_decision_start = exec.elapsed();

        if m > 0 && self.sv_pool.nrows() > 0 {
            // Squared norms of every test row, once for all chunks and all
            // binary SVMs (the unshared path would otherwise recompute them
            // per binary).
            let test_norms = test.row_norms_sq();
            if shared {
                kernel_evals += match prepared_oracle {
                    Some(oracle) => self.decisions_shared_with(
                        test,
                        &test_norms,
                        exec,
                        device.as_ref(),
                        oracle,
                        &mut decision_values,
                    )?,
                    None => self.decisions_shared(
                        test,
                        &test_norms,
                        exec,
                        device.as_ref(),
                        ht,
                        compute,
                        &mut decision_values,
                    )?,
                };
            } else {
                kernel_evals += self.decisions_unshared(
                    test,
                    &test_norms,
                    exec,
                    device.as_ref(),
                    ht,
                    compute,
                    &mut decision_values,
                )?;
            }
        } else {
            for row in decision_values.iter_mut() {
                for (b, v) in self.binaries.iter().zip(row.iter_mut()) {
                    *v = -b.rho;
                }
            }
        }
        let sim_decision_s = exec.elapsed() - sim_decision_start;

        // --- Sigmoids (Equation 12).
        let sim_sigmoid_start = exec.elapsed();
        let has_prob = self.has_probability();
        let mut pairwise: Vec<PairwiseProbs> = Vec::new();
        if has_prob && m > 0 {
            // Per-instance sigmoid application is embarrassingly parallel;
            // each slot is written by exactly one thread.
            pairwise = vec![PairwiseProbs::new(k.max(2)); m];
            for_each_chunk(ht, 1, &mut pairwise, |first, piece| {
                for (dv, r) in decision_values[first..].iter().zip(piece) {
                    for (bi, b) in self.binaries.iter().enumerate() {
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
                    for (bi, b) in self.binaries.iter().enumerate() {
                        if dv[bi] > 0.0 {
                            votes[b.s as usize] += 1;
                        } else {
                            votes[b.t as usize] += 1;
                        }
                    }
                    argmax_u32(&votes) as u32
                })
                .collect()
        };
        let sim_coupling_s = exec.elapsed() - sim_coupling_start;

        let report = PredictReport {
            backend: backend.label(),
            compute_backend: compute.name().to_string(),
            wall_s: wall.elapsed().as_secs_f64(),
            sim_s: exec.elapsed(),
            kernel_evals,
            unique_svs: self.n_sv(),
            total_sv_refs: self.total_sv_refs(),
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

    /// Shared path: one `test x sv_pool` kernel block serves every binary.
    #[allow(clippy::too_many_arguments)]
    fn decisions_shared(
        &self,
        test: &CsrMatrix,
        test_norms: &[f64],
        exec: &dyn Executor,
        device: Option<&Device>,
        host_threads: usize,
        compute: ComputeBackendKind,
        out: &mut [Vec<f64>],
    ) -> Result<u64, TrainError> {
        let oracle = KernelOracle::new(Arc::new(self.sv_pool.clone()), self.kernel)
            .with_host_threads(host_threads)
            .with_backend(compute.instance());
        self.decisions_shared_with(test, test_norms, exec, device, &oracle, out)
    }

    /// [`MpSvmModel::decisions_shared`] against a caller-held oracle over
    /// the SV pool, so long-lived predictors ([`PreparedPredictor`]) pay
    /// the pool clone, norms and column view once instead of per call.
    /// Host threading rides on the oracle's backend configuration.
    fn decisions_shared_with(
        &self,
        test: &CsrMatrix,
        test_norms: &[f64],
        exec: &dyn Executor,
        device: Option<&Device>,
        oracle: &KernelOracle,
        out: &mut [Vec<f64>],
    ) -> Result<u64, TrainError> {
        let n_sv = self.sv_pool.nrows();
        let evals_before = oracle.eval_count();
        // Device residency: SV pool + one chunk of the kernel block.
        let _sv_mem = match device {
            Some(d) => {
                let bytes = self.sv_pool.mem_bytes() as u64;
                let a = d.alloc(bytes)?;
                exec.charge_transfer(bytes);
                Some(a)
            }
            None => None,
        };
        let scorers: Vec<RowScorer<'_>> = self
            .binaries
            .iter()
            .enumerate()
            .map(|(bi, b)| RowScorer {
                out_col: bi,
                sv_idx: Some(&b.sv_idx),
                coef: &b.coef,
                rho: b.rho,
            })
            .collect();
        let chunk = chunk_rows(test.nrows(), n_sv, device);
        let mut start = 0usize;
        while start < test.nrows() {
            let end = (start + chunk).min(test.nrows());
            let rows: Vec<usize> = (start..end).collect();
            let _block_mem = match device {
                Some(d) => Some(d.alloc((rows.len() * n_sv * 8) as u64)?),
                None => None,
            };
            let mut block = DenseMatrix::zeros(rows.len(), n_sv);
            oracle.compute_cross_with_norms(exec, test, &rows, test_norms, &mut block);
            // All binary SVMs score against the same block: one scorer per
            // binary, one fused backend launch for the whole chunk.
            oracle.score_rows(exec, &block, &scorers, &mut out[start..end]);
            start = end;
        }
        Ok(oracle.eval_count() - evals_before)
    }

    /// Unshared path: each binary SVM scores against its own SV list.
    #[allow(clippy::too_many_arguments)]
    fn decisions_unshared(
        &self,
        test: &CsrMatrix,
        test_norms: &[f64],
        exec: &dyn Executor,
        device: Option<&Device>,
        host_threads: usize,
        compute: ComputeBackendKind,
        out: &mut [Vec<f64>],
    ) -> Result<u64, TrainError> {
        let mut evals = 0u64;
        for (bi, b) in self.binaries.iter().enumerate() {
            if b.sv_idx.is_empty() {
                for row in out.iter_mut() {
                    row[bi] = -b.rho;
                }
                continue;
            }
            let sv_rows: Vec<usize> = b.sv_idx.iter().map(|&i| i as usize).collect();
            let svs = Arc::new(self.sv_pool.select_rows(&sv_rows));
            let _sv_mem = match device {
                Some(d) => {
                    let bytes = svs.mem_bytes() as u64;
                    let a = d.alloc(bytes)?;
                    exec.charge_transfer(bytes);
                    Some(a)
                }
                None => None,
            };
            let oracle = KernelOracle::new(svs, self.kernel)
                .with_host_threads(host_threads)
                .with_backend(compute.instance());
            // This binary's block columns are exactly its SV list, in
            // order: a dense-sweep scorer writing column `bi`.
            let scorer = [RowScorer {
                out_col: bi,
                sv_idx: None,
                coef: &b.coef,
                rho: b.rho,
            }];
            let n_sv = sv_rows.len();
            let chunk = chunk_rows(test.nrows(), n_sv, device);
            let mut start = 0usize;
            while start < test.nrows() {
                let end = (start + chunk).min(test.nrows());
                let rows: Vec<usize> = (start..end).collect();
                let _block_mem = match device {
                    Some(d) => Some(d.alloc((rows.len() * n_sv * 8) as u64)?),
                    None => None,
                };
                let mut block = DenseMatrix::zeros(rows.len(), n_sv);
                oracle.compute_cross_with_norms(exec, test, &rows, test_norms, &mut block);
                oracle.score_rows(exec, &block, &scorer, &mut out[start..end]);
                start = end;
            }
            evals += oracle.eval_count();
        }
        Ok(evals)
    }
}

/// A model prepared for repeated (online) prediction.
///
/// [`MpSvmModel::predict`] rebuilds per-call state the paper's batched
/// prediction amortizes over one big test file: the SV-pool copy handed to
/// the kernel oracle, the pool's squared norms, the kernel diagonal, and
/// the pool's column view ([`CsrMatrix::columns`]). A long-lived server
/// scoring many small batches pays that setup on every call.
/// `PreparedPredictor` hoists it to construction time and reuses it
/// for every batch, while routing the actual scoring through the **same**
/// shared code path as `predict` — so results are bit-identical to the
/// offline API no matter how requests are batched.
pub struct PreparedPredictor {
    model: Arc<MpSvmModel>,
    backend: Backend,
    compute: ComputeBackendKind,
    host_threads: usize,
    /// Persistent oracle over the shared SV pool (norms, diagonal and
    /// column view precomputed). `None` for unshared backends, which score
    /// per-binary SV lists and have no pool-wide state to reuse.
    oracle: Option<KernelOracle>,
}

impl PreparedPredictor {
    /// Prepare `model` for repeated prediction on `backend`.
    /// `host_threads` as in [`MpSvmModel::predict_with_threads`].
    pub fn new(model: Arc<MpSvmModel>, backend: Backend, host_threads: Option<usize>) -> Self {
        Self::with_compute_backend(model, backend, host_threads, ComputeBackendKind::from_env())
    }

    /// [`PreparedPredictor::new`] on an explicit compute backend.
    pub fn with_compute_backend(
        model: Arc<MpSvmModel>,
        backend: Backend,
        host_threads: Option<usize>,
        compute: ComputeBackendKind,
    ) -> Self {
        let ht = resolve_host_threads_opt(host_threads);
        let shared = matches!(backend, Backend::Gmp { .. } | Backend::CpuBatched { .. });
        let oracle = (shared && model.sv_pool.nrows() > 0).then(|| {
            let oracle = KernelOracle::new(Arc::new(model.sv_pool.clone()), model.kernel)
                .with_host_threads(ht)
                .with_backend(compute.instance());
            // Build the pool's column view now, so no request pays for it.
            oracle.data().columns();
            oracle
        });
        PreparedPredictor {
            model,
            backend,
            compute,
            host_threads: ht,
            oracle,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<MpSvmModel> {
        &self.model
    }

    /// The backend every call scores on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Resolved host-thread count.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// The compute backend every call scores on.
    pub fn compute_backend(&self) -> ComputeBackendKind {
        self.compute
    }

    /// Predict every row of `test` — bit-identical to
    /// [`MpSvmModel::predict`] on the same rows.
    pub fn predict(&self, test: &CsrMatrix) -> Result<PredictOutcome, TrainError> {
        self.model.predict_inner(
            test,
            &self.backend,
            self.host_threads,
            self.oracle.as_ref(),
            self.compute,
        )
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

fn argmax(p: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in p.iter().enumerate() {
        if v > p[best] {
            best = i;
        }
    }
    best
}

fn argmax_u32(p: &[u32]) -> usize {
    let mut best = 0;
    for (i, &v) in p.iter().enumerate() {
        if v > p[best] {
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

    #[test]
    fn prepared_predictor_bitwise_matches_predict() {
        let (out, data) = trained();
        let backend = Backend::gmp_default();
        let direct = out
            .model
            .predict_with_threads(&data.x, &backend, Some(1))
            .unwrap();
        let prepared = PreparedPredictor::new(Arc::new(out.model.clone()), backend, Some(1));
        // Whole set in one call.
        let all = prepared.predict(&data.x).unwrap();
        assert_eq!(all.decision_values, direct.decision_values);
        assert_eq!(all.probabilities, direct.probabilities);
        assert_eq!(all.labels, direct.labels);
        // Row-at-a-time and odd-sized chunks: identical bits regardless of
        // how rows are batched (the serving subsystem's core guarantee).
        let mut start = 0usize;
        for chunk in [1usize, 7, 30] {
            while start < data.n() {
                let end = (start + chunk).min(data.n());
                let rows: Vec<usize> = (start..end).collect();
                let sub = data.x.select_rows(&rows);
                let p = prepared.predict(&sub).unwrap();
                for (i, r) in rows.iter().enumerate() {
                    assert_eq!(p.decision_values[i], direct.decision_values[*r]);
                    assert_eq!(p.probabilities[i], direct.probabilities[*r]);
                    assert_eq!(p.labels[i], direct.labels[*r]);
                }
                start = end;
                if start >= data.n() {
                    start = 0;
                    break;
                }
            }
        }
        // Kernel-eval accounting stays per-call (not cumulative).
        let once = prepared.predict(&data.x).unwrap();
        assert_eq!(once.report.kernel_evals, direct.report.kernel_evals);
    }

    #[test]
    fn prepared_predictor_unshared_backend_falls_back() {
        let (out, data) = trained();
        let backend = Backend::gpu_baseline_default();
        let direct = out
            .model
            .predict_with_threads(&data.x, &backend, Some(1))
            .unwrap();
        let prepared = PreparedPredictor::new(Arc::new(out.model.clone()), backend, Some(1));
        let p = prepared.predict(&data.x).unwrap();
        assert_eq!(p.labels, direct.labels);
        assert_eq!(p.decision_values, direct.decision_values);
    }

    #[test]
    fn error_rate_helper() {
        assert_eq!(error_rate(&[1, 2, 3], &[1, 2, 0]), 1.0 / 3.0);
        assert_eq!(error_rate(&[], &[]), 0.0);
    }
}
