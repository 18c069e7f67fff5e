//! The MP-SVM trainer (Algorithm 2 of the paper): one wave loop and one
//! per-problem solve train every backend.
//!
//! The k(k−1)/2 binary SVMs run in waves. GMP-SVM plans its waves from
//! device memory and runs a wave's problems side by side on host threads,
//! one stream each; the other backends run waves of one problem. Each
//! problem gets its own executor ([`Backend`] decides which). Its kernel
//! rows come from one [`SharedKernelStore`] for the batched solver when the
//! backend shares kernel values (GMP-SVM, CMP-SVM), and otherwise from an
//! LRU [`BufferedRows`] over the problem's own sub-dataset for the classic
//! solver (LibSVM, the GPU baseline).

use crate::model::{BinarySvm, MpSvmModel, SvPoolBuilder};
use crate::ovo::{self, BinaryProblem};
use crate::params::{Backend, SvmParams};
use crate::telemetry::{BinaryTrainStats, TrainReport};
use gmp_datasets::Dataset;
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::pool::for_each_chunk;
use gmp_gpusim::{Device, DeviceError, Executor};
use gmp_kernel::{
    BufferedRows, ClassLayout, KernelKind, KernelOracle, ReplacementPolicy, SharedKernelStore,
    SharedRows,
};
use gmp_prob::{sigmoid_train, SigmoidParams};
use gmp_smo::{
    decision_values_for, decision_values_from_f, BatchedSmoSolver, ClassicSmoSolver, SolverResult,
};
use gmp_sparse::CsrMatrix;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Most binary SVMs one GMP-SVM wave trains at once. The paper gives no
/// such cap; the memory plan can only lower it.
const MAX_WAVE: usize = 8;

/// Training failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Fewer than two classes in the training data.
    TooFewClasses {
        /// Classes found.
        found: usize,
    },
    /// The simulated device ran out of memory even for the minimal plan.
    Device(DeviceError),
    /// A test matrix's width differs from the model's dimensionality.
    DimensionMismatch {
        /// Features the model was trained on.
        model: usize,
        /// Features of the test matrix.
        test: usize,
    },
    /// A feature value of the training or test matrix is NaN or ±∞.
    NonFiniteFeature {
        /// Row of the matrix (0-based).
        row: usize,
        /// Column of the feature (0-based).
        feature: usize,
    },
    /// A hyper-parameter breaks LibSVM's `svm_check_parameter` rules.
    InvalidParameter {
        /// The parameter (`C`, `eps`, `gamma`, `weight of class 1`, ...).
        name: String,
        /// The rule it breaks, e.g. `finite and > 0`.
        rule: &'static str,
        /// The refused value.
        value: f64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::TooFewClasses { found } => {
                write!(f, "need at least 2 classes, found {found}")
            }
            TrainError::Device(e) => write!(f, "device error: {e}"),
            TrainError::DimensionMismatch { model, test } => {
                write!(f, "test data has {test} features but the model has {model}")
            }
            TrainError::NonFiniteFeature { row, feature } => {
                write!(
                    f,
                    "row {row}, feature column {feature}: value is not finite"
                )
            }
            TrainError::InvalidParameter { name, rule, value } => {
                write!(f, "{name} must be {rule}, got {value}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<DeviceError> for TrainError {
    fn from(e: DeviceError) -> Self {
        TrainError::Device(e)
    }
}

/// Refuse a NaN or ±∞ feature: a NaN distance would turn into a plausible
/// kernel value. Parsed files are checked by the parser; this checks data
/// built in code, on the way into training and prediction.
pub(crate) fn check_finite(x: &CsrMatrix) -> Result<(), TrainError> {
    for (row, r) in x.rows().enumerate() {
        if let Some(p) = r.values.iter().position(|v| !v.is_finite()) {
            let feature = r.indices[p] as usize;
            return Err(TrainError::NonFiniteFeature { row, feature });
        }
    }
    Ok(())
}

/// A trained model plus its training report.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained MP-SVM.
    pub model: MpSvmModel,
    /// Timings and counters.
    pub report: TrainReport,
}

/// Trains MP-SVM models with a fixed parameter set and backend.
#[derive(Debug, Clone)]
pub struct MpSvmTrainer {
    params: SvmParams,
    backend: Backend,
    /// Per-class penalty multipliers (LibSVM's `-wi`): instance `i` of
    /// class `c` gets box cap `C · class_weights[c]`. Empty = unweighted.
    class_weights: Vec<f64>,
    /// Real host threads driving concurrent binary problems in the GMP
    /// backend's waves. `None` = auto (`GMP_HOST_THREADS` env var, else the
    /// machine's available parallelism).
    host_threads: Option<usize>,
}

/// Result of one binary problem: solver output + sigmoid + its executor's
/// simulated seconds.
struct BinaryFit {
    result: SolverResult,
    sigmoid: Option<SigmoidParams>,
    sim_s: f64,
}

/// Where every problem's kernel rows come from.
enum RowSource {
    /// One segment store over the grouped dataset, shared by every problem
    /// and read by the batched solver.
    Shared(Arc<SharedKernelStore>),
    /// Each problem's own sub-dataset behind an LRU row cache, read by the
    /// classic solver; its kernel launches run on `launch_threads`.
    PerProblem { launch_threads: usize },
}

impl MpSvmTrainer {
    /// A trainer with the given parameters and backend.
    pub fn new(params: SvmParams, backend: Backend) -> Self {
        MpSvmTrainer {
            params,
            backend,
            class_weights: Vec::new(),
            host_threads: None,
        }
    }

    /// Pin the number of real host threads used to run concurrent binary
    /// problems (GMP backend waves). An explicit value is honoured verbatim
    /// — it is NOT clamped to the machine's core count, so tests can
    /// exercise the multi-threaded path on any box. `None` (the default)
    /// resolves from the `GMP_HOST_THREADS` environment variable, falling
    /// back to available parallelism.
    pub fn with_host_threads(mut self, threads: Option<usize>) -> Self {
        self.host_threads = threads;
        self
    }

    /// Weight the penalty per class (LibSVM's `-wi`): class `c` instances
    /// get `C · weights[c]`. Classes beyond the vector default to 1. Every
    /// weight must be finite and positive, or training refuses it.
    pub fn with_class_weights(mut self, weights: Vec<f64>) -> Self {
        self.class_weights = weights;
        self
    }

    fn weight_of(&self, class: u16) -> f64 {
        self.class_weights
            .get(class as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Box caps for a binary problem: `+1` instances belong to class `s`,
    /// `-1` to class `t`.
    fn caps_for(&self, prob: &BinaryProblem) -> Vec<f64> {
        let cp = self.params.c * self.weight_of(prob.s);
        let cn = self.params.c * self.weight_of(prob.t);
        prob.y
            .iter()
            .map(|&yi| if yi > 0.0 { cp } else { cn })
            .collect()
    }

    /// The parameter set.
    pub fn params(&self) -> &SvmParams {
        &self.params
    }

    /// LibSVM's `svm_check_parameter` rules for the values training reads:
    /// `C`, `eps` and every class weight finite and > 0, the kernel's
    /// `gamma` finite and >= 0.
    fn check_params(&self) -> Result<(), TrainError> {
        let p = &self.params;
        // (name, value, may it be 0)
        let mut checks = vec![
            ("C".to_string(), p.c, false),
            ("eps".to_string(), p.eps, false),
        ];
        if let KernelKind::Rbf { gamma }
        | KernelKind::Poly { gamma, .. }
        | KernelKind::Sigmoid { gamma, .. } = p.kernel
        {
            checks.push(("gamma".to_string(), gamma, true));
        }
        let weights = self.class_weights.iter().enumerate();
        checks.extend(weights.map(|(c, &w)| (format!("weight of class {c}"), w, false)));
        for (name, value, zero_ok) in checks {
            if !value.is_finite() || value < 0.0 || value == 0.0 && !zero_ok {
                let rule = if zero_ok {
                    "finite and >= 0"
                } else {
                    "finite and > 0"
                };
                return Err(TrainError::InvalidParameter { name, rule, value });
            }
        }
        Ok(())
    }

    /// Train on `data` (labels `0..k`).
    pub fn train(&self, data: &Dataset) -> Result<TrainOutcome, TrainError> {
        let k = data.n_classes();
        if k < 2 {
            return Err(TrainError::TooFewClasses { found: k });
        }
        self.check_params()?;
        check_finite(&data.x)?;
        let wall_start = Instant::now();
        let (grouped, offsets, _, problems) = ovo::decompose(data);
        let device = self.backend.device();
        let host_threads = self.backend.host_threads(self.host_threads);
        let (fits, sim_s, concurrency) =
            self.run_waves(&grouped, &offsets, &problems, device.as_ref(), host_threads)?;

        // Assemble the model with support-vector sharing.
        let mut pool = SvPoolBuilder::new();
        let mut binaries = Vec::with_capacity(problems.len());
        let mut per_binary = Vec::with_capacity(problems.len());
        let mut sim_phases = gmp_smo::PhaseTimes::default();
        let mut wall_phases = gmp_smo::PhaseTimes::default();
        let mut kernel_evals = 0u64;
        let mut rows_computed = 0u64;
        let mut buffer_hits = 0u64;

        for (prob, fit) in problems.iter().zip(&fits) {
            let r = &fit.result;
            let mut sv_idx = Vec::new();
            let mut coef = Vec::new();
            for (local, &a) in r.alpha.iter().enumerate() {
                if a > 0.0 {
                    let orig = prob.original_index[local];
                    sv_idx.push(pool.intern(orig));
                    coef.push(prob.y[local] * a);
                }
            }
            per_binary.push(BinaryTrainStats {
                pair: (prob.s, prob.t),
                n: prob.n(),
                iterations: r.iterations,
                outer_rounds: r.outer_rounds,
                n_sv: sv_idx.len(),
                converged: r.converged,
                kernel_evals: r.telemetry.rows.kernel_evals,
                sim_s: fit.sim_s,
            });
            sim_phases = sim_phases.add(&r.telemetry.sim_phases);
            wall_phases = wall_phases.add(&r.telemetry.wall_phases);
            kernel_evals += r.telemetry.rows.kernel_evals;
            rows_computed += r.telemetry.rows.rows_computed;
            buffer_hits += r.telemetry.rows.buffer_hits;
            binaries.push(BinarySvm {
                s: prob.s,
                t: prob.t,
                sv_idx,
                coef,
                rho: r.rho,
                sigmoid: fit.sigmoid,
            });
        }

        let model = MpSvmModel {
            classes: k,
            kernel: self.params.kernel,
            sv_pool: pool.build(&data.x),
            binaries,
        };
        let report = TrainReport {
            backend: self.backend.label(),
            compute_backend: self.params.compute_backend.name().to_string(),
            wall_s: wall_start.elapsed().as_secs_f64(),
            sim_s,
            kernel_evals,
            rows_computed,
            buffer_hits,
            sim_phases,
            wall_phases,
            per_binary,
            device: device.as_ref().map(|d| d.stats()),
            peak_device_mem: device.as_ref().map_or(0, |d| d.mem_peak()),
            concurrency,
            host_threads,
        };
        Ok(TrainOutcome { model, report })
    }

    /// Train every problem in waves; returns the fits in problem order, the
    /// simulated seconds (the data upload, then each wave's slowest member)
    /// and the wave width.
    ///
    /// Concurrent problems need streams and one store to share, so only
    /// GMP-SVM runs waves wider than one: as wide as [`MAX_WAVE`] and the
    /// device memory left for each member's working-set region allow. A
    /// wave's problems run on up to `host_threads` real threads, each on a
    /// contiguous run of the wave, so the assignment is deterministic;
    /// single-flight in the store computes each (row, class) segment once
    /// whatever the interleaving, and every per-problem result is
    /// independent of the thread count (pinned by the concurrency tests).
    fn run_waves(
        &self,
        grouped: &Dataset,
        offsets: &[usize],
        problems: &[BinaryProblem],
        device: Option<&Device>,
        host_threads: usize,
    ) -> Result<(Vec<BinaryFit>, f64, usize), DeviceError> {
        let shared = self.backend.shares_kernel_values();
        let concurrent = shared && device.is_some();
        // Threads a short problem list leaves idle (a binary set has one
        // problem) go to each kernel launch.
        let launch_threads = host_threads / if concurrent { problems.len().max(1) } else { 1 };

        let (source, _data_mem, mut sim_s) = if shared {
            // One resident copy of the grouped dataset serves every problem.
            let bytes = grouped.x.mem_bytes() as u64;
            let data_mem = device.map(|d| d.alloc(bytes)).transpose()?;
            let setup = self.backend.executor(device, 1.0);
            setup.charge_transfer(bytes);
            let oracle = Arc::new(
                KernelOracle::new(Arc::new(grouped.x.clone()), self.params.kernel)
                    .with_host_threads(launch_threads)
                    .with_backend(self.params.compute_backend.instance()),
            );
            // 4,096 full rows (at least 1 MiB), the scale of the paper's 4 GB
            // cache relative to its datasets; on a device at most half of the
            // memory left.
            let mut budget = ((4096 * grouped.n() * 8) as u64).max(1 << 20);
            if let Some(d) = device {
                budget = budget.min(d.mem_available() / 2).max(1 << 16);
            }
            let layout = ClassLayout::new(offsets.to_vec());
            let store = SharedKernelStore::new(oracle, layout, budget, device)?;
            (
                RowSource::Shared(Arc::new(store)),
                data_mem,
                setup.elapsed(),
            )
        } else {
            (RowSource::PerProblem { launch_threads }, None, 0.0)
        };

        // Memory plan: each active problem of a shared store needs its
        // working-set assembly region (ws x n_pair x 8 B) on the device.
        let footprint =
            |p: &BinaryProblem| -> u64 { (self.params.ws_size.min(p.n()) * p.n() * 8) as u64 };
        let wave_cap = if concurrent { MAX_WAVE } else { 1 };
        let mut conc = wave_cap.min(problems.len()).max(1);
        if let Some(d) = device.filter(|_| conc > 1) {
            let mut worst: Vec<u64> = problems.iter().map(footprint).collect();
            worst.sort_unstable_by(|a, b| b.cmp(a));
            while conc > 1 && worst[..conc].iter().sum::<u64>() > d.mem_available() {
                conc -= 1;
            }
        }

        let mut fits: Vec<Option<Result<BinaryFit, DeviceError>>> =
            (0..problems.len()).map(|_| None).collect();
        for (w, wave_fits) in fits.chunks_mut(conc).enumerate() {
            let wave = &problems[w * conc..w * conc + wave_fits.len()];
            let frac = 1.0 / wave.len() as f64;
            // Claim every member's working-set region up front, so device
            // exhaustion surfaces here rather than inside a worker thread.
            // The regions live until the whole wave retires.
            let mut ws_mems = Vec::new();
            if let (RowSource::Shared(_), Some(d)) = (&source, device) {
                for p in wave {
                    ws_mems.push(d.alloc(footprint(p))?);
                }
            }
            for_each_chunk(host_threads, 1, wave_fits, |first, piece| {
                for (p, slot) in wave[first..].iter().zip(piece) {
                    let exec = self.backend.executor(device, frac);
                    *slot = Some(self.solve_one(grouped, offsets, p, &source, device, &*exec));
                }
            });
            drop(ws_mems);
            let mut wave_s = 0.0f64;
            for slot in wave_fits.iter() {
                // gmp:allow-panic — this wave just filled these slots
                match slot.as_ref().expect("wave slot filled") {
                    Ok(fit) => wave_s = wave_s.max(fit.sim_s),
                    Err(e) => return Err(e.clone()),
                }
            }
            sim_s += wave_s;
        }
        let fits = fits
            .into_iter()
            // gmp:allow-panic — every problem is in exactly one wave
            .map(|f| f.expect("all waves ran"))
            .collect::<Result<_, _>>()?;
        Ok((fits, sim_s, conc))
    }

    /// Solve one binary problem on its own executor `exec`, with rows from
    /// `source`, and fit its sigmoid. Safe to call from concurrent wave
    /// workers: every mutable structure (executor, rows view, solver
    /// state) is local, and per-problem kernel evals come from the rows'
    /// own accounting (the store's owner attribution when shared).
    fn solve_one(
        &self,
        grouped: &Dataset,
        offsets: &[usize],
        p: &BinaryProblem,
        source: &RowSource,
        device: Option<&Device>,
        exec: &dyn Executor,
    ) -> Result<BinaryFit, DeviceError> {
        let caps = self.caps_for(p);
        let result = match source {
            RowSource::Shared(store) => {
                let (s, t) = (p.s as usize, p.t as usize);
                let mut rows = SharedRows::new(store.clone(), s, t, self.params.ws_size);
                BatchedSmoSolver::new(self.params.batched())
                    .solve_weighted(&p.y, &mut rows, exec, &caps)
            }
            RowSource::PerProblem { launch_threads } => {
                let sub = Arc::new(grouped.x.select_rows(&p.grouped_rows(offsets)));
                // On a device the problem's data goes up for its solve (§3.2).
                let bytes = sub.mem_bytes() as u64;
                let _data_mem = device.map(|d| d.alloc(bytes)).transpose()?;
                exec.charge_transfer(bytes);
                let oracle = KernelOracle::new(sub, self.params.kernel)
                    .with_host_threads(*launch_threads)
                    .with_backend(self.params.compute_backend.instance());
                let mut rows = BufferedRows::new(
                    Arc::new(oracle),
                    self.params.cache_rows,
                    ReplacementPolicy::Lru,
                    device,
                )?;
                ClassicSmoSolver::new(self.params.smo())
                    .solve_weighted(&p.y, &mut rows, exec, &caps)
            }
        };
        let sigmoid = self.fit_sigmoid(grouped, offsets, p, &result, exec);
        Ok(BinaryFit {
            sim_s: exec.elapsed(),
            result,
            sigmoid,
        })
    }

    /// Fit the binary problem's sigmoid: on k-fold cross-validated decision
    /// values when `sigmoid_cv_folds >= 2`, else directly on the
    /// training-set decision values the final indicators give for free.
    fn fit_sigmoid(
        &self,
        grouped: &Dataset,
        offsets: &[usize],
        prob: &BinaryProblem,
        result: &SolverResult,
        exec: &dyn Executor,
    ) -> Option<SigmoidParams> {
        if !self.params.probability {
            return None;
        }
        if self.params.sigmoid_cv_folds >= 2 {
            return Some(self.fit_sigmoid_cv(grouped, offsets, prob, exec));
        }
        let params = sigmoid_train(
            &decision_values_from_f(&result.f, &prob.y, result.rho),
            &prob.y,
        );
        // Newton's method: each iteration is two reductions over n plus a
        // line search of a few objective evaluations (Phase ii of §3.2).
        let n = prob.n() as u64;
        for _ in 0..params.iterations {
            exec.charge(KernelCost::map(n, 12, 16));
            exec.charge(KernelCost::reduction(n));
            exec.charge(KernelCost::reduction(n));
        }
        Some(params)
    }

    /// LibSVM's calibration protocol (`svm_binary_svc_probability`): fit
    /// the sigmoid on k-fold cross-validated decision values, so the
    /// calibration data was never seen by the scoring SVM.
    fn fit_sigmoid_cv(
        &self,
        grouped: &Dataset,
        offsets: &[usize],
        prob: &BinaryProblem,
        exec: &dyn Executor,
    ) -> SigmoidParams {
        let folds = self.params.sigmoid_cv_folds;
        let rows_sel = prob.grouped_rows(offsets);
        let sub = grouped.x.select_rows(&rows_sel);
        let n = prob.n();
        let mut dec = vec![0.0f64; n];
        for f in 0..folds {
            let test_idx: Vec<usize> = (0..n).filter(|i| i % folds == f).collect();
            let train_idx: Vec<usize> = (0..n).filter(|i| i % folds != f).collect();
            let y_tr: Vec<f64> = train_idx.iter().map(|&i| prob.y[i]).collect();
            if test_idx.is_empty()
                || !(y_tr.iter().any(|&v| v > 0.0) && y_tr.iter().any(|&v| v < 0.0))
            {
                continue; // degenerate fold: decision values stay 0
            }
            let fold_x = Arc::new(sub.select_rows(&train_idx));
            let oracle = Arc::new(
                KernelOracle::new(fold_x, self.params.kernel)
                    .with_backend(self.params.compute_backend.instance()),
            );
            let mut rows = BufferedRows::new(
                oracle.clone(),
                self.params.cache_rows,
                ReplacementPolicy::Lru,
                None,
            )
            // gmp:allow-panic — host-side fold buffer cannot exhaust simulated device memory
            .expect("host-side fold buffer needs no device memory");
            let r = ClassicSmoSolver::new(self.params.smo()).solve(&y_tr, &mut rows, exec);
            let test_x = sub.select_rows(&test_idx);
            let vals = decision_values_for(exec, &oracle, &y_tr, &r.alpha, r.rho, &test_x);
            for (ti, &i) in test_idx.iter().enumerate() {
                dec[i] = vals[ti];
            }
        }
        sigmoid_train(&dec, &prob.y)
    }
}

/// Resolve a real host-thread count. An explicit request is honoured
/// verbatim (so tests can force the multi-threaded path on a single-core
/// box); auto consults the `GMP_HOST_THREADS` environment variable, then
/// the machine's available parallelism.
pub(crate) fn resolve_host_threads_opt(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::env::var("GMP_HOST_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;
    use gmp_gpusim::DeviceConfig;

    fn blobs3() -> Dataset {
        BlobSpec {
            n: 120,
            dim: 2,
            classes: 3,
            spread: 0.18,
            seed: 3,
        }
        .generate()
    }

    fn params() -> SvmParams {
        SvmParams::default()
            .with_c(2.0)
            .with_rbf(1.0)
            .with_working_set(32, 16)
    }

    fn train_with(backend: Backend) -> TrainOutcome {
        MpSvmTrainer::new(params(), backend)
            .train(&blobs3())
            .unwrap()
    }

    #[test]
    fn cpu_classic_trains_all_pairs() {
        let out = train_with(Backend::libsvm());
        assert_eq!(out.model.binaries.len(), 3);
        assert!(out.report.all_converged());
        assert!(out.model.has_probability());
        assert!(out.model.n_sv() > 0);
        assert!(out.report.sim_s > 0.0);
    }

    #[test]
    fn gmp_trains_all_pairs() {
        let out = train_with(Backend::gmp_default());
        assert_eq!(out.model.binaries.len(), 3);
        assert!(out.report.all_converged());
        assert!(out.report.device.is_some());
        assert!(out.report.peak_device_mem > 0);
    }

    #[test]
    fn backends_agree_on_the_classifier() {
        // Table 4's claim: same classifier across implementations.
        let a = train_with(Backend::libsvm());
        let b = train_with(Backend::gmp_default());
        let c = train_with(Backend::cmp_svm());
        let d = train_with(Backend::gpu_baseline_default());
        for (other, name) in [(&b, "gmp"), (&c, "cmp"), (&d, "baseline")] {
            for (x, y) in a.model.binaries.iter().zip(&other.model.binaries) {
                assert!(
                    (x.rho - y.rho).abs() < 5e-3,
                    "{name}: rho {} vs {}",
                    x.rho,
                    y.rho
                );
            }
        }
    }

    #[test]
    fn gmp_computes_fewer_kernel_values_than_baseline() {
        // The paper's regime: the problem is hard (many iterations), the
        // baseline's cache covers only a slice of the kernel matrix, and
        // enough classes that every (row, class) segment is reused by
        // several binary problems (k - 1 of the k(k-1)/2 share it).
        // Equal memory for both: baseline cache = GMP working set.
        let data = BlobSpec {
            n: 240,
            dim: 2,
            classes: 4,
            spread: 0.55, // heavy class overlap -> many SVs, many iterations
            seed: 21,
        }
        .generate();
        let mut p = params().with_working_set(16, 8);
        p.cache_rows = 16;
        p.c = 5.0;
        let base = MpSvmTrainer::new(p, Backend::gpu_baseline_default())
            .train(&data)
            .unwrap();
        let gmp = MpSvmTrainer::new(p, Backend::gmp_default())
            .train(&data)
            .unwrap();
        assert!(
            gmp.report.kernel_evals < base.report.kernel_evals,
            "gmp {} vs baseline {}",
            gmp.report.kernel_evals,
            base.report.kernel_evals
        );
    }

    #[test]
    fn gmp_sim_faster_than_baseline() {
        let base = train_with(Backend::gpu_baseline_default());
        let gmp = train_with(Backend::gmp_default());
        assert!(
            gmp.report.sim_s < base.report.sim_s,
            "gmp {} vs baseline {}",
            gmp.report.sim_s,
            base.report.sim_s
        );
    }

    #[test]
    fn openmp_sim_faster_than_single_thread() {
        // Needs enough per-row work for parallel regions to beat the
        // fork/join overhead (high-dimensional sparse data).
        let data = gmp_datasets::SynthSpec {
            n: 200,
            dim: 2000,
            classes: 2,
            density: 0.05,
            class_sep: 0.6,
            label_noise: 0.02,
            scale: 1.0,
            seed: 17,
        }
        .generate();
        let p = SvmParams::default().with_c(5.0).with_rbf(0.5);
        let one = MpSvmTrainer::new(p, Backend::libsvm())
            .train(&data)
            .unwrap();
        let forty = MpSvmTrainer::new(p, Backend::libsvm_openmp())
            .train(&data)
            .unwrap();
        assert!(
            forty.report.sim_s < one.report.sim_s,
            "40t {} vs 1t {}",
            forty.report.sim_s,
            one.report.sim_s
        );
    }

    #[test]
    fn binary_set_trains_identically_on_two_host_threads() {
        // One problem: the spare host thread goes to the kernel launches.
        let mut data = blobs3();
        data.y.iter_mut().for_each(|y| *y = (*y).min(1));
        let train = |threads| {
            MpSvmTrainer::new(params(), Backend::gmp_default())
                .with_host_threads(Some(threads))
                .train(&data)
                .unwrap()
        };
        let (one, two) = (train(1), train(2));
        assert_eq!(one.model.binaries.len(), 1);
        assert_eq!(one.model.to_text(), two.model.to_text());
        assert_eq!(one.report.kernel_evals, two.report.kernel_evals);
        assert_eq!(one.report.sim_s.to_bits(), two.report.sim_s.to_bits());
    }

    #[test]
    fn single_class_fails() {
        let mut d = blobs3();
        d.y.iter_mut().for_each(|y| *y = 0);
        let err = MpSvmTrainer::new(params(), Backend::libsvm())
            .train(&d)
            .unwrap_err();
        assert_eq!(err, TrainError::TooFewClasses { found: 1 });
    }

    #[test]
    fn tiny_device_rejects_gmp() {
        let backend = Backend::Gmp {
            device: DeviceConfig::tiny_test(256),
        };
        let err = MpSvmTrainer::new(params(), backend).train(&blobs3());
        assert!(matches!(err, Err(TrainError::Device(_))));
    }

    #[test]
    fn probability_can_be_disabled() {
        let out = MpSvmTrainer::new(params().without_probability(), Backend::libsvm())
            .train(&blobs3())
            .unwrap();
        assert!(!out.model.has_probability());
    }

    #[test]
    fn sv_sharing_dedups_pool() {
        let out = train_with(Backend::gmp_default());
        assert!(out.model.n_sv() <= out.model.total_sv_refs());
    }

    #[test]
    fn class_weights_shift_the_boundary() {
        // Imbalanced 2-class data: up-weighting the minority class must
        // reduce its error at the expense of the majority.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..160 {
            let t = i as f64 / 160.0;
            let jitter = ((i * 2654435761_usize) % 89) as f64 / 89.0 - 0.5;
            // 140 majority (class 0) vs 20 minority (class 1), overlapping.
            if i % 8 == 0 {
                x.push(vec![0.25 + 0.5 * jitter, t]);
                y.push(1u32);
            } else {
                x.push(vec![-0.25 + 0.5 * jitter, t]);
                y.push(0u32);
            }
        }
        let data = Dataset::new(gmp_sparse::CsrMatrix::from_dense(&x, 2), y);
        let p = SvmParams::default()
            .with_c(0.5)
            .with_rbf(20.0)
            .with_working_set(32, 16);
        let minority_errors = |weights: Vec<f64>| -> usize {
            let trainer = MpSvmTrainer::new(p, Backend::libsvm()).with_class_weights(weights);
            let out = trainer.train(&data).unwrap();
            let pred = out.model.predict(&data.x, &Backend::libsvm()).unwrap();
            pred.labels
                .iter()
                .zip(&data.y)
                .filter(|(pl, tl)| **tl == 1 && **pl != 1)
                .count()
        };
        let unweighted = minority_errors(vec![]);
        let weighted = minority_errors(vec![1.0, 25.0]);
        assert!(
            weighted < unweighted || (weighted == 0 && unweighted == 0),
            "weighting did not help the minority: {weighted} vs {unweighted}"
        );
        assert!(unweighted > 0, "problem too easy to exercise weighting");
    }

    #[test]
    fn cv_sigmoid_calibration_differs_from_direct() {
        // CV-fitted sigmoids see held-out decision values: the fitted
        // (A, B) must differ from the optimistic direct fit, while the
        // model still predicts sensibly.
        let data = blobs3();
        let direct = MpSvmTrainer::new(params(), Backend::libsvm())
            .train(&data)
            .unwrap();
        let cv = MpSvmTrainer::new(params().with_cv_sigmoid(3), Backend::libsvm())
            .train(&data)
            .unwrap();
        assert!(cv.model.has_probability());
        let mut any_diff = false;
        for (a, b) in direct.model.binaries.iter().zip(&cv.model.binaries) {
            // Same decision function either way.
            assert!((a.rho - b.rho).abs() < 1e-12);
            let (sa, sb) = (a.sigmoid.unwrap(), b.sigmoid.unwrap());
            if (sa.a - sb.a).abs() > 1e-9 || (sa.b - sb.b).abs() > 1e-9 {
                any_diff = true;
            }
        }
        assert!(any_diff, "CV calibration produced identical sigmoids");
        let pred = cv.model.predict(&data.x, &Backend::libsvm()).unwrap();
        let err = crate::predict::error_rate(&pred.labels, &data.y);
        assert!(err < 0.1, "cv-sigmoid model error {err}");
    }

    #[test]
    fn report_phases_populated() {
        let out = train_with(Backend::gmp_default());
        assert!(out.report.sim_phases.total() > 0.0);
        assert!(out.report.kernel_evals > 0);
        assert!(out.report.rows_computed > 0);
    }

    fn with_value_at(v: f64) -> Dataset {
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.5], vec![0.5, v], vec![1.0, 1.0]];
        Dataset::new(gmp_sparse::CsrMatrix::from_dense(&x, 2), vec![0, 0, 1, 1])
    }

    #[test]
    fn nan_feature_built_in_code_is_refused() {
        let err = MpSvmTrainer::new(SvmParams::default(), Backend::gmp_default())
            .train(&with_value_at(f64::NAN))
            .unwrap_err();
        assert_eq!(err, TrainError::NonFiniteFeature { row: 2, feature: 1 });
        assert!(err.to_string().contains("row 2, feature column 1"), "{err}");
    }

    #[test]
    fn infinite_feature_built_in_code_is_refused() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let err = MpSvmTrainer::new(SvmParams::default(), Backend::libsvm())
                .train(&with_value_at(v))
                .unwrap_err();
            assert_eq!(err, TrainError::NonFiniteFeature { row: 2, feature: 1 });
        }
    }

    /// The parameter `train` refuses, with the message it gives.
    fn refused(trainer: MpSvmTrainer) -> (String, f64, String) {
        let err = trainer.train(&blobs3()).unwrap_err();
        match &err {
            TrainError::InvalidParameter { name, value, .. } => {
                (name.clone(), *value, err.to_string())
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    const NOT_POSITIVE: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn c_must_be_finite_and_positive() {
        for c in NOT_POSITIVE {
            let (name, value, msg) = refused(MpSvmTrainer::new(
                params().with_c(c),
                Backend::gmp_default(),
            ));
            assert_eq!(name, "C");
            assert_eq!(value.to_bits(), c.to_bits());
            assert_eq!(msg, format!("C must be finite and > 0, got {c}"));
        }
    }

    #[test]
    fn eps_must_be_finite_and_positive() {
        for eps in NOT_POSITIVE {
            let mut p = params();
            p.eps = eps;
            let (name, _, msg) = refused(MpSvmTrainer::new(p, Backend::libsvm()));
            assert_eq!(name, "eps");
            assert_eq!(msg, format!("eps must be finite and > 0, got {eps}"));
        }
    }

    #[test]
    fn gamma_must_be_finite_and_not_negative() {
        for gamma in [-0.5, f64::NAN, f64::INFINITY] {
            for kernel in [
                KernelKind::Rbf { gamma },
                KernelKind::Poly {
                    gamma,
                    coef0: 0.0,
                    degree: 3,
                },
                KernelKind::Sigmoid { gamma, coef0: 0.0 },
            ] {
                let trainer = MpSvmTrainer::new(params().with_kernel(kernel), Backend::cmp_svm());
                let (name, _, msg) = refused(trainer);
                assert_eq!(name, "gamma");
                assert_eq!(msg, format!("gamma must be finite and >= 0, got {gamma}"));
            }
        }
        let zero = MpSvmTrainer::new(params().with_rbf(0.0), Backend::gmp_default());
        assert_eq!(zero.check_params(), Ok(()));
        let linear = MpSvmTrainer::new(
            params().with_kernel(KernelKind::Linear),
            Backend::gmp_default(),
        );
        assert_eq!(linear.check_params(), Ok(()));
    }

    #[test]
    fn class_weights_must_be_finite_and_positive() {
        for w in NOT_POSITIVE {
            let trainer = MpSvmTrainer::new(params(), Backend::gpu_baseline_default())
                .with_class_weights(vec![1.0, w]);
            let (name, _, msg) = refused(trainer);
            assert_eq!(name, "weight of class 1");
            assert_eq!(
                msg,
                format!("weight of class 1 must be finite and > 0, got {w}")
            );
        }
    }
}
