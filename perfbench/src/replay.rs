//! The per-layer replay: GMP training and shared-SV prediction re-driven
//! step by step through each layer's public API, with timing decorators on
//! the repository's own seams:
//!
//! - [`TimedBackend`] wraps a `ComputeBackend` (installed with
//!   `KernelOracle::with_backend`);
//! - [`TimedRows`] wraps `SharedRows` as a `KernelRows`;
//! - `BatchedSmoSolver`, `sigmoid_train`, `sigmoid_predict` and
//!   `couple_gaussian` are called directly inside spans.
//!
//! The replay mirrors the sequential (one host thread) path of
//! `MpSvmTrainer::train` and `MpSvmModel::predict` for the GMP backend,
//! charge for charge, so its counters, simulated seconds, model and
//! predictions must equal the real ones exactly; the caller checks that.

use crate::trace::{span, Recorder};
use crate::TrainCounters;
use gmp_backend::{ComputeBackend, KernelContext, RowScorer};
use gmp_datasets::Dataset;
use gmp_gpusim::cost::KernelCost;
use gmp_gpusim::{Device, DeviceConfig, Executor, Stream};
use gmp_kernel::shared::SharedStoreStats;
use gmp_kernel::{
    ClassLayout, KernelOracle, KernelRows, RowProviderStats, SharedKernelStore, SharedRows,
};
use gmp_prob::{couple_gaussian, sigmoid_predict, sigmoid_train, PairwiseProbs};
use gmp_smo::{decision_values_from_f, BatchedSmoSolver};
use gmp_sparse::{CsrMatrix, DenseMatrix};
use gmp_svm::model::SvPoolBuilder;
use gmp_svm::{ovo, BinarySvm, MpSvmModel, SvmParams};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One `batch_kernel_rows` call, kept for the isolated backend A/B.
pub struct RowLaunch {
    pub row_ids: Vec<usize>,
    pub cols: Range<usize>,
}

#[derive(Default)]
pub struct LaunchLog {
    pub rows: Vec<RowLaunch>,
    pub row_values: u64,
    pub sv_values: u64,
    pub scored_rows: u64,
}

/// `ComputeBackend` decorator: one span per hot-op call, plus counts.
pub struct TimedBackend {
    inner: Arc<dyn ComputeBackend>,
    rec: Arc<Recorder>,
    pub log: Mutex<LaunchLog>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn ComputeBackend>, rec: Arc<Recorder>) -> Self {
        TimedBackend {
            inner,
            rec,
            log: Mutex::new(LaunchLog::default()),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, LaunchLog> {
        self.log.lock().expect("launch log poisoned")
    }
}

impl ComputeBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn batch_kernel_rows(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        row_ids: &[usize],
        cols: Range<usize>,
        out: &mut DenseMatrix,
    ) -> u64 {
        let id = self.rec.open("backend.rows", exec.elapsed());
        let values = self
            .inner
            .batch_kernel_rows(ctx, exec, row_ids, cols.clone(), out);
        let mut log = self.log();
        log.row_values += values;
        log.rows.push(RowLaunch {
            row_ids: row_ids.to_vec(),
            cols,
        });
        drop(log);
        self.rec.close(id, exec.elapsed());
        values
    }

    fn test_sv_matrix(
        &self,
        ctx: &KernelContext<'_>,
        exec: &dyn Executor,
        test: &CsrMatrix,
        test_rows: &[usize],
        test_norms: &[f64],
        out: &mut DenseMatrix,
    ) -> u64 {
        let id = self.rec.open("backend.sv", exec.elapsed());
        let values = self
            .inner
            .test_sv_matrix(ctx, exec, test, test_rows, test_norms, out);
        self.log().sv_values += values;
        self.rec.close(id, exec.elapsed());
        values
    }

    fn score_rows(
        &self,
        exec: &dyn Executor,
        block: &DenseMatrix,
        scorers: &[RowScorer<'_>],
        host_threads: usize,
        out: &mut [Vec<f64>],
    ) {
        let id = self.rec.open("backend.score", exec.elapsed());
        self.inner
            .score_rows(exec, block, scorers, host_threads, out);
        self.log().scored_rows += out.len() as u64;
        self.rec.close(id, exec.elapsed());
    }
}

/// `KernelRows` decorator around `SharedRows`: one span per fetch.
struct TimedRows<'a> {
    inner: SharedRows,
    rec: Option<&'a Recorder>,
    fetches: u64,
}

impl KernelRows for TimedRows<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn diag(&self, i: usize) -> f64 {
        self.inner.diag(i)
    }

    fn ensure(&mut self, exec: &dyn Executor, ids: &[usize]) {
        self.fetches += 1;
        let inner = &mut self.inner;
        span(self.rec, "kernel.fetch", &|| exec.elapsed(), || {
            inner.ensure(exec, ids)
        });
    }

    fn row(&self, id: usize) -> &[f64] {
        self.inner.row(id)
    }

    fn is_resident(&self, id: usize) -> bool {
        self.inner.is_resident(id)
    }

    fn stats(&self) -> RowProviderStats {
        self.inner.stats()
    }
}

pub struct TrainReplay {
    pub model: MpSvmModel,
    pub counters: TrainCounters,
    pub sim_s: f64,
    pub store: SharedStoreStats,
    pub fetches: u64,
    pub sigmoid_fits: u64,
    pub newton_iters: u64,
    /// The class-grouped training matrix the kernel rows are over.
    pub grouped: CsrMatrix,
}

/// Replay `MpSvmTrainer::train` for `Backend::Gmp` on one host thread.
pub fn train(
    data: &Dataset,
    params: &SvmParams,
    device_cfg: &DeviceConfig,
    backend: Arc<dyn ComputeBackend>,
    rec: Option<&Recorder>,
) -> Result<TrainReplay, String> {
    let root = rec.map(|r| r.open("replay.train", 0.0));
    let k = data.n_classes();
    let (grouped, offsets, _map, problems) =
        span(rec, "core.decompose", &|| 0.0, || ovo::decompose(data));

    let device = Device::new(device_cfg.clone());
    let setup = Stream::new(device.clone(), 1.0);
    let (_data_mem, store, conc) = span(rec, "core.setup", &|| setup.elapsed(), || {
        let data_bytes = grouped.x.mem_bytes() as u64;
        let data_mem = device.alloc(data_bytes).map_err(|e| e.to_string())?;
        setup.charge_transfer(data_bytes);
        let oracle = Arc::new(
            KernelOracle::new(Arc::new(grouped.x.clone()), params.kernel).with_backend(backend),
        );
        let n = grouped.n();
        let budget = ((4096 * n * 8) as u64)
            .max(1 << 20)
            .min(device.mem_available() / 2)
            .max(1 << 16);
        let store = Arc::new(
            SharedKernelStore::new(
                oracle,
                ClassLayout::new(offsets.clone()),
                budget,
                Some(&device),
            )
            .map_err(|e| e.to_string())?,
        );
        // Auto concurrency: at most 8 problems whose working-set regions fit.
        let footprint = |p: &ovo::BinaryProblem| (params.ws_size.min(p.n()) * p.n() * 8) as u64;
        let mut conc = 8.min(problems.len()).max(1);
        while conc > 1 {
            let mut worst: Vec<u64> = problems.iter().map(footprint).collect();
            worst.sort_unstable_by(|a, b| b.cmp(a));
            if worst.iter().take(conc).sum::<u64>() <= device.mem_available() {
                break;
            }
            conc -= 1;
        }
        Ok::<_, String>((data_mem, store, conc))
    })?;
    let mut total_sim = setup.elapsed();

    let solver = BatchedSmoSolver::new(params.batched());
    let mut fits = Vec::with_capacity(problems.len());
    let (mut fetches, mut newton_iters) = (0u64, 0u64);
    let indices: Vec<usize> = (0..problems.len()).collect();
    for wave in indices.chunks(conc) {
        if let Some(r) = rec {
            r.set_sim_base(total_sim);
        }
        let frac = 1.0 / wave.len() as f64;
        let mut ws_mems = Vec::with_capacity(wave.len());
        for &pi in wave {
            let p = &problems[pi];
            let bytes = (params.ws_size.min(p.n()) * p.n() * 8) as u64;
            ws_mems.push(device.alloc(bytes).map_err(|e| e.to_string())?);
        }
        let mut wave_max = 0.0f64;
        for &pi in wave {
            let p = &problems[pi];
            let stream = Stream::new(device.clone(), frac);
            let clock = || stream.elapsed();
            let mut rows = TimedRows {
                inner: SharedRows::new(store.clone(), p.s as usize, p.t as usize, params.ws_size),
                rec,
                fetches: 0,
            };
            let caps = vec![params.c; p.n()];
            let result = span(rec, "smo.solve", &clock, || {
                solver.solve_weighted(&p.y, &mut rows, &stream, &caps)
            });
            fetches += rows.fetches;
            let sigmoid = span(rec, "probability.sigmoid", &clock, || {
                let v = decision_values_from_f(&result.f, &p.y, result.rho);
                let sp = sigmoid_train(&v, &p.y);
                let n = p.y.len() as u64;
                for _ in 0..sp.iterations {
                    stream.charge(KernelCost::map(n, 12, 16));
                    stream.charge(KernelCost::reduction(n));
                    stream.charge(KernelCost::reduction(n));
                }
                sp
            });
            newton_iters += u64::from(sigmoid.iterations);
            wave_max = wave_max.max(stream.elapsed());
            fits.push((pi, result, sigmoid));
        }
        drop(ws_mems);
        total_sim += wave_max;
    }
    if let Some(r) = rec {
        r.set_sim_base(0.0);
    }

    let (model, counters) = span(rec, "core.assemble", &|| total_sim, || {
        let mut pool = SvPoolBuilder::new();
        let mut binaries = Vec::with_capacity(problems.len());
        let mut c = TrainCounters {
            converged: true,
            ..TrainCounters::default()
        };
        for (pi, r, sigmoid) in &fits {
            let p = &problems[*pi];
            let mut sv_idx = Vec::new();
            let mut coef = Vec::new();
            for (local, &a) in r.alpha.iter().enumerate() {
                if a > 0.0 {
                    sv_idx.push(pool.intern(p.original_index[local]));
                    coef.push(p.y[local] * a);
                }
            }
            c.kernel_evals += r.telemetry.rows.kernel_evals;
            c.rows_computed += r.telemetry.rows.rows_computed;
            c.buffer_hits += r.telemetry.rows.buffer_hits;
            c.iterations += r.iterations;
            c.outer_rounds += r.outer_rounds;
            c.converged &= r.converged;
            binaries.push(BinarySvm {
                s: p.s,
                t: p.t,
                sv_idx,
                coef,
                rho: r.rho,
                sigmoid: Some(*sigmoid),
            });
        }
        let model = MpSvmModel {
            classes: k,
            kernel: params.kernel,
            sv_pool: pool.build(&data.x),
            binaries,
        };
        c.n_sv = model.n_sv() as u64;
        (model, c)
    });
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id, total_sim);
    }
    Ok(TrainReplay {
        model,
        counters,
        sim_s: total_sim,
        store: store.stats(),
        fetches,
        sigmoid_fits: fits.len() as u64,
        newton_iters,
        grouped: grouped.x,
    })
}

pub struct PredictReplay {
    pub labels: Vec<u32>,
    pub probabilities: Vec<Vec<f64>>,
    pub decision_values: Vec<Vec<f64>>,
    pub kernel_evals: u64,
    pub sim_s: f64,
    pub sim_decision_s: f64,
    pub sim_sigmoid_s: f64,
    pub sim_coupling_s: f64,
}

/// Replay `MpSvmModel::predict` for `Backend::Gmp` (shared SV pool) on one
/// host thread.
pub fn predict(
    model: &MpSvmModel,
    test: &CsrMatrix,
    device_cfg: &DeviceConfig,
    backend: Arc<dyn ComputeBackend>,
    rec: Option<&Recorder>,
) -> Result<PredictReplay, String> {
    let root = rec.map(|r| r.open("replay.predict", 0.0));
    let device = Device::new(device_cfg.clone());
    let exec = Stream::new(device.clone(), 1.0);
    let clock = || exec.elapsed();
    let m = test.nrows();
    let k = model.classes;
    let nb = model.binaries.len();
    let n_sv = model.sv_pool.nrows();
    let mut dv = vec![vec![0.0f64; nb]; m];
    let mut kernel_evals = 0;
    span(rec, "core.predict.decision", &clock, || {
        let oracle =
            KernelOracle::new(Arc::new(model.sv_pool.clone()), model.kernel).with_backend(backend);
        let bytes = model.sv_pool.mem_bytes() as u64;
        let _sv_mem = device.alloc(bytes).map_err(|e| e.to_string())?;
        exec.charge_transfer(bytes);
        let scorers: Vec<RowScorer<'_>> = model
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
        // Test rows per kernel block: a quarter of free device memory.
        let budget = (device.mem_available() / 4).max(1 << 20);
        let chunk = ((budget / (n_sv.max(1) as u64 * 8)) as usize).clamp(1, m.max(1));
        let mut start = 0;
        while start < m {
            let end = (start + chunk).min(m);
            let rows: Vec<usize> = (start..end).collect();
            let _block_mem = device
                .alloc((rows.len() * n_sv * 8) as u64)
                .map_err(|e| e.to_string())?;
            let mut block = DenseMatrix::zeros(rows.len(), n_sv);
            oracle.compute_cross(&exec, test, &rows, &mut block);
            oracle.score_rows(&exec, &block, &scorers, &mut dv[start..end]);
            start = end;
        }
        kernel_evals = oracle.eval_count();
        Ok::<_, String>(())
    })?;
    let sim_decision_s = exec.elapsed();

    let sim_sigmoid_start = exec.elapsed();
    let pairwise: Vec<PairwiseProbs> = span(rec, "probability.sigmoid_predict", &clock, || {
        let out = dv
            .iter()
            .map(|row| {
                let mut r = PairwiseProbs::new(k.max(2));
                for (b, &v) in model.binaries.iter().zip(row) {
                    let sig = b.sigmoid.as_ref().expect("trained with probability");
                    r.set(b.s as usize, b.t as usize, sigmoid_predict(v, sig));
                }
                r
            })
            .collect();
        exec.charge(KernelCost::map((m * nb) as u64, 8, 16));
        out
    });
    let sim_sigmoid_s = exec.elapsed() - sim_sigmoid_start;

    let sim_coupling_start = exec.elapsed();
    let probabilities: Vec<Vec<f64>> = span(rec, "probability.couple", &clock, || {
        exec.charge(KernelCost::map(
            m as u64,
            ((k * k * k) / 3).max(1) as u64,
            (k * k * 8) as u64,
        ));
        pairwise.iter().map(couple_gaussian).collect()
    });
    let labels = span(rec, "core.predict.labels", &clock, || {
        probabilities.iter().map(|p| argmax(p) as u32).collect()
    });
    let sim_coupling_s = exec.elapsed() - sim_coupling_start;
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id, exec.elapsed());
    }
    Ok(PredictReplay {
        labels,
        probabilities,
        decision_values: dv,
        kernel_evals,
        sim_s: exec.elapsed(),
        sim_decision_s,
        sim_sigmoid_s,
        sim_coupling_s,
    })
}

/// First maximum, as `MpSvmModel::predict` picks it.
fn argmax(p: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in p.iter().enumerate() {
        if v > p[best] {
            best = i;
        }
    }
    best
}
