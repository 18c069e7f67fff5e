//! The traced run: per-layer metrics from the replay, the real trainer and
//! predictor, the serving engine and a short serve session, plus the
//! Chrome trace file. Fidelity failures count as failed operations.

use crate::json::Obj;
use crate::load::{run_rung, Load, ServerProc};
use crate::replay::{self, TimedBackend};
use crate::session::{data_json, rungs_json};
use crate::stats::{median, quantile, Metrics};
use crate::trace::{self, Recorder};
use crate::workload;
use crate::{Config, Ops, TrainCounters};
use gmp_backend::{BlockedBackend, ComputeBackend, KernelContext, ScalarBackend};
use gmp_gpusim::{CpuExecutor, DeviceConfig};
use gmp_kernel::KernelOracle;
use gmp_serve::PredictorEngine;
use gmp_sparse::DenseMatrix;
use gmp_svm::{ComputeBackendKind, MpSvmModel, MpSvmTrainer, PredictOutcome, TrainReport};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each replay and of each real path.
const REPS: usize = 5;
/// Layer self times must add up to the replay wall time within this share.
const MAX_LAYER_GAP: f64 = 0.10;
/// Seconds of serving at the nominal rate.
const SERVE_SHARE: f64 = 0.2;

pub struct TracedOut {
    pub metrics: Metrics,
    pub detail: String,
    pub ops: Ops,
    pub trace_json_spans: Vec<trace::Span>,
}

/// What one traced replay measured.
struct Rep {
    wall_s: f64,
    spans: Vec<trace::Span>,
    rows_values: u64,
    rows_launches: u64,
    sv_values: u64,
    scored_rows: u64,
    launches: Vec<replay::RowLaunch>,
}

pub fn run(cfg: &Config) -> std::io::Result<TracedOut> {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let params = workload::params(cfg.dataset);
    let backend = workload::backend();
    let device = DeviceConfig::tesla_p100();

    let mut gen_s = Vec::new();
    let mut data = None;
    for _ in 0..REPS {
        let t = Instant::now();
        data = Some(workload::generate(cfg.dataset, cfg.scale, cfg.seed).0);
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let data = data.expect("generated at least once");
    let test = &data.test.x;
    let rows = test.nrows() as f64;

    // --- The real trainer at the pinned thread count and at one thread,
    // alternating, so that a slow spell of the host weighs on both sides of
    // `core.host_speedup` alike.
    let trainers = [cfg.threads, 1]
        .map(|threads| MpSvmTrainer::new(params, backend.clone()).with_host_threads(Some(threads)));
    let mut walls = [Vec::new(), Vec::new()];
    let mut firsts = [None, None];
    for _ in 0..REPS {
        for (side, trainer) in trainers.iter().enumerate() {
            let t = Instant::now();
            match trainer.train(&data.train) {
                Ok(out) => {
                    walls[side].push(t.elapsed().as_secs_f64());
                    ops.ok();
                    firsts[side].get_or_insert(out);
                }
                Err(e) => ops.fail(format!("train: {e}")),
            }
        }
    }
    let [train_s, train_1t_s] = walls;
    let [Some(real), Some(real_1t)] = firsts else {
        return Err(std::io::Error::other("real training failed"));
    };
    let real_counters = TrainCounters::of(&real.report, &real.model);
    ops.check(
        TrainCounters::of(&real_1t.report, &real_1t.model) == real_counters
            && real_1t.model == real.model,
        || "train: 1-thread and pinned-thread runs disagree".into(),
    );

    // --- The real bulk predict.
    let mut predict_s = Vec::new();
    let mut bulk: Option<PredictOutcome> = None;
    for _ in 0..REPS {
        let t = Instant::now();
        match real.model.predict(test, &backend) {
            Ok(out) => {
                predict_s.push(t.elapsed().as_secs_f64());
                ops.ok();
                bulk.get_or_insert(out);
            }
            Err(e) => ops.fail(format!("predict: {e}")),
        }
    }
    let bulk = bulk.ok_or_else(|| std::io::Error::other("real predict failed"))?;

    // --- Replays, untraced and traced alternately.
    let mut untraced_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut store = None;
    let mut grouped = None;
    let mut replay_extra = (0u64, 0u64, 0u64);
    for _ in 0..REPS {
        let t = Instant::now();
        let tr = replay::train(&data.train, &params, &device, scalar(), None);
        let pr = tr
            .as_ref()
            .ok()
            .map(|tr| replay::predict(&tr.model, test, &device, scalar(), None));
        untraced_s.push(t.elapsed().as_secs_f64());
        if !matches!(pr, Some(Ok(_))) {
            ops.fail("untraced replay failed".into());
        }

        let rec = Arc::new(Recorder::default());
        let timed = Arc::new(TimedBackend::new(scalar(), rec.clone()));
        let t = Instant::now();
        let tr = replay::train(&data.train, &params, &device, timed.clone(), Some(&rec));
        let pr = tr
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|tr| replay::predict(&tr.model, test, &device, timed.clone(), Some(&rec)));
        let wall_s = t.elapsed().as_secs_f64();
        let (tr, pr) = match (tr, pr) {
            (Ok(tr), Ok(pr)) => (tr, pr),
            (Err(e), _) | (_, Err(e)) => {
                ops.fail(format!("traced replay: {e}"));
                continue;
            }
        };
        // Fidelity: the replay must be the trainer and the predictor.
        ops.check(tr.counters == real_counters, || {
            format!(
                "replay drifted from the trainer: {:?} vs {real_counters:?}",
                tr.counters
            )
        });
        ops.check(tr.model == real.model, || {
            "replay model differs from the trained model".into()
        });
        // The sequential trainer is the simulated-time reference (see
        // `session.rs` for why the threaded one is not).
        ops.check(close(tr.sim_s, real_1t.report.sim_s), || {
            format!(
                "replay sim {} vs trainer {}",
                tr.sim_s, real_1t.report.sim_s
            )
        });
        ops.check(
            tr.store.segments_computed == tr.counters.rows_computed,
            || "store segments computed differ from rows computed".into(),
        );
        ops.check(
            pr.labels == bulk.labels
                && pr.probabilities == bulk.probabilities
                && pr.decision_values == bulk.decision_values,
            || "replay predictions differ from MpSvmModel::predict".into(),
        );
        ops.check(
            pr.kernel_evals == bulk.report.kernel_evals
                && close(pr.sim_s, bulk.report.sim_s)
                && close(pr.sim_decision_s, bulk.report.sim_decision_s)
                && close(pr.sim_sigmoid_s, bulk.report.sim_sigmoid_s)
                && close(pr.sim_coupling_s, bulk.report.sim_coupling_s),
            || "replay predict counters or simulated split differ".into(),
        );
        if let Some(s) = &store {
            ops.check(*s == tr.store, || {
                "store stats differ between replays".into()
            });
        }
        store = Some(tr.store);
        replay_extra = (tr.fetches, tr.sigmoid_fits, tr.newton_iters);
        let log = std::mem::take(&mut *timed.log.lock().expect("launch log poisoned"));
        reps.push(Rep {
            wall_s,
            spans: rec.take(),
            rows_values: log.row_values,
            rows_launches: log.rows.len() as u64,
            sv_values: log.sv_values,
            scored_rows: log.scored_rows,
            launches: log.rows,
        });
        // The grouped matrix is needed for the isolated A/B below.
        grouped.get_or_insert(tr.grouped);
    }
    if reps.is_empty() {
        return Err(std::io::Error::other("no traced replay succeeded"));
    }
    let store = store.unwrap_or_default();
    let (fetches, sigmoid_fits, newton_iters) = replay_extra;

    // --- Per-rep layer numbers; times are medians over reps.
    let per_rep =
        |f: &dyn Fn(&Rep, &std::collections::BTreeMap<&'static str, trace::Agg>) -> f64| {
            reps.iter()
                .map(|r| f(r, &trace::by_name(&r.spans)))
                .collect::<Vec<f64>>()
        };
    let get = |a: &std::collections::BTreeMap<&'static str, trace::Agg>, n: &str| {
        a.get(n).copied().unwrap_or_default()
    };
    let gaps = per_rep(&|r, _| {
        let roots: f64 = r
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(trace::Span::wall)
            .sum();
        let layers: f64 = trace::by_layer(&r.spans)
            .iter()
            .filter(|(l, _)| **l != "replay")
            .map(|(_, s)| s)
            .sum();
        (layers - roots).abs() / roots
    });
    let gap = median(&gaps);
    ops.check(gap <= MAX_LAYER_GAP, || {
        format!("layer self times miss the replay wall by {gap:.3} (> {MAX_LAYER_GAP})")
    });
    let rep0 = &reps[0];

    // --- Isolated backend A/B: the recorded launches on scalar and blocked.
    let grouped = grouped.expect("kept with the first traced replay");
    let norms = grouped.row_norms_sq();
    let ctx = KernelContext {
        data: &grouped,
        norms: &norms,
        kind: params.kernel,
        host_threads: 1,
    };
    let (rows_scalar_s, rows_blocked_s, rows_same) = replay_launches(&ctx, &rep0.launches);
    ops.check(rows_same, || {
        "blocked kernel rows differ from scalar bit for bit".into()
    });
    let (sv_scalar_s, sv_blocked_s, sv_same) = cross_ab(&real.model, test);
    ops.check(sv_same, || {
        "blocked test x SV block differs from scalar bit for bit".into()
    });

    // --- Serving engine per-row cost at batch 1 and 16.
    let engine = PredictorEngine::with_compute_backend(
        real.model.clone(),
        backend.clone(),
        Some(1),
        ComputeBackendKind::Scalar,
    )
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    let b1 = engine_us_per_row(&engine, test, 1, &bulk, &mut ops);
    let b16 = engine_us_per_row(&engine, test, 16, &bulk, &mut ops);

    // --- Model file size and load time.
    let text = real.model.to_text();
    let mut load_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let parsed = MpSvmModel::from_text(&text);
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The text format drops the Newton iteration count, so compare text.
        ops.check(parsed.map(|p| p.to_text()).as_ref() == Ok(&text), || {
            "model text does not round-trip".into()
        });
    }

    // --- A short serve session at the nominal rate for the server counters.
    let model_path = cfg
        .out_dir
        .join(format!("model-{}-{}.txt", cfg.workload, cfg.seed));
    std::fs::write(&model_path, &text)?;
    let (server, _) = ServerProc::spawn(&cfg.serve_bin, &model_path, cfg.threads)?;
    let load = Load::new(&server.addr, test, &bulk, cfg.seed, cfg.threads);
    let rate = cfg.rates[cfg.nominal];
    let rung = run_rung(&load, rate, SERVE_SHARE * cfg.seconds, 0)?;
    ops.rung(&rung);
    let stats = server.stats()?;
    server.shutdown()?;

    // --- Metrics, layer by layer.
    let ns = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let rows_ns = per_rep(&|r, a| ns(get(a, "backend.rows").wall_s, r.rows_values));
    m.samples("backend.rows.ns_per_value", "ns", &rows_ns);
    m.value("backend.rows.values", "count", rep0.rows_values as f64);
    m.value("backend.rows.launches", "count", rep0.rows_launches as f64);
    m.samples(
        "backend.rows.ns_per_value.scalar_replay",
        "ns",
        &rows_scalar_s
            .iter()
            .map(|s| ns(*s, rep0.rows_values))
            .collect::<Vec<_>>(),
    );
    m.samples(
        "backend.rows.ns_per_value.blocked",
        "ns",
        &rows_blocked_s
            .iter()
            .map(|s| ns(*s, rep0.rows_values))
            .collect::<Vec<_>>(),
    );
    let sv_ns = per_rep(&|r, a| ns(get(a, "backend.sv").wall_s, r.sv_values));
    m.samples("backend.sv.ns_per_value", "ns", &sv_ns);
    m.samples(
        "backend.sv.ns_per_value.scalar_replay",
        "ns",
        &sv_scalar_s
            .iter()
            .map(|s| ns(*s, rep0.sv_values))
            .collect::<Vec<_>>(),
    );
    m.samples(
        "backend.sv.ns_per_value.blocked",
        "ns",
        &sv_blocked_s
            .iter()
            .map(|s| ns(*s, rep0.sv_values))
            .collect::<Vec<_>>(),
    );
    let score_ns = per_rep(&|r, a| ns(get(a, "backend.score").wall_s, r.scored_rows));
    m.samples("backend.score.ns_per_row", "ns", &score_ns);

    m.samples(
        "kernel.fetch.self_s",
        "s",
        &per_rep(&|_, a| get(a, "kernel.fetch").self_s),
    );
    m.value("kernel.fetches", "count", fetches as f64);
    m.value(
        "kernel.segments_computed",
        "count",
        store.segments_computed as f64,
    );
    m.value("kernel.segment_hits", "count", store.segment_hits as f64);
    m.value("kernel.evals_saved", "count", store.evals_saved as f64);
    m.value("kernel.evictions", "count", store.evictions as f64);
    m.value(
        "kernel.hit_ratio",
        "ratio",
        store.segment_hits as f64 / (store.segment_hits + store.segments_computed).max(1) as f64,
    );

    let smo_self = per_rep(&|_, a| get(a, "smo.solve").self_s);
    m.samples("smo.self_s", "s", &smo_self);
    let rounds = real_counters.outer_rounds;
    m.samples(
        "smo.us_per_round",
        "us",
        &smo_self
            .iter()
            .map(|s| s * 1e6 / rounds.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    m.value("smo.outer_rounds", "count", rounds as f64);
    m.value("smo.iterations", "count", real_counters.iterations as f64);
    phases(&mut m, &real_1t.report);

    m.samples(
        "probability.sigmoid_s",
        "s",
        &per_rep(&|_, a| get(a, "probability.sigmoid").wall_s),
    );
    m.value("probability.sigmoid_fits", "count", sigmoid_fits as f64);
    m.value("probability.newton_iters", "count", newton_iters as f64);
    m.samples(
        "probability.couple_us_per_row",
        "us",
        &per_rep(&|_, a| get(a, "probability.couple").wall_s * 1e6 / rows),
    );

    let t1 = median(&train_1t_s);
    m.samples("core.train_1t_s", "s", &train_1t_s);
    m.value("core.host_speedup", "ratio", t1 / median(&train_s));
    m.value("core.concurrency", "count", real.report.concurrency as f64);
    m.value(
        "core.peak_device_mem_mb",
        "MiB",
        real.report.peak_device_mem as f64 / (1 << 20) as f64,
    );
    m.samples(
        "core.predict.us_per_row",
        "us",
        &predict_s.iter().map(|s| s * 1e6 / rows).collect::<Vec<_>>(),
    );
    let pr = &bulk.report;
    m.value("core.predict.kernel_evals", "count", pr.kernel_evals as f64);
    m.value(
        "core.predict.sv_sharing_saving",
        "ratio",
        pr.sharing_saving(),
    );
    m.value("core.predict.sim_decision_s", "s", pr.sim_decision_s);
    m.value("core.predict.sim_sigmoid_s", "s", pr.sim_sigmoid_s);
    m.value("core.predict.sim_coupling_s", "s", pr.sim_coupling_s);
    m.value("core.model_bytes", "bytes", text.len() as f64);
    m.samples("core.model_load_ms", "ms", &load_ms);

    m.samples("serve.engine.us_per_row.b1", "us", &b1);
    m.samples("serve.engine.us_per_row.b16", "us", &b16);
    let stat = |k: &str| stats_field(&stats, k);
    m.value("serve.mean_batch_size", "rows", stat("mean_batch_size"));
    m.value("serve.peak_queue_depth", "count", stat("peak_queue_depth"));
    m.value("serve.rejected", "count", stat("rejected_overload"));
    m.value("serve.expired", "count", stat("expired_deadline"));
    m.value("serve.failed", "count", stat("failed"));
    m.value(
        "serve.generator_late_ms",
        "ms",
        quantile(&rung.late_ms, 0.99),
    );
    m.samples("serve.client_p50_ms", "ms", &rung.latency_ms);
    m.value(
        "serve.client_p99_ms",
        "ms",
        quantile(&rung.latency_ms, 0.99),
    );
    m.value("serve.stalled_share", "ratio", rung.stalled_share());

    m.samples("datasets.generate_s", "s", &gen_s);

    let traced: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    m.value(
        "trace.overhead",
        "ratio",
        median(&traced) / median(&untraced_s),
    );
    m.value("trace.layer_sum_gap", "ratio", gap);

    let layer_self: Vec<String> = trace::by_layer(&rep0.spans)
        .iter()
        .map(|(l, s)| format!("{}: {}", crate::json::quote(l), crate::json::num(*s)))
        .collect();
    let detail = Obj::new()
        .raw("data", &data_json(&data))
        .raw("train_counters", &real_counters.to_json())
        .int("predict_kernel_evals", bulk.report.kernel_evals)
        .raw("layer_self_s", &format!("{{{}}}", layer_self.join(", ")))
        .nums("replay_traced_s", &traced)
        .nums("replay_untraced_s", &untraced_s)
        .raw(
            "serve",
            &Obj::new()
                .raw(
                    "rungs",
                    &rungs_json(std::slice::from_ref(&rung), cfg.p99_limit_ms),
                )
                .raw("server_stats_coarse", &stats)
                .finish(),
        )
        .finish();
    let spans = reps.swap_remove(0).spans;
    Ok(TracedOut {
        metrics: m,
        detail,
        ops,
        trace_json_spans: spans,
    })
}

fn scalar() -> Arc<dyn ComputeBackend> {
    Arc::new(ScalarBackend)
}

/// Equal up to float summation noise (the replay repeats every charge in
/// the same order, so this is normally exact).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn phases(m: &mut Metrics, r: &TrainReport) {
    m.value("smo.wall_subproblem_s", "s", r.wall_phases.subproblem_s);
    m.value("smo.wall_other_s", "s", r.wall_phases.other_s);
    m.value("smo.sim_kernel_s", "s", r.sim_phases.kernel_s);
    m.value("smo.sim_subproblem_s", "s", r.sim_phases.subproblem_s);
    m.value("smo.sim_other_s", "s", r.sim_phases.other_s);
}

/// Replay every recorded row launch on scalar and on blocked, alternating
/// which goes first; returns per-pass totals and whether all outputs
/// matched bit for bit.
fn replay_launches(
    ctx: &KernelContext<'_>,
    launches: &[replay::RowLaunch],
) -> (Vec<f64>, Vec<f64>, bool) {
    let exec = CpuExecutor::xeon(1);
    let (mut scalar_s, mut blocked_s) = (Vec::new(), Vec::new());
    let mut same = true;
    let mut a = DenseMatrix::zeros(0, 0);
    let mut b = DenseMatrix::zeros(0, 0);
    for pass in 0..REPS {
        let (mut ts, mut tb) = (0.0, 0.0);
        for l in launches {
            a.reset(l.row_ids.len(), l.cols.len());
            b.reset(l.row_ids.len(), l.cols.len());
            let run = |backend: &dyn ComputeBackend, out: &mut DenseMatrix| {
                let t = Instant::now();
                backend.batch_kernel_rows(ctx, &exec, &l.row_ids, l.cols.clone(), out);
                t.elapsed().as_secs_f64()
            };
            if pass % 2 == 0 {
                ts += run(&ScalarBackend, &mut a);
                tb += run(&BlockedBackend, &mut b);
            } else {
                tb += run(&BlockedBackend, &mut b);
                ts += run(&ScalarBackend, &mut a);
            }
            same &= bits_equal(a.as_slice(), b.as_slice());
        }
        scalar_s.push(ts);
        blocked_s.push(tb);
    }
    (scalar_s, blocked_s, same)
}

/// The test x SV-pool block via `KernelOracle::compute_cross` on scalar and
/// on blocked.
fn cross_ab(model: &MpSvmModel, test: &gmp_sparse::CsrMatrix) -> (Vec<f64>, Vec<f64>, bool) {
    let exec = CpuExecutor::xeon(1);
    let pool = Arc::new(model.sv_pool.clone());
    let scalar_oracle = KernelOracle::new(pool.clone(), model.kernel).with_backend(scalar());
    let blocked_oracle =
        KernelOracle::new(pool, model.kernel).with_backend(Arc::new(BlockedBackend));
    let rows: Vec<usize> = (0..test.nrows()).collect();
    let mut a = DenseMatrix::zeros(rows.len(), model.n_sv());
    let mut b = DenseMatrix::zeros(rows.len(), model.n_sv());
    let (mut ts, mut tb) = (Vec::new(), Vec::new());
    for pass in 0..REPS {
        let run = |o: &KernelOracle, out: &mut DenseMatrix| {
            let t = Instant::now();
            o.compute_cross(&exec, test, &rows, out);
            t.elapsed().as_secs_f64()
        };
        if pass % 2 == 0 {
            ts.push(run(&scalar_oracle, &mut a));
            tb.push(run(&blocked_oracle, &mut b));
        } else {
            tb.push(run(&blocked_oracle, &mut b));
            ts.push(run(&scalar_oracle, &mut a));
        }
    }
    (ts, tb, bits_equal(a.as_slice(), b.as_slice()))
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-row cost of `PredictorEngine::predict_batch` at a fixed batch size
/// over consecutive test rows; every reply must equal the bulk predict.
fn engine_us_per_row(
    engine: &PredictorEngine,
    test: &gmp_sparse::CsrMatrix,
    batch: usize,
    bulk: &PredictOutcome,
    ops: &mut Ops,
) -> Vec<f64> {
    let calls = (test.nrows() / batch).clamp(1, 200);
    let mut out = Vec::with_capacity(calls);
    for c in 0..calls {
        let rows: Vec<usize> = (c * batch..((c + 1) * batch).min(test.nrows())).collect();
        let sub = test.select_rows(&rows);
        let t = Instant::now();
        let res = engine.predict_batch(&sub);
        out.push(t.elapsed().as_secs_f64() * 1e6 / rows.len() as f64);
        match res {
            Ok(p) => ops.check(
                rows.iter().enumerate().all(|(i, &r)| {
                    p.labels[i] == bulk.labels[r] && p.probabilities[i] == bulk.probabilities[r]
                }),
                || format!("engine batch {batch} differs from bulk predict"),
            ),
            Err(e) => ops.fail(format!("engine batch {batch}: {e}")),
        }
    }
    out
}

/// A numeric field of the server's one-line `STATS` JSON.
fn stats_field(stats: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    stats
        .find(&pat)
        .map(|i| &stats[i + pat.len()..])
        .and_then(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(f64::NAN)
}
