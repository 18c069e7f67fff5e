//! The untraced end-to-end session: generate → train → write → predict →
//! serve, each user path repeated within its share of the run budget.

use crate::json::Obj;
use crate::load::{run_rung, Load, Rung, ServerProc};
use crate::stats::{median, quantile, Metrics};
use crate::workload;
use crate::{Config, Ops, TrainCounters};
use gmp_datasets::SplitDataset;
use gmp_svm::{MpSvmModel, MpSvmTrainer, PredictOutcome};
use std::path::Path;
use std::time::Instant;

/// Share of `--seconds` for the interleaved train / predict / set-up
/// rounds; the serve ladder gets the rest.
const ROUNDS_SHARE: f64 = 0.40;
/// Per round, predict for about this share of the round's training time.
const PREDICT_PER_TRAIN: f64 = 0.33;
const NOMINAL_SHARE: f64 = 0.25;
const RUNG_SHARE: f64 = 0.05;
/// The nominal rung runs long enough for a p99 with ten samples above it.
const NOMINAL_MIN_SAMPLES: f64 = 1100.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Fresh processes measured for `peak_rss_mb`.
const RSS_PROBES: usize = 3;

pub struct SessionOut {
    pub metrics: Metrics,
    pub detail: String,
    pub ops: Ops,
}

pub fn run(cfg: &Config) -> std::io::Result<SessionOut> {
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    let mut setup = Setup::default();
    let model_path = cfg
        .out_dir
        .join(format!("model-{}-{}.txt", cfg.workload, cfg.seed));
    let (data, quality) = workload::generate(cfg.dataset, cfg.scale, cfg.seed);
    let test = &data.test.x;
    let rows = test.nrows() as f64;
    let params = workload::params(cfg.dataset);
    let backend = workload::backend();
    let trainer = MpSvmTrainer::new(params, backend.clone()).with_host_threads(Some(cfg.threads));

    // --- Rounds of train, predict and set-up, so that a slow spell of the
    // host touches a few repetitions of every path instead of all of one.
    // Every repetition must reproduce the first one's counters and bits.
    let mut train_s = Vec::new();
    let mut predict_s = Vec::new();
    let mut first: Option<(MpSvmModel, TrainCounters, String)> = None;
    let mut bulk: Option<PredictOutcome> = None;
    let phase = Instant::now();
    for round in 0..500 {
        let done = round >= 3 && setup.spawn_s.len() >= SETUPS;
        if done && phase.elapsed().as_secs_f64() >= ROUNDS_SHARE * cfg.seconds {
            break;
        }
        let t = Instant::now();
        let out = trainer.train(&data.train);
        let wall = t.elapsed().as_secs_f64();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                ops.fail(format!("train: {e}"));
                continue;
            }
        };
        train_s.push(wall);
        let c = TrainCounters::of(&out.report, &out.model);
        let Some((model, c0, text)) = &first else {
            ops.check(c.converged, || "train: a binary did not converge".into());
            let text = out.model.to_text();
            first = Some((out.model, c, text));
            continue;
        };
        ops.check(&c == c0 && out.model == *model, || {
            format!("train: repetition drifted: {c:?} vs {c0:?}")
        });

        let t = Instant::now();
        while predict_s.is_empty() || t.elapsed().as_secs_f64() < PREDICT_PER_TRAIN * wall {
            let p0 = Instant::now();
            let out = model.predict(test, &backend);
            let wall = p0.elapsed().as_secs_f64();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    ops.fail(format!("predict: {e}"));
                    break;
                }
            };
            predict_s.push(wall);
            match &bulk {
                None => {
                    ops.ok();
                    bulk = Some(out);
                }
                Some(b) => ops.check(
                    out.labels == b.labels
                        && out.probabilities == b.probabilities
                        && out.report.kernel_evals == b.report.kernel_evals,
                    || "predict: repetition drifted".into(),
                ),
            }
        }

        if setup.spawn_s.len() < SETUPS {
            let t = Instant::now();
            let (again, again_quality) = workload::generate(cfg.dataset, cfg.scale, cfg.seed);
            setup.generate_s.push(t.elapsed().as_secs_f64());
            ops.check(
                same_split(&again, &data) && again_quality == quality,
                || "setup: data generation is not deterministic".into(),
            );
            let written = setup.write(model, &model_path)?;
            ops.check(written == *text, || "setup: model text changed".into());
            let (server, spawn_s) = ServerProc::spawn(&cfg.serve_bin, &model_path, cfg.threads)?;
            setup.spawn_s.push(spawn_s);
            server.shutdown()?;
        }
    }
    let (Some((model, counters, _)), Some(bulk)) = (first, bulk) else {
        return Err(std::io::Error::other("no train or predict run succeeded"));
    };

    // Simulated seconds come from one sequential training: with more host
    // threads, which problem's stream pays for a shared segment depends on
    // the interleaving, so the wave maxima vary from run to run.
    let sequential = MpSvmTrainer::new(params, backend.clone())
        .with_host_threads(Some(1))
        .train(&data.train)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    ops.check(
        TrainCounters::of(&sequential.report, &sequential.model) == counters
            && sequential.model == model,
        || "train: one-thread run differs from the pinned-thread runs".into(),
    );
    let train_sim_s = sequential.report.sim_s;

    // --- Serve: the rate ladder, open loop, replies checked bit for bit.
    let (server, _) = ServerProc::spawn(&cfg.serve_bin, &model_path, cfg.threads)?;
    let load = Load::new(&server.addr, test, &bulk, cfg.seed, cfg.threads);
    let rungs = run_ladder(cfg, &load, &mut ops)?;
    let stats = server.stats()?;
    server.shutdown()?;

    // --- Metrics.
    let setup_s: Vec<f64> = (0..setup.spawn_s.len())
        .map(|i| setup.generate_s[i] + setup.write_s[i] + setup.spawn_s[i])
        .collect();
    m.samples("setup_s", "s", &setup_s);
    m.samples("train_s", "s", &train_s);
    m.value("train_sim_s", "s", train_sim_s);
    let per_s: Vec<f64> = predict_s.iter().map(|s| rows / s).collect();
    m.samples("predict_rows_per_s", "1/s", &per_s);
    m.value("predict_sim_s", "s", bulk.report.sim_s);
    let nominal = &rungs[cfg.nominal.min(rungs.len() - 1)];
    m.samples("serve_p50_ms", "ms", &nominal.latency_ms);
    m.value("serve_p99_ms", "ms", quantile(&nominal.latency_ms, 0.99));
    let best = rungs.iter().rev().find(|r| r.meets(cfg.p99_limit_ms));
    m.value(
        "serve_max_rps",
        "1/s",
        best.map_or(f64::NAN, |r| r.achieved_rps()),
    );
    // Quality over the test split plus the extra held-out rows: label noise
    // makes a few confident mistakes dominate the log loss, and on the test
    // split alone its seed-to-seed spread is too wide to bound.
    let extra = model
        .predict(&quality.x, &backend)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let labels: Vec<u32> = bulk.labels.iter().chain(&extra.labels).copied().collect();
    let probs: Vec<Vec<f64>> = bulk
        .probabilities
        .iter()
        .chain(&extra.probabilities)
        .cloned()
        .collect();
    let truth: Vec<u32> = data.test.y.iter().chain(&quality.y).copied().collect();
    let test_error = gmp_svm::predict::error_rate(&labels, &truth);
    m.value("test_error", "fraction", test_error);
    m.value("test_accuracy", "fraction", 1.0 - test_error);
    m.value("test_log_loss", "nats", gmp_prob::log_loss(&probs, &truth));
    m.samples("peak_rss_mb", "MiB", &rss_probes(&mut ops)?);
    if best.is_none() {
        ops.fail(format!(
            "serve: no rung met the {} ms p99 limit",
            cfg.p99_limit_ms
        ));
    }

    let detail = Obj::new()
        .raw("data", &data_json(&data))
        .raw("train_counters", &counters.to_json())
        .int("predict_kernel_evals", bulk.report.kernel_evals)
        .raw("setup", &setup.to_json())
        .raw(
            "serve",
            &Obj::new()
                .raw("rungs", &rungs_json(&rungs, cfg.p99_limit_ms))
                .raw("server_stats_coarse", &stats)
                .finish(),
        )
        .finish();
    Ok(SessionOut {
        metrics: m,
        detail,
        ops,
    })
}

/// `peak_rss_mb` of a few fresh processes that each run one session; see
/// `rss_probe` in `main.rs`.
fn rss_probes(ops: &mut Ops) -> std::io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    let mut out = Vec::new();
    for _ in 0..RSS_PROBES {
        let probe = std::process::Command::new(&exe)
            .args(std::env::args_os().skip(1))
            .args(["--rss-probe", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let mib = String::from_utf8_lossy(&probe.stdout).trim().parse::<f64>();
        match mib {
            Ok(v) if probe.status.success() => out.push(v),
            _ => ops.fail(format!("rss probe failed: {}", probe.status)),
        }
    }
    Ok(out)
}

/// Ascending offered rates. Every rung up to the nominal one always runs
/// (the nominal rung is long enough for p99); above it the ladder stops at
/// the first rung that misses the limit, since higher rates only grow the
/// backlog.
fn run_ladder(cfg: &Config, load: &Load, ops: &mut Ops) -> std::io::Result<Vec<Rung>> {
    let mut rungs = Vec::new();
    let mut offset = 0usize;
    for (i, &rate) in cfg.rates.iter().enumerate() {
        let secs = if i == cfg.nominal {
            (NOMINAL_SHARE * cfg.seconds).max(NOMINAL_MIN_SAMPLES / rate)
        } else {
            RUNG_SHARE * cfg.seconds
        };
        let rung = run_rung(load, rate, secs, offset)?;
        offset += rung.sent;
        ops.rung(&rung);
        let meets = rung.meets(cfg.p99_limit_ms);
        rungs.push(rung);
        if i > cfg.nominal && !meets {
            break;
        }
    }
    Ok(rungs)
}

pub fn rungs_json(rungs: &[Rung], limit_ms: f64) -> String {
    let list: Vec<String> = rungs
        .iter()
        .map(|r| {
            Obj::new()
                .num("offered_rps", r.rate)
                .num("achieved_rps", r.achieved_rps())
                .int("sent", r.sent as u64)
                .int("ok", r.ok as u64)
                .int("failed", r.failed as u64)
                .num("p50_ms", median(&r.latency_ms))
                .num("p99_ms", quantile(&r.latency_ms, 0.99))
                .num("max_ms", quantile(&r.latency_ms, 1.0))
                .num("stalled_share", r.stalled_share())
                .num("generator_late_p99_ms", quantile(&r.late_ms, 0.99))
                .boolean("meets_limit", r.meets(limit_ms))
                .finish()
        })
        .collect();
    format!("[{}]", list.join(", "))
}

fn same_split(a: &SplitDataset, b: &SplitDataset) -> bool {
    a.train == b.train && a.test == b.test
}

pub fn data_json(d: &SplitDataset) -> String {
    Obj::new()
        .int("train_rows", d.train.n() as u64)
        .int("test_rows", d.test.n() as u64)
        .int("dim", d.train.dim() as u64)
        .int("classes", d.train.n_classes() as u64)
        .num("density", d.train.x.density())
        .finish()
}

#[derive(Default)]
struct Setup {
    generate_s: Vec<f64>,
    write_s: Vec<f64>,
    spawn_s: Vec<f64>,
}

impl Setup {
    /// Serialize and write the model; returns the text written.
    fn write(&mut self, model: &MpSvmModel, path: &Path) -> std::io::Result<String> {
        let t = Instant::now();
        let text = model.to_text();
        std::fs::write(path, &text)?;
        self.write_s.push(t.elapsed().as_secs_f64());
        Ok(text)
    }

    fn to_json(&self) -> String {
        Obj::new()
            .nums("generate_s", &self.generate_s)
            .nums("write_s", &self.write_s)
            .nums("spawn_s", &self.spawn_s)
            .finish()
    }
}
