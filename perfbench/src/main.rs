//! `perfbench` — one workload session of the GMP-SVM benchmark.
//!
//! Normally started by `perfbench/run.py`, which builds this binary and
//! `gmp-serve`, pins the environment and applies the reference gate:
//!
//! ```text
//! perfbench --workload NAME --dataset mnist|adult|news20 --scale F
//!           --seed N --ref-seed N --seconds S --trace 0|1 --threads T
//!           --rates R1,R2,… --nominal I --p99-limit-ms L
//!           --serve-bin PATH --out-dir DIR [--build-info JSON]
//! ```
//!
//! `--trace 0` runs the untraced end-to-end session (`session.rs`);
//! `--trace 1` runs the traced per-layer replay (`traced.rs`) and writes a
//! Chrome trace file. Either way the last stdout line is one JSON object
//! with the metrics, the operation ledger, the counters and a canary run
//! at the reference seed.

mod json;
mod load;
mod replay;
mod session;
mod stats;
mod trace;
mod traced;
mod workload;

use gmp_datasets::PaperDataset;
use gmp_gpusim::DeviceConfig;
use gmp_svm::{MpSvmModel, MpSvmTrainer, TrainReport};
use json::Obj;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

pub struct Config {
    pub workload: String,
    pub dataset: PaperDataset,
    pub scale: f64,
    pub seed: u64,
    pub ref_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub rates: Vec<f64>,
    pub nominal: usize,
    pub p99_limit_ms: f64,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    /// JSON object from the caller: rustc version, git revision, source
    /// digest and the pinned environment, copied into every output.
    pub build_info: String,
}

/// The operation ledger: trains, predicts and serve requests attempted,
/// and every failure — errors, wrong outputs, drifting counters.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    /// One operation that succeeded iff `good`.
    pub fn check(&mut self, good: bool, why: impl FnOnce() -> String) {
        if good {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    /// Every request of a serve rung is one operation.
    pub fn rung(&mut self, rung: &load::Rung) {
        self.attempted += rung.sent as u64;
        self.failed += rung.failed as u64;
        for f in &rung.failures {
            self.note(format!("serve @ {}/s: {f}", rung.rate));
        }
    }

    pub fn note(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.note(f);
        }
    }
}

/// Training counters that must repeat exactly, run after run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainCounters {
    pub kernel_evals: u64,
    pub rows_computed: u64,
    pub buffer_hits: u64,
    pub iterations: u64,
    pub outer_rounds: u64,
    pub n_sv: u64,
    pub converged: bool,
}

impl TrainCounters {
    pub fn of(r: &TrainReport, model: &MpSvmModel) -> Self {
        TrainCounters {
            kernel_evals: r.kernel_evals,
            rows_computed: r.rows_computed,
            buffer_hits: r.buffer_hits,
            iterations: r.total_iterations(),
            outer_rounds: r.per_binary.iter().map(|b| b.outer_rounds).sum(),
            n_sv: model.n_sv() as u64,
            converged: r.all_converged(),
        }
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .int("kernel_evals", self.kernel_evals)
            .int("rows_computed", self.rows_computed)
            .int("buffer_hits", self.buffer_hits)
            .int("iterations", self.iterations)
            .int("outer_rounds", self.outer_rounds)
            .int("n_sv", self.n_sv)
            .boolean("converged", self.converged)
            .finish()
    }
}

fn parse_args() -> Result<Config, String> {
    let mut kv = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    fn num<T: std::str::FromStr>(k: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad --{k} {v:?}"))
    }
    let dataset_name = get("dataset")?;
    let rates = get("rates")?
        .split(',')
        .map(|r| num::<f64>("rates", r.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = Config {
        workload: get("workload")?,
        dataset: workload::dataset(&dataset_name)
            .ok_or_else(|| format!("unknown dataset {dataset_name:?}"))?,
        scale: num("scale", get("scale")?)?,
        seed: num("seed", get("seed")?)?,
        ref_seed: num("ref-seed", get("ref-seed")?)?,
        seconds: num("seconds", get("seconds")?)?,
        trace: get("trace")? == "1",
        threads: num("threads", get("threads")?)?,
        nominal: num("nominal", get("nominal")?)?,
        p99_limit_ms: num("p99-limit-ms", get("p99-limit-ms")?)?,
        serve_bin: PathBuf::from(get("serve-bin")?),
        out_dir: PathBuf::from(get("out-dir")?),
        build_info: kv.get("build-info").cloned().unwrap_or_else(|| "{}".into()),
        rates,
    };
    if kv.get("rss-probe").is_some_and(|v| v == "1") {
        rss_probe(&cfg);
    }
    if cfg.threads == 0 || cfg.nominal >= cfg.rates.len() || cfg.seconds <= 0.0 {
        return Err("need --threads >= 1, --nominal inside --rates, --seconds > 0".into());
    }
    Ok(cfg)
}

/// One user session in a fresh process — generate, train, predict, write
/// the model text — then print this process's peak resident set in MiB and
/// exit. A fresh process keeps the benchmark's own sample buffers and the
/// allocator state of earlier repetitions out of `peak_rss_mb`.
fn rss_probe(cfg: &Config) -> ! {
    let (data, _) = workload::generate(cfg.dataset, cfg.scale, cfg.seed);
    let backend = workload::backend();
    let trained = MpSvmTrainer::new(workload::params(cfg.dataset), backend.clone())
        .with_host_threads(Some(cfg.threads))
        .train(&data.train);
    let Ok(t) = trained else {
        std::process::exit(1)
    };
    let Ok(p) = t.model.predict(&data.test.x, &backend) else {
        std::process::exit(1)
    };
    std::hint::black_box((p.labels, t.model.to_text()));
    println!("{}", stats::peak_rss_mb());
    std::process::exit(0)
}

/// Train and predict at the reference seed, untimed, for the counter gate.
/// The traced mode replays instead, which also yields the store counters.
fn canary(cfg: &Config, ops: &mut Ops) -> String {
    let (data, _) = workload::generate(cfg.dataset, cfg.scale, cfg.ref_seed);
    let params = workload::params(cfg.dataset);
    let backend = workload::backend();
    let out = Obj::new().int("seed", cfg.ref_seed);
    if cfg.trace {
        let device = DeviceConfig::tesla_p100();
        let scalar =
            || -> Arc<dyn gmp_backend::ComputeBackend> { Arc::new(gmp_backend::ScalarBackend) };
        let tr = match replay::train(&data.train, &params, &device, scalar(), None) {
            Ok(tr) => tr,
            Err(e) => {
                ops.fail(format!("canary replay: {e}"));
                return out.finish();
            }
        };
        ops.ok();
        let evals = match replay::predict(&tr.model, &data.test.x, &device, scalar(), None) {
            Ok(p) => p.kernel_evals,
            Err(e) => {
                ops.fail(format!("canary replay predict: {e}"));
                return out.finish();
            }
        };
        ops.ok();
        let s = tr.store;
        return out
            .raw("train_counters", &tr.counters.to_json())
            .int("predict_kernel_evals", evals)
            .raw(
                "store",
                &Obj::new()
                    .int("segments_computed", s.segments_computed)
                    .int("segment_hits", s.segment_hits)
                    .int("evals_saved", s.evals_saved)
                    .int("evictions", s.evictions)
                    .finish(),
            )
            .finish();
    }
    let trained = MpSvmTrainer::new(params, backend.clone())
        .with_host_threads(Some(cfg.threads))
        .train(&data.train);
    let Ok(t) = trained else {
        ops.fail("canary train failed".into());
        return out.finish();
    };
    ops.ok();
    let Ok(p) = t.model.predict(&data.test.x, &backend) else {
        ops.fail("canary predict failed".into());
        return out.finish();
    };
    ops.ok();
    out.raw(
        "train_counters",
        &TrainCounters::of(&t.report, &t.model).to_json(),
    )
    .int("predict_kernel_evals", p.report.kernel_evals)
    .finish()
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pinned here as well as by the caller: nothing is inherited.
    std::env::set_var("GMP_BACKEND", "scalar");
    std::env::set_var("GMP_HOST_THREADS", cfg.threads.to_string());
    std::env::set_var("GMP_BENCH_SCALE", "1");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }

    let host = Obj::new()
        .int(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .int("host_threads", cfg.threads as u64)
        .str("compute_backend", "scalar")
        .str("dataset", PaperDataset::spec(&cfg.dataset).name)
        .num("scale", cfg.scale)
        .nums("rates", &cfg.rates)
        .int("nominal_rung", cfg.nominal as u64)
        .num("p99_limit_ms", cfg.p99_limit_ms)
        .int("seed", cfg.seed)
        .raw("build", &cfg.build_info)
        .finish();

    let mut ops = Ops::default();
    let mut out = Obj::new()
        .str("workload", &cfg.workload)
        .str("mode", if cfg.trace { "traced" } else { "session" })
        .raw("host", &host);
    let result = if cfg.trace {
        traced::run(&cfg).map(|t| {
            let file = cfg
                .out_dir
                .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
            let written = std::fs::write(&file, trace::chrome_json(&t.trace_json_spans, &host));
            out = std::mem::take(&mut out).str("trace_file", &file.display().to_string());
            if let Err(e) = written {
                ops.fail(format!("cannot write trace file: {e}"));
            }
            (t.metrics, t.detail, t.ops)
        })
    } else {
        session::run(&cfg).map(|s| (s.metrics, s.detail, s.ops))
    };
    let (metrics, detail, run_ops) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    ops.absorb(run_ops);
    let canary = canary(&cfg, &mut ops);
    let line = out
        .raw("metrics", &metrics.to_json())
        .raw("detail", &detail)
        .raw("canary", &canary)
        .raw(
            "ops",
            &Obj::new()
                .int("attempted", ops.attempted)
                .int("failed", ops.failed)
                .strs("failures", &ops.failures)
                .finish(),
        )
        .finish();
    println!("{line}");
    ExitCode::SUCCESS
}
