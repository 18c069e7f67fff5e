//! `bench_serve` — online-serving A/B: batch=1 vs dynamic micro-batching.
//!
//! Trains one multi-class model, then drives the `gmp-serve` engine
//! through closed-loop client threads twice with the only difference being
//! the server's `max_batch` (1 vs 16). Everything else — engine, backend,
//! worker count, client count, request mix — is held fixed.
//!
//! Two throughputs are reported, following the repo-wide convention
//! (see `gmp_bench` docs) that *simulated* seconds on the modeled device
//! are the paper-comparable quantity:
//!
//! * `sim_throughput_rps` — rows per simulated device-second. Batch=1
//!   pays the SV-pool PCIe transfer and per-launch overhead on **every
//!   request**; micro-batching amortizes both across the coalesced rows —
//!   exactly the per-launch-setup amortization the paper's batched
//!   prediction exploits.
//! * `throughput_rps` — wall-clock rows/s on this host, reported honestly
//!   alongside. On a single-core CI host the numeric work itself cannot
//!   parallelize, so the wall delta only reflects scheduling/coalescing
//!   overheads, not the device-side win.
//!
//! Prints one line per arm. The repeatable, gated serving measurement is
//! `perfbench` (see `perfbench/README.md`).

use gmp_datasets::BlobSpec;
use gmp_serve::{PredictorEngine, ServeConfig, Server};
use gmp_svm::{Backend, MpSvmModel, MpSvmTrainer, ServeReport, SvmParams};
use std::time::Instant;

// More clients than `max_batch`, so the batched arm coalesces full batches
// from the backlog.
const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 40;

struct ArmResult {
    name: &'static str,
    throughput_rps: f64,
    report: ServeReport,
}

fn run_arm(
    name: &'static str,
    model: &MpSvmModel,
    rows: &[Vec<(u32, f64)>],
    max_batch: usize,
) -> ArmResult {
    let engine = PredictorEngine::new(model.clone(), Backend::gmp_default(), None)
        .expect("model must serve");
    let server = Server::start(
        engine,
        ServeConfig {
            max_batch,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let handle = server.handle();
            s.spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = (c * REQUESTS_PER_CLIENT + r) % rows.len();
                    handle
                        .submit(rows[i].clone())
                        .expect("closed-loop client must be served");
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let report = server.shutdown();
    let served = report.served;
    assert_eq!(served as usize, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(report.is_balanced(), "ledger imbalance: {report:?}");
    ArmResult {
        name,
        throughput_rps: served as f64 / wall_s,
        report,
    }
}

fn main() {
    // Overlapping classes keep many training rows as support vectors, so
    // each scoring call moves a real SV pool to the device and does real
    // kernel work against it.
    let data = BlobSpec {
        n: 900,
        dim: 32,
        classes: 6,
        spread: 0.45,
        seed: 23,
    }
    .generate();
    println!(
        "# bench_serve\ntraining on n={} dim={} classes=6 ...",
        data.n(),
        data.x.ncols(),
    );
    let model = MpSvmTrainer::new(
        SvmParams::default().with_c(4.0).with_rbf(0.5),
        Backend::gmp_default(),
    )
    .train(&data)
    .expect("training failed")
    .model;
    println!(
        "model: {} binaries, {} shared SVs, probability={}",
        model.binaries.len(),
        model.n_sv(),
        model.has_probability()
    );

    let rows: Vec<Vec<(u32, f64)>> = (0..data.n())
        .map(|i| {
            let r = data.x.row(i);
            r.indices
                .iter()
                .copied()
                .zip(r.values.iter().copied())
                .collect()
        })
        .collect();

    // Warm-up arm (allocator/page-cache warmup); discarded.
    let _ = run_arm("warmup", &model, &rows, 8);

    let single = run_arm("batch1", &model, &rows, 1);
    let batched = run_arm("microbatch16", &model, &rows, 16);
    let sim_speedup = batched.report.sim_throughput_rps() / single.report.sim_throughput_rps();
    let wall_speedup = batched.throughput_rps / single.throughput_rps;

    for a in [&single, &batched] {
        println!(
            "{:>14}: sim {:9.1} rows/s  wall {:8.1} req/s  mean batch {:5.2}  p50 {}us  p95 {}us  p99 {}us",
            a.name,
            a.report.sim_throughput_rps(),
            a.throughput_rps,
            a.report.mean_batch_size(),
            a.report.latency.quantile_us(0.50),
            a.report.latency.quantile_us(0.95),
            a.report.latency.quantile_us(0.99),
        );
    }
    println!("micro-batching speedup: {sim_speedup:.2}x simulated-device, {wall_speedup:.2}x wall");
}
