//! Loom model-check of the micro-batching server's lifecycle.
//!
//! Run with: `cargo test -p gmp-serve --features loom --test loom_batcher`
//!
//! The server's request channel, shutdown flag, metrics lock, and every
//! thread it spawns go through `gmp-sync`, so inside `loom::model` the
//! scheduler interleaves the owner (which starts and shuts down the
//! server), the worker (which pulls its batches straight from the request
//! queue; no thread sits in between), and the submitters.
//! Over every explored schedule:
//!
//! - **terminal verdicts**: each submitter gets exactly one outcome, and
//!   the only admissible ones are `Ok(prediction)` or `ShuttingDown` —
//!   `Canceled` (a dropped responder) or a stranded submitter (model
//!   deadlock) is a failed schedule;
//! - **ledger balance**: `accepted == served + expired + failed` holds in
//!   the final report, with `accepted` equal to the number of successful
//!   submissions — the close-based shutdown admits and drains under one
//!   channel lock, so an admitted request is never flushed as
//!   `ShuttingDown`;
//! - **no lost wakeups**: a schedule where the worker misses a submit
//!   notification or a submitter misses its verdict deadlocks the model.
//!
//! Scoring itself (`PredictorEngine::predict_batch`) is sequential and
//! lock-free per worker; with one worker it contributes no interleavings,
//! only wall-clock cost, so the model is trained once outside the checker
//! and cloned per schedule.
#![cfg(feature = "loom")]

use gmp_datasets::BlobSpec;
use gmp_serve::{PredictorEngine, ServeConfig, ServeError, Server};
use gmp_svm::{Backend, MpSvmModel, MpSvmTrainer, SvmParams};
use std::time::Duration;

fn tiny_model() -> MpSvmModel {
    let data = BlobSpec {
        n: 12,
        dim: 2,
        classes: 2,
        spread: 0.15,
        seed: 5,
    }
    .generate();
    MpSvmTrainer::new(
        SvmParams::default().with_c(1.0).with_rbf(1.0),
        Backend::gmp_default(),
    )
    .train(&data)
    .expect("tiny blob model trains")
    .model
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 2,
        queue_cap: 2,
        workers: 1,
        default_deadline: None,
        score_delay: Duration::ZERO,
    }
}

/// Submitters race `Server::shutdown`: whichever interleaving the model
/// picks, the ledger balances and an admitted request is always served.
#[test]
fn ledger_balances_under_concurrent_submit_and_shutdown() {
    let model = tiny_model();
    let mut b = loom::model::Builder::new();
    // 4 threads (owner, worker, 2 submitters) blow well past exhaustive
    // exploration; a bounded sample of schedules is the point.
    b.max_iterations = Some(1500);
    b.check(move || {
        let engine = PredictorEngine::new(model.clone(), Backend::gmp_default(), Some(1))
            .expect("tiny model serves");
        let server = Server::start(engine, serve_cfg()).expect("loom spawn is infallible");
        let submitters: Vec<_> = (0..2)
            .map(|i| {
                let h = server.handle();
                loom::thread::spawn(move || h.submit(vec![(0, 0.25 * (i + 1) as f64)]))
            })
            .collect();
        let report = server.shutdown();
        let results: Vec<_> = submitters
            .into_iter()
            .map(|t| t.join().expect("submitter panicked"))
            .collect();

        let mut ok = 0u64;
        for r in &results {
            match r {
                Ok(p) => {
                    ok += 1;
                    assert!(
                        !p.probabilities.is_empty(),
                        "probability model serves probs"
                    );
                }
                // The only legal failure: the submit lost the race against
                // shutdown *before* admission. An admitted request must
                // never surface `ShuttingDown`, `Canceled`, or anything
                // else.
                Err(ServeError::ShuttingDown) => {}
                Err(other) => panic!("illegal verdict under shutdown race: {other:?}"),
            }
        }
        assert_eq!(report.accepted, ok, "admitted ≠ successfully answered");
        assert_eq!(report.served, ok);
        assert_eq!(report.expired_deadline, 0);
        assert_eq!(report.failed, 0);
        assert!(report.is_balanced(), "ledger: {report:?}");
    });
}

/// Without a shutdown race every submission must be served — a schedule
/// where the worker or a submitter misses its wakeup deadlocks the model.
#[test]
fn all_submissions_served_when_shutdown_waits() {
    let model = tiny_model();
    let mut b = loom::model::Builder::new();
    b.max_iterations = Some(1500);
    b.check(move || {
        let engine = PredictorEngine::new(model.clone(), Backend::gmp_default(), Some(1))
            .expect("tiny model serves");
        let server = Server::start(engine, serve_cfg()).expect("loom spawn is infallible");
        let submitters: Vec<_> = (0..2)
            .map(|i| {
                let h = server.handle();
                loom::thread::spawn(move || h.submit(vec![(1, -0.5 * (i + 1) as f64)]))
            })
            .collect();
        for t in submitters {
            let r = t.join().expect("submitter panicked");
            assert!(r.is_ok(), "submission lost without any shutdown: {r:?}");
        }
        let report = server.shutdown();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.served, 2);
        assert!(report.is_balanced(), "ledger: {report:?}");
    });
}
