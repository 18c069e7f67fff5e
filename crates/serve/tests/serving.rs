//! Serving-semantics guarantees: micro-batched results are bit-identical
//! to offline `predict()`, saturation fails loudly (`Overloaded` /
//! `DeadlineExceeded`, never a panic or a silent drop), and graceful
//! shutdown serves everything already admitted.

use gmp_datasets::{BlobSpec, Dataset};
use gmp_serve::{PredictorEngine, ServeConfig, ServeError, Server};
use gmp_sparse::CsrMatrix;
use gmp_svm::{Backend, MpSvmModel, MpSvmTrainer, PredictOutcome, SvmParams};
use std::time::Duration;

fn trained() -> (MpSvmModel, Dataset) {
    let data = BlobSpec {
        n: 150,
        dim: 3,
        classes: 3,
        spread: 0.2,
        seed: 11,
    }
    .generate();
    let model = MpSvmTrainer::new(
        SvmParams::default().with_c(2.0).with_rbf(1.0),
        Backend::gmp_default(),
    )
    .train(&data)
    .unwrap()
    .model;
    (model, data)
}

fn engine(model: MpSvmModel) -> PredictorEngine {
    PredictorEngine::new(model, Backend::gmp_default(), Some(1)).unwrap()
}

/// Sparse features of row `i` as the submit API wants them.
fn row_features(x: &CsrMatrix, i: usize) -> Vec<(u32, f64)> {
    let r = x.row(i);
    r.indices
        .iter()
        .copied()
        .zip(r.values.iter().copied())
        .collect()
}

#[test]
fn microbatched_results_bitwise_match_offline_predict() {
    let (model, data) = trained();
    let offline: PredictOutcome = model.predict(&data.x, &Backend::gmp_default()).unwrap();
    let server = Server::start(
        engine(model),
        ServeConfig {
            max_batch: 16,
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start server");

    // 30 concurrent clients, 5 rows each: arrival order is arbitrary, so
    // rows land in different batches at different positions on every run —
    // and the bits must not care.
    let n = data.n();
    std::thread::scope(|s| {
        for client in 0..30usize {
            let handle = server.handle();
            let x = &data.x;
            let offline = &offline;
            s.spawn(move || {
                for k in 0..5usize {
                    let i = (client * 5 + k) % n;
                    let p = handle.submit(row_features(x, i)).unwrap();
                    assert_eq!(p.label, offline.labels[i], "row {i}");
                    assert_eq!(
                        p.probabilities, offline.probabilities[i],
                        "row {i}: bitwise probability mismatch"
                    );
                }
            });
        }
    });

    let report = server.shutdown();
    assert_eq!(report.served, 150);
    assert_eq!(report.accepted, 150);
    assert!(report.is_balanced(), "ledger: {report:?}");
}

#[test]
fn backlog_actually_coalesces_into_batches() {
    let (model, data) = trained();
    let server = Server::start(
        engine(model),
        ServeConfig {
            max_batch: 16,
            workers: 1,
            // Slow scoring so a backlog builds behind the single worker.
            score_delay: Duration::from_millis(15),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    std::thread::scope(|s| {
        for i in 0..24usize {
            let handle = server.handle();
            let x = &data.x;
            s.spawn(move || handle.submit(row_features(x, i)).unwrap());
        }
    });
    let report = server.shutdown();
    assert_eq!(report.served, 24);
    assert!(
        report.batch_size_hist.len() >= 2,
        "expected at least one multi-row batch, got sizes {:?}",
        report.batch_size_hist
    );
    assert!(report.mean_batch_size() > 1.0);
}

#[test]
fn full_queue_rejects_with_overloaded_and_nothing_is_lost() {
    let (model, data) = trained();
    let server = Server::start(
        engine(model),
        ServeConfig {
            max_batch: 1,
            queue_cap: 2,
            workers: 1,
            // Each batch takes ~80 ms, so 16 one-shot clients saturate the
            // 2-slot queue long before it drains.
            score_delay: Duration::from_millis(80),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let outcomes: Vec<Result<_, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..16usize)
            .map(|i| {
                let handle = server.handle();
                let x = &data.x;
                s.spawn(move || handle.submit(row_features(x, i)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let overloaded = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    // Every client got exactly one verdict, and the only failure mode was
    // the explicit admission rejection.
    assert_eq!(ok + overloaded, 16, "unexpected outcomes: {outcomes:?}");
    assert!(overloaded > 0, "queue_cap=2 with 16 clients must overload");

    let report = server.shutdown();
    assert_eq!(report.rejected_overload as usize, overloaded);
    assert_eq!(report.accepted as usize, ok);
    assert_eq!(report.served as usize, ok);
    assert!(report.is_balanced(), "ledger: {report:?}");
    assert!(report.peak_queue_depth <= 2);
}

#[test]
fn expired_deadline_fails_explicitly() {
    let (model, data) = trained();
    let server = Server::start(
        engine(model),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            score_delay: Duration::from_millis(60),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let (slow, fast) = std::thread::scope(|s| {
        let handle = server.handle();
        let x = &data.x;
        // First request occupies the worker for ~60 ms.
        let a = s.spawn(move || handle.submit(row_features(x, 0)));
        std::thread::sleep(Duration::from_millis(10));
        // Second request can only be scored after ~50 more ms — far past
        // its 5 ms deadline, so it must expire in the queue.
        let handle = server.handle();
        let b = s.spawn(move || {
            handle.submit_with_deadline(row_features(x, 1), Some(Duration::from_millis(5)))
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    assert!(slow.is_ok(), "undeadlined request must be served: {slow:?}");
    assert_eq!(fast.unwrap_err(), ServeError::DeadlineExceeded);

    let report = server.shutdown();
    assert_eq!(report.expired_deadline, 1);
    assert_eq!(report.served, 1);
    assert!(report.is_balanced(), "ledger: {report:?}");
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let (model, data) = trained();
    let server = Server::start(
        engine(model),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            score_delay: Duration::from_millis(30),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let handle = server.handle();
    let results = std::thread::scope(|s| {
        let clients: Vec<_> = (0..8usize)
            .map(|i| {
                let handle = handle.clone();
                let x = &data.x;
                s.spawn(move || handle.submit(row_features(x, i)))
            })
            .collect();
        // Let every client reach the queue, then shut down while most of
        // the work is still waiting behind the slow worker.
        std::thread::sleep(Duration::from_millis(10));
        let report = server.shutdown();
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (report, results)
    });
    let (report, results) = results;

    // Everything admitted before the shutdown was *served*, not dropped.
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "request {i} lost in shutdown: {r:?}");
    }
    assert_eq!(report.served, 8);
    assert!(report.is_balanced(), "ledger: {report:?}");

    // After shutdown the handle fails fast.
    assert_eq!(
        handle.submit(row_features(&data.x, 0)).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn bad_input_is_rejected_before_admission() {
    let (model, _) = trained();
    let server = Server::start(engine(model), ServeConfig::default()).expect("start server");
    let handle = server.handle();
    // Feature index beyond the model's dimensionality.
    let err = handle.submit(vec![(99, 1.0)]).unwrap_err();
    assert!(matches!(err, ServeError::BadInput(_)), "{err:?}");
    // Unsorted features.
    let err = handle.submit(vec![(2, 1.0), (1, 1.0)]).unwrap_err();
    assert!(matches!(err, ServeError::BadInput(_)), "{err:?}");
    let report = server.shutdown();
    assert_eq!(report.accepted, 0);
    assert!(report.is_balanced());
}

#[test]
fn empty_feature_vector_is_served() {
    // An all-zeros instance is legal LibSVM (no tokens) and must score,
    // not crash.
    let (model, _) = trained();
    let offline = model
        .predict(
            &CsrMatrix::empty(model.sv_pool.ncols()),
            &Backend::gmp_default(),
        )
        .unwrap();
    assert!(offline.labels.is_empty());
    let server = Server::start(engine(model), ServeConfig::default()).expect("start server");
    let p = server.handle().submit(vec![]).unwrap();
    assert!((p.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    let report = server.shutdown();
    assert_eq!(report.served, 1);
}
