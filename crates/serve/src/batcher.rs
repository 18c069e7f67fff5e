//! Dynamic micro-batching with a bounded admission queue and explicit
//! backpressure.
//!
//! Topology (the request queue is bounded):
//!
//! ```text
//! submit() --try_send--> [request queue] --recv + try_recv--> workers --> respond
//!    |                        cap = queue_cap    (up to max_batch)
//!    +-- Overloaded when full (admission control)
//! ```
//!
//! Each worker forms its own batch the moment it is free: it blocks for
//! one request, then drains whatever else is already queued (no waiting)
//! up to `max_batch`, and scores. The queue is work-conserving: an idle
//! server answers a lone request at once, and a loaded one coalesces its
//! backlog into full batches. When every worker is busy the request queue
//! fills and admission starts rejecting — backpressure reaches the edge
//! instead of growing an unbounded buffer.
//!
//! Every admitted request gets exactly one terminal outcome (served,
//! expired, failed) — there is no silent-drop path, and
//! [`gmp_svm::ServeReport::is_balanced`] checks the ledger.
//!
//! Shutdown is close-based: [`Server::shutdown`] stops admission and then
//! *closes* the request channel, so concurrent submits fail fast while the
//! workers keep draining — their final `recv` errors only once the queue
//! is empty. Admission (`try_send`) and drain (`recv`) agree under one
//! channel lock, making "accepted" and "will get a verdict" the same
//! event.
//!
//! Every primitive here comes from [`gmp_sync`], so the whole lifecycle is
//! model-checked by loom (`tests/loom_batcher.rs`): the ledger balances and
//! no admitted request is stranded under any explored interleaving of
//! submitters, workers, and shutdown.

use crate::engine::PredictorEngine;
use crate::metrics::ServeMetrics;
use gmp_sparse::CsrBuilder;
use gmp_svm::ServeReport;
use gmp_sync::atomic::{AtomicBool, Ordering};
use gmp_sync::channel::{self, Receiver, Sender, TrySendError};
use gmp_sync::thread::{spawn_named, JoinHandle};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the micro-batching loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch a worker takes from the queue (≥ 1). 1 disables
    /// coalescing — every request is scored alone (the A/B baseline).
    pub max_batch: usize,
    /// Request-queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Scoring worker threads (≥ 1).
    pub workers: usize,
    /// Deadline applied to [`ServeHandle::submit`] requests
    /// (`None` = no deadline).
    pub default_deadline: Option<Duration>,
    /// Artificial per-batch scoring delay — fault injection for tests and
    /// load shaping for benchmarks (simulates a heavier model). Keep
    /// `Duration::ZERO` in production.
    pub score_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_cap: 1024,
            workers: 2,
            default_deadline: None,
            score_delay: Duration::ZERO,
        }
    }
}

/// Terminal failure of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is full; retry later (admission control).
    Overloaded,
    /// The request sat in the queue past its deadline.
    DeadlineExceeded,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request itself is malformed for this model.
    BadInput(String),
    /// Scoring failed (backend/model error).
    Predict(String),
    /// The request was dropped without a verdict — only reachable through
    /// a worker panic; the responder's drop guard converts the loss into
    /// an explicit error instead of hanging the caller.
    Canceled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "server overloaded (queue full)"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::BadInput(m) => write!(f, "bad input: {m}"),
            ServeError::Predict(m) => write!(f, "prediction failed: {m}"),
            ServeError::Canceled => write!(f, "request canceled"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class.
    pub label: u32,
    /// Class probabilities (empty when the model has no sigmoids).
    pub probabilities: Vec<f64>,
}

/// Reply slot of one request. The drop guard guarantees the submitting
/// thread is always unblocked: if a responder is destroyed without an
/// explicit verdict (worker panic), the caller gets `Canceled` rather
/// than waiting forever.
struct Responder(Option<Sender<Result<Prediction, ServeError>>>);

impl Responder {
    fn send(mut self, result: Result<Prediction, ServeError>) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(result);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(Err(ServeError::Canceled));
        }
    }
}

/// One queued request.
struct Request {
    /// Sparse features, strictly increasing 0-based columns (validated at
    /// admission).
    features: Vec<(u32, f64)>,
    enqueued: Instant,
    deadline: Option<Instant>,
    resp: Responder,
}

/// Cloneable client handle: submit requests, read metrics.
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<Request>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    dim: usize,
    default_deadline: Option<Duration>,
}

impl ServeHandle {
    /// Score one instance, blocking until a verdict. Applies the
    /// configured default deadline.
    pub fn submit(&self, features: Vec<(u32, f64)>) -> Result<Prediction, ServeError> {
        self.submit_with_deadline(features, self.default_deadline)
    }

    /// [`ServeHandle::submit`] with an explicit per-request deadline
    /// (measured from admission; `None` = wait as long as it takes).
    pub fn submit_with_deadline(
        &self,
        features: Vec<(u32, f64)>,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        validate_features(&features, self.dim)?;
        let (rtx, rrx) = channel::bounded(1);
        let now = Instant::now();
        let req = Request {
            features,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            resp: Responder(Some(rtx)),
        };
        match self.tx.try_send(req) {
            Ok(()) => self.metrics.note_accepted(self.tx.len()),
            Err(TrySendError::Full(_)) => {
                self.metrics.note_rejected_overload();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShuttingDown),
        }
        match rrx.recv() {
            Ok(verdict) => verdict,
            Err(_) => Err(ServeError::Canceled),
        }
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> ServeReport {
        self.metrics.snapshot()
    }

    /// Feature dimensionality requests must respect.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

fn validate_features(features: &[(u32, f64)], dim: usize) -> Result<(), ServeError> {
    let mut prev: Option<u32> = None;
    for &(c, v) in features {
        if (c as usize) >= dim {
            return Err(ServeError::BadInput(format!(
                "feature index {} exceeds model dimensionality {dim}",
                c as u64 + 1
            )));
        }
        if prev.is_some_and(|p| c <= p) {
            return Err(ServeError::BadInput(
                "feature indices must be strictly increasing".to_string(),
            ));
        }
        if !v.is_finite() {
            return Err(ServeError::BadInput(format!(
                "feature {} has non-finite value {v}",
                c as u64 + 1
            )));
        }
        prev = Some(c);
    }
    Ok(())
}

/// A running serving instance: a worker pool around one
/// [`PredictorEngine`], fed by one bounded request queue.
pub struct Server {
    handle: ServeHandle,
    req_rx: Receiver<Request>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start serving `engine` with `cfg`. Threads run until
    /// [`Server::shutdown`] (or until the server and every handle are
    /// dropped). Fails only when the OS refuses to spawn a thread; the
    /// already-spawned threads then wind down as the channels drop.
    pub fn start(engine: PredictorEngine, cfg: ServeConfig) -> std::io::Result<Server> {
        let metrics = Arc::new(ServeMetrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(engine);
        let dim = engine.dim();
        let max_batch = cfg.max_batch.max(1);
        let workers_n = cfg.workers.max(1);

        let (req_tx, req_rx) = channel::bounded::<Request>(cfg.queue_cap.max(1));
        let workers = (0..workers_n)
            .map(|i| {
                let rx = req_rx.clone();
                let engine = Arc::clone(&engine);
                let metrics = Arc::clone(&metrics);
                let score_delay = cfg.score_delay;
                spawn_named(&format!("gmp-serve-worker-{i}"), move || {
                    worker_loop(&rx, &engine, &metrics, max_batch, score_delay)
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            handle: ServeHandle {
                tx: req_tx,
                shutdown: Arc::clone(&shutdown),
                metrics: Arc::clone(&metrics),
                dim,
                default_deadline: cfg.default_deadline,
            },
            req_rx,
            shutdown,
            metrics,
            workers,
        })
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> ServeReport {
        self.metrics.snapshot()
    }

    /// Graceful shutdown: stop admitting, **serve** everything already
    /// queued, join all threads, and return the final counters.
    ///
    /// Closing the request channel is what makes the drain promise hold:
    /// concurrent `try_send`s fail with `Disconnected` (reported as
    /// [`ServeError::ShuttingDown`], never counted as accepted), while
    /// every request admitted before the close stays queued and no
    /// worker's final `recv` can error until they have drained them all.
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown.store(true, Ordering::Release);
        self.req_rx.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        gmp_sync::audit!({
            assert!(
                self.req_rx.is_empty(),
                "workers exited with admitted requests still queued"
            );
        });
        self.metrics.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Stop admitting and close the queue so the workers wind down
        // promptly even when `shutdown` was never called.
        self.shutdown.store(true, Ordering::Release);
        self.req_rx.close();
    }
}

fn worker_loop(
    rx: &Receiver<Request>,
    engine: &PredictorEngine,
    metrics: &ServeMetrics,
    max_batch: usize,
    score_delay: Duration,
) {
    // Block until work arrives. `recv` errors only once the channel is
    // closed (or every handle is gone) **and** the queue is drained, so
    // returning here cannot strand an admitted request.
    while let Ok(first) = rx.recv() {
        let mut batch = Vec::with_capacity(max_batch);
        batch.push(first);
        // Coalesce the backlog that is already queued; never wait for more.
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(r) => batch.push(r),
                Err(_) => break,
            }
        }
        if !score_delay.is_zero() {
            std::thread::sleep(score_delay);
        }
        score_batch(batch, engine, metrics);
    }
}

fn score_batch(batch: Vec<Request>, engine: &PredictorEngine, metrics: &ServeMetrics) {
    // Deadlines are checked at dequeue: a request that waited out its
    // budget in the queue fails fast instead of wasting scoring work.
    let now = Instant::now();
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for req in batch {
        if req.deadline.is_some_and(|d| now > d) {
            metrics.note_expired();
            req.resp.send(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return;
    }
    let mut b = CsrBuilder::new(engine.dim().max(1));
    for req in &live {
        b.start_row();
        for &(c, v) in &req.features {
            b.push(c, v);
        }
    }
    let x = b.finish();
    match engine.predict_batch(&x) {
        Ok(out) => {
            metrics.note_batch(live.len(), out.report.sim_s);
            let done = Instant::now();
            for (i, req) in live.into_iter().enumerate() {
                metrics.note_served(done.duration_since(req.enqueued));
                let probabilities = out.probabilities.get(i).cloned().unwrap_or_default();
                req.resp.send(Ok(Prediction {
                    label: out.labels[i],
                    probabilities,
                }));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for req in live {
                metrics.note_failed();
                req.resp.send(Err(ServeError::Predict(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_features() {
        assert!(validate_features(&[(0, 1.0), (3, 2.0)], 4).is_ok());
        assert!(matches!(
            validate_features(&[(4, 1.0)], 4),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            validate_features(&[(2, 1.0), (2, 2.0)], 4),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            validate_features(&[(1, 1.0), (0, 2.0)], 4),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            validate_features(&[(0, f64::NAN)], 4),
            Err(ServeError::BadInput(_))
        ));
        assert!(validate_features(&[], 4).is_ok());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ServeError::Overloaded.to_string(),
            "server overloaded (queue full)"
        );
        assert!(ServeError::BadInput("x".into()).to_string().contains("x"));
    }
}
