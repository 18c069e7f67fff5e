//! `gmp-serve` — online inference over a trained MP-SVM.
//!
//! The paper's prediction phase amortizes kernel work by scoring one
//! batched `test × SV-pool` kernel block for *all* binary SVMs (support-
//! vector sharing, §3.3.3). Offline, that amortization comes free: the
//! whole test file is one batch. Online traffic arrives one instance at a
//! time, so a per-request `predict()` call pays the per-launch setup on
//! every instance and can never use intra-batch parallelism.
//!
//! This crate closes that gap with a **dynamic micro-batcher**:
//!
//! * [`PredictorEngine`] loads the model once and precomputes the SV-pool
//!   state every call reuses (pool copy, squared norms, kernel diagonal,
//!   sigmoid validation) via [`gmp_svm::PreparedPredictor`].
//! * [`Server`] queues single-instance requests in one bounded queue. Each
//!   worker of a small pool, as soon as it is free, takes one request
//!   plus whatever else is already queued (up to `max_batch`) and scores
//!   them as one batch — no batch ever waits for stragglers. Results go
//!   back to the callers one by one, **bit-identical** to what an offline
//!   `predict()` over the same rows returns.
//! * Admission control is explicit: a full queue rejects with
//!   [`ServeError::Overloaded`] instead of queueing unboundedly, expired
//!   per-request deadlines fail with [`ServeError::DeadlineExceeded`], and
//!   [`Server::shutdown`] drains everything already admitted.
//! * [`ServeMetrics`] feeds the serving counters of
//!   [`gmp_svm::ServeReport`]: end-to-end latency histogram (p50/p95/p99),
//!   queue-depth high-water mark, batch-size distribution, throughput, and
//!   rejected/expired counts.
//! * [`proto`] defines the newline-delimited front-end protocol spoken by
//!   the `gmp-serve` binary: LibSVM rows in, `label p1 … pk` out.

pub mod batcher;
pub mod engine;
pub mod metrics;
pub mod proto;

pub use batcher::{Prediction, ServeConfig, ServeError, ServeHandle, Server};
pub use engine::{EngineError, PredictorEngine};
pub use metrics::ServeMetrics;
