//! GMP-SVM: efficient multi-class probabilistic SVMs on a (simulated) GPU.
//!
//! Reproduction of Wen, Shi, He, Chen & Chen, *Efficient Multi-Class
//! Probabilistic SVMs on GPUs* (ICDE 2019). The public API:
//!
//! ```
//! use gmp_svm::{Backend, MpSvmTrainer, SvmParams};
//! use gmp_datasets::BlobSpec;
//!
//! // A small 3-class problem.
//! let data = BlobSpec { n: 90, dim: 2, classes: 3, spread: 0.15, seed: 1 }.generate();
//!
//! // Train the full GMP-SVM pipeline on the simulated Tesla P100.
//! let params = SvmParams::default().with_c(1.0).with_rbf(0.5);
//! let outcome = MpSvmTrainer::new(params, Backend::gmp_default()).train(&data).unwrap();
//!
//! // Probabilistic prediction.
//! let pred = outcome.model.predict(&data.x, &Backend::gmp_default()).unwrap();
//! assert_eq!(pred.labels.len(), 90);
//! let p0 = &pred.probabilities[0];
//! assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-6);
//! ```
//!
//! Training backends (§4.1 of the paper): [`Backend::CpuClassic`] is the
//! LibSVM reference (1 thread = plain LibSVM, 40 = LibSVM with OpenMP),
//! [`Backend::GpuBaseline`] trains binary SVMs one at a time on the
//! simulated device, [`Backend::CpuBatched`] is CMP-SVM, and
//! [`Backend::Gmp`] is the full system: batched working sets, FIFO kernel
//! buffer, kernel-value sharing across binary SVMs, concurrent training,
//! and support-vector sharing at prediction time.

pub mod cv;
pub mod model;
pub mod ovo;
pub mod ovr;
pub mod params;
pub mod predict;
pub mod telemetry;
pub mod trainer;

pub use model::{BinarySvm, ModelParseError, MpSvmModel};
pub use ovo::{class_pairs, BinaryProblem};
pub use ovr::{evaluate_ovr, OvrModel};
pub use params::{Backend, SvmParams};
pub use predict::{PredictOutcome, PreparedPredictor};
pub use telemetry::{BinaryTrainStats, LatencyHistogram, PredictReport, ServeReport, TrainReport};
pub use trainer::{MpSvmTrainer, TrainError, TrainOutcome};

// Re-exports for downstream convenience.
pub use gmp_datasets::Dataset;
pub use gmp_gpusim::{Device, DeviceConfig, HostConfig};
pub use gmp_kernel::{ComputeBackend, ComputeBackendKind, KernelKind};
