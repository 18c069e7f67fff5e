//! Dataset substrate: LibSVM-format I/O and deterministic synthetic
//! generators that mirror the paper's nine evaluation datasets (Table 2).
//!
//! The paper evaluates on public datasets (Adult, RCV1, Real-sim, Webdata,
//! CIFAR-10, Connect-4, MNIST, MNIST8M, News20). Those files are not
//! available in this environment, so [`paper::PaperDataset`] generates
//! synthetic stand-ins preserving the properties that drive solver
//! behaviour — class count, dimensionality, feature sparsity, class overlap
//! and the published (C, γ) hyper-parameters — at reduced cardinality (the
//! per-dataset scale factor is reported by every experiment binary).

pub mod dataset;
pub mod libsvm_format;
pub mod paper;
pub mod synth;

pub use dataset::{Dataset, SplitDataset};
pub use libsvm_format::{parse_libsvm, write_libsvm, LibsvmStreamParser, ParseError};
pub use paper::PaperDataset;
pub use synth::{BlobSpec, SynthSpec};
