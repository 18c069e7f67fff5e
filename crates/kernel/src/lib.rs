//! Kernel functions, batched kernel-row computation, and the two kernel
//! caching structures at the heart of GMP-SVM:
//!
//! * [`KernelBuffer`] — the binary-SVM-level GPU buffer of §3.3.1: a
//!   pre-allocated region holding whole rows of the kernel matrix with
//!   first-in-first-out *batch* replacement (an LRU policy is provided for
//!   the ablation study the paper leaves as out of scope). It is the one
//!   working-set row cache: [`KernelBuffer::fill`] classifies hits and
//!   misses and copies launched rows into their slots for every provider.
//! * [`SharedKernelStore`] — the MP-SVM-level structure of §3.3.2 / Fig. 3:
//!   kernel rows are stored as *class segments* so that the segment
//!   `(instance i, class c)` computed for binary problem `(s, c)` is reused
//!   by every other problem involving class `c`.
//!
//! The [`KernelRows`] trait is the interface SMO solvers consume. Its two
//! providers keep their working sets in a [`KernelBuffer`] and differ only
//! in where missing rows come from: [`BufferedRows`] launches them on the
//! oracle, [`SharedRows`] (GMP's FIFO-batch buffer) assembles them from
//! the shared segment store.

pub mod buffer;
pub mod oracle;
pub mod rows;
pub mod shared;

// Kernel functions (and the compute-backend seam that executes them) live
// in `gmp-backend`; re-exported here so downstream `gmp_kernel::KernelKind`
// and `gmp_kernel::functions::*` paths keep working.
pub use gmp_backend::functions;
pub use gmp_backend::{ComputeBackend, ComputeBackendKind, KernelContext, RowScorer};

pub use buffer::{BufferStats, KernelBuffer, ReplacementPolicy};
pub use functions::KernelKind;
pub use oracle::KernelOracle;
pub use rows::{BufferedRows, KernelRows, RowProviderStats};
pub use shared::{ClassLayout, SharedKernelStore, SharedRows};
