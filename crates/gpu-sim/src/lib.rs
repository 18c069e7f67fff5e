//! Software GPU device simulator.
//!
//! The paper runs on an NVIDIA Tesla P100 (CUDA-C + cuSPARSE). This crate is
//! the substitution mandated by the reproduction plan (see `DESIGN.md` §2):
//! a software device that preserves the two properties the paper's design
//! actually depends on:
//!
//! 1. **A hard device-memory capacity.** Allocations go through
//!    [`Device::alloc`] and fail with [`DeviceError::OutOfMemory`] when the
//!    budget is exceeded. This is what forces the GPU baseline to train one
//!    binary SVM at a time and what the kernel-value / support-vector
//!    sharing techniques relieve.
//! 2. **A massively-parallel execution cost model.** Work is submitted as
//!    kernel launches ([`Executor::charge`]) described by thread count, FLOPs
//!    and bytes touched; the model charges
//!    `launch_overhead + max(compute_time, memory_time)` with compute
//!    throughput proportional to the granted SM fraction and saturating at
//!    the device width. Small launches underutilize the device — which is
//!    exactly why batching `q` kernel rows into one launch (§3.3.1) and
//!    running several binary SVMs concurrently (§3.3.2) win.
//!
//! The numeric work itself executes on the host (optionally on several
//! threads via [`pool::for_each_chunk`]) and is bit-identical regardless of the executor, so
//! classifier-equivalence results (Table 4) are independent of the cost
//! model. Simulated time is reported *alongside* wall time and raw
//! operation counters, never instead of them.

pub mod config;
pub mod cost;
pub mod exec;
pub mod memory;
pub mod pool;
pub mod reduce;
pub mod stats;

pub use config::{DeviceConfig, HostConfig};
pub use cost::KernelCost;
pub use exec::{CpuExecutor, Executor, Stream};
pub use memory::{Device, DeviceAlloc, DeviceError};
pub use stats::DeviceStats;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a panicking holder poisoned it. The
/// values guarded in this crate (a stream clock, the memory ledger) are
/// only touched by non-panicking arithmetic under the lock, so they stay
/// consistent and poisoning carries no information.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
