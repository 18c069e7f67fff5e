//! Training parameters and backend selection.

use crate::trainer::resolve_host_threads_opt;
use gmp_gpusim::{CpuExecutor, Device, DeviceConfig, Executor, Stream};
use gmp_kernel::{ComputeBackendKind, KernelKind};
use gmp_smo::{BatchedParams, SmoParams};

/// Hyper-parameters shared by every backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Kernel function (the paper evaluates with Gaussian kernels).
    pub kernel: KernelKind,
    /// Penalty parameter `C`.
    pub c: f64,
    /// SMO stopping tolerance ε.
    pub eps: f64,
    /// Fit sigmoids and enable probability estimation.
    pub probability: bool,
    /// Working-set / GPU-buffer rows for the batched solver (paper: 1024).
    pub ws_size: usize,
    /// New violating instances per outer round (paper: 512).
    pub q: usize,
    /// δ-relaxation factor for inner early termination.
    pub inner_relax: f64,
    /// Row-cache capacity for the classic solvers (models LibSVM's kernel
    /// cache / the GPU baseline's "4GB for kernel value caching").
    pub cache_rows: usize,
    /// Safety cap on SMO iterations per binary problem.
    pub max_iter: u64,
    /// LibSVM's shrinking heuristic for the classic (LibSVM-like) solver
    /// paths. Never changes the optimum, only the cost.
    pub shrinking: bool,
    /// Sigmoid-fit decision values: `0` fits directly on the training-set
    /// decision values (the paper's Fig. 1 pipeline, free with the final
    /// optimality indicators); `k >= 2` uses k-fold cross-validated
    /// decision values as LibSVM's `svm_binary_svc_probability` does
    /// (less optimistic calibration, k times the training cost).
    pub sigmoid_cv_folds: usize,
    /// Which numeric compute backend executes the kernel hot ops. All
    /// selections are bit-identical; this only changes host wall-clock.
    pub compute_backend: ComputeBackendKind,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            kernel: KernelKind::Rbf { gamma: 0.5 },
            c: 1.0,
            eps: 1e-3,
            probability: true,
            ws_size: 1024,
            q: 512,
            inner_relax: 0.1,
            cache_rows: 1024,
            max_iter: 10_000_000,
            shrinking: false,
            sigmoid_cv_folds: 0,
            compute_backend: ComputeBackendKind::from_env(),
        }
    }
}

impl SvmParams {
    /// Set `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Use an RBF kernel with the given γ.
    pub fn with_rbf(mut self, gamma: f64) -> Self {
        self.kernel = KernelKind::Rbf { gamma };
        self
    }

    /// Set an arbitrary kernel.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Set the working-set size and batch size.
    pub fn with_working_set(mut self, ws_size: usize, q: usize) -> Self {
        self.ws_size = ws_size;
        self.q = q;
        self
    }

    /// Disable probability outputs (plain multi-class SVM, used for the
    /// GTSVM comparison).
    pub fn without_probability(mut self) -> Self {
        self.probability = false;
        self
    }

    /// Fit sigmoids on k-fold cross-validated decision values (LibSVM's
    /// calibration protocol) instead of the direct training-set fit.
    pub fn with_cv_sigmoid(mut self, folds: usize) -> Self {
        assert!(folds >= 2, "need at least two folds");
        self.sigmoid_cv_folds = folds;
        self
    }

    /// Execute the kernel hot ops on the given compute backend (overrides
    /// the `GMP_BACKEND` default).
    pub fn with_compute_backend(mut self, kind: ComputeBackendKind) -> Self {
        self.compute_backend = kind;
        self
    }

    /// The classic-SMO parameter subset.
    pub fn smo(&self) -> SmoParams {
        SmoParams {
            c: self.c,
            eps: self.eps,
            max_iter: self.max_iter,
            shrinking: self.shrinking,
        }
    }

    /// The batched-solver parameter subset.
    pub fn batched(&self) -> BatchedParams {
        BatchedParams {
            base: self.smo(),
            ws_size: self.ws_size,
            q: self.q,
            inner_relax: self.inner_relax,
            max_inner: self.ws_size.max(64) * 4,
        }
    }
}

/// Which implementation trains/predicts (Table 3's five columns).
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// LibSVM-like: classic SMO per binary problem, sequential, on the
    /// host. `threads = 1` models plain LibSVM; `threads = 40` models
    /// LibSVM with OpenMP (which parallelizes kernel-row computation).
    CpuClassic {
        /// Host threads.
        threads: usize,
    },
    /// CMP-SVM: the GMP-SVM algorithm (batched working sets + kernel value
    /// sharing) on the host.
    CpuBatched {
        /// Host threads.
        threads: usize,
    },
    /// The GPU baseline of §3.2: classic SMO per binary problem, one
    /// binary SVM at a time on the device, LRU row cache.
    GpuBaseline {
        /// Simulated device.
        device: DeviceConfig,
    },
    /// Full GMP-SVM (§3.3): batched working sets, FIFO buffer, kernel
    /// value sharing, concurrent binary SVMs (as many as device memory
    /// allows, at most 8), support-vector sharing.
    Gmp {
        /// Simulated device.
        device: DeviceConfig,
    },
}

impl Backend {
    /// GMP-SVM on the paper's Tesla P100.
    pub fn gmp_default() -> Backend {
        Backend::Gmp {
            device: DeviceConfig::tesla_p100(),
        }
    }

    /// The GPU baseline on the paper's Tesla P100.
    pub fn gpu_baseline_default() -> Backend {
        Backend::GpuBaseline {
            device: DeviceConfig::tesla_p100(),
        }
    }

    /// LibSVM without OpenMP.
    pub fn libsvm() -> Backend {
        Backend::CpuClassic { threads: 1 }
    }

    /// LibSVM with OpenMP (40 threads, the paper's best configuration).
    pub fn libsvm_openmp() -> Backend {
        Backend::CpuClassic { threads: 40 }
    }

    /// CMP-SVM with 40 threads.
    pub fn cmp_svm() -> Backend {
        Backend::CpuBatched { threads: 40 }
    }

    /// Short display name matching the paper's table headers.
    pub fn label(&self) -> String {
        match self {
            Backend::CpuClassic { threads: 1 } => "LibSVM w/o OpenMP".to_string(),
            Backend::CpuClassic { threads } => format!("LibSVM w/ OpenMP ({threads}t)"),
            Backend::CpuBatched { threads } => format!("CMP-SVM ({threads}t)"),
            Backend::GpuBaseline { .. } => "GPU baseline".to_string(),
            Backend::Gmp { .. } => "GMP-SVM".to_string(),
        }
    }

    // The execution model, decided here once: the trainer and the scoring
    // plan read these and match on no variant.

    /// A fresh simulated device for the backends that run on one.
    pub(crate) fn device(&self) -> Option<Device> {
        match self {
            Backend::GpuBaseline { device } | Backend::Gmp { device } => {
                Some(Device::new(device.clone()))
            }
            Backend::CpuClassic { .. } | Backend::CpuBatched { .. } => None,
        }
    }

    /// A fresh executor for one binary problem (or one prediction call): a
    /// stream with `sm_fraction` of the SMs of `device` (this backend's
    /// [`Backend::device`]), or the host model with the configured threads.
    pub(crate) fn executor(&self, device: Option<&Device>, sm_fraction: f64) -> Box<dyn Executor> {
        match (self, device) {
            (Backend::CpuClassic { threads } | Backend::CpuBatched { threads }, _) => {
                Box::new(CpuExecutor::xeon(*threads as u32))
            }
            (_, Some(d)) => Box::new(Stream::new(d.clone(), sm_fraction)),
            // gmp:allow-panic — `device()` gives every GPU backend its device
            (_, None) => unreachable!("a GPU backend runs with its device"),
        }
    }

    /// Do the binary SVMs share kernel values? In training they read one
    /// segment store with the batched solver; in prediction one test-by-SV
    /// block over the whole SV pool. Otherwise each binary SVM has its own
    /// rows: an LRU cache over its sub-dataset for the classic solver, and
    /// its own SV list to score against.
    pub(crate) fn shares_kernel_values(&self) -> bool {
        matches!(self, Backend::Gmp { .. } | Backend::CpuBatched { .. })
    }

    /// Real host threads for training: GMP-SVM's `explicit` request (else
    /// `GMP_HOST_THREADS`, else available parallelism), the CPU backends'
    /// configured threads up to what the machine has (the cost model still
    /// charges the configured count), and one for the GPU baseline.
    pub(crate) fn host_threads(&self, explicit: Option<usize>) -> usize {
        match self {
            Backend::Gmp { .. } => resolve_host_threads_opt(explicit),
            Backend::CpuClassic { threads } | Backend::CpuBatched { threads } => {
                let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
                (*threads).min(avail).max(1)
            }
            Backend::GpuBaseline { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_configuration() {
        let p = SvmParams::default();
        assert_eq!(p.ws_size, 1024);
        assert_eq!(p.q, 512);
        assert_eq!(p.eps, 1e-3);
        assert!(p.probability);
        assert!(matches!(p.kernel, KernelKind::Rbf { .. }));
    }

    #[test]
    fn builders_compose() {
        let p = SvmParams::default()
            .with_c(10.0)
            .with_rbf(0.125)
            .with_working_set(256, 128)
            .without_probability();
        assert_eq!(p.c, 10.0);
        assert_eq!(p.kernel, KernelKind::Rbf { gamma: 0.125 });
        assert_eq!((p.ws_size, p.q), (256, 128));
        assert!(!p.probability);
        assert_eq!(p.batched().q, 128);
        assert_eq!(p.smo().c, 10.0);
    }

    #[test]
    fn backend_labels() {
        assert_eq!(Backend::libsvm().label(), "LibSVM w/o OpenMP");
        assert!(Backend::libsvm_openmp().label().contains("OpenMP"));
        assert_eq!(Backend::gmp_default().label(), "GMP-SVM");
    }

    #[test]
    fn execution_model_per_backend() {
        // (backend, on a device, shares kernel values)
        for (backend, gpu, shares) in [
            (Backend::libsvm(), false, false),
            (Backend::cmp_svm(), false, true),
            (Backend::gpu_baseline_default(), true, false),
            (Backend::gmp_default(), true, true),
        ] {
            let device = backend.device();
            assert_eq!(device.is_some(), gpu, "{}", backend.label());
            assert_eq!(backend.shares_kernel_values(), shares);
            let exec = backend.executor(device.as_ref(), 0.5);
            assert_eq!(exec.name().starts_with("gpu-stream"), gpu);
        }
        assert_eq!(Backend::gpu_baseline_default().host_threads(Some(4)), 1);
        assert_eq!(Backend::gmp_default().host_threads(Some(4)), 4);
        assert_eq!(Backend::libsvm().host_threads(Some(4)), 1);
    }
}
