//! The three third-party comparator systems (§4.3).

use crate::uncached::UncachedRows;
use gmp_datasets::Dataset;
use gmp_gpusim::{Device, DeviceConfig, DeviceError, Executor, Stream};
use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
use gmp_smo::{BatchedParams, BatchedSmoSolver, ClassicSmoSolver, SmoParams};
use gmp_sparse::{CsrBuilder, CsrMatrix};
use std::sync::Arc;
use std::time::Instant;

/// Result of training one comparator on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorReport {
    /// System name.
    pub name: String,
    /// Simulated seconds on the modeled device.
    pub sim_s: f64,
    /// Wall-clock seconds on this host.
    pub wall_s: f64,
    /// Kernel values computed.
    pub kernel_evals: u64,
    /// Total SMO iterations.
    pub iterations: u64,
    /// All binary problems converged?
    pub converged: bool,
}

fn binary_labels(data: &Dataset) -> Vec<f64> {
    assert_eq!(
        data.n_classes(),
        2,
        "binary comparator needs a 2-class dataset"
    );
    data.y
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { -1.0 })
        .collect()
}

/// Store every value of the matrix explicitly (zeros included) — the dense
/// data representation of GPUSVM; `nnz == n x d` makes its kernel products
/// pay for the full dimensionality on sparse data.
fn densify(x: &CsrMatrix) -> CsrMatrix {
    let mut b = CsrBuilder::new(x.ncols());
    b.reserve(x.nrows() * x.ncols());
    let mut scratch = vec![0.0; x.ncols()];
    for i in 0..x.nrows() {
        x.row(i).scatter(&mut scratch);
        b.start_row();
        for (c, &v) in scratch.iter().enumerate() {
            // Exact zeros are stored too: use push on every column.
            b.push(c as u32, v);
        }
        x.row(i).clear_scatter(&mut scratch);
    }
    b.finish()
}

/// GPUSVM (Catanzaro et al. 2008): binary SVM training with dense data.
#[derive(Debug, Clone)]
pub struct GpuSvmLike {
    /// Penalty parameter.
    pub c: f64,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Stopping tolerance.
    pub eps: f64,
    /// Simulated device.
    pub device: DeviceConfig,
}

impl GpuSvmLike {
    /// Train on a binary dataset.
    pub fn train(&self, data: &Dataset) -> Result<ComparatorReport, DeviceError> {
        let wall = Instant::now();
        let y = binary_labels(data);
        let dense = Arc::new(densify(&data.x));
        let device = Device::new(self.device.clone());
        let stream = Stream::new(device.clone(), 1.0);
        // Dense data resident on device (the memory penalty of the design).
        let _mem = device.alloc(dense.mem_bytes() as u64)?;
        stream.charge_transfer(dense.mem_bytes() as u64);
        let oracle = Arc::new(KernelOracle::new(dense, self.kernel));
        let mut rows = BufferedRows::new(
            oracle.clone(),
            512.min(data.n().max(1)),
            ReplacementPolicy::Lru,
            Some(&device),
        )?;
        let result = ClassicSmoSolver::new(SmoParams {
            c: self.c,
            eps: self.eps,
            max_iter: 10_000_000,
            shrinking: false,
        })
        .solve(&y, &mut rows, &stream);
        Ok(ComparatorReport {
            name: "GPUSVM".to_string(),
            sim_s: stream.elapsed(),
            wall_s: wall.elapsed().as_secs_f64(),
            kernel_evals: oracle.eval_count(),
            iterations: result.iterations,
            converged: result.converged,
        })
    }
}

/// OHD-SVM (Vaněk et al. 2017): binary SVMs, hierarchical (two-level)
/// working sets, sparse data, no cross-round row reuse.
#[derive(Debug, Clone)]
pub struct OhdSvmLike {
    /// Penalty parameter.
    pub c: f64,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Stopping tolerance.
    pub eps: f64,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Working-set size of the outer level (their default is on the order
    /// of a few hundred).
    pub ws_size: usize,
}

impl OhdSvmLike {
    /// Train on a binary dataset.
    pub fn train(&self, data: &Dataset) -> Result<ComparatorReport, DeviceError> {
        let wall = Instant::now();
        let y = binary_labels(data);
        let device = Device::new(self.device.clone());
        let stream = Stream::new(device.clone(), 1.0);
        let _mem = device.alloc(data.x.mem_bytes() as u64)?;
        stream.charge_transfer(data.x.mem_bytes() as u64);
        let oracle = Arc::new(KernelOracle::new(Arc::new(data.x.clone()), self.kernel));
        // No retained kernel rows across rounds: every working-set refresh
        // recomputes its rows (their hierarchical scheme keeps rows only
        // within the inner level).
        let mut rows = UncachedRows::new(oracle.clone());
        let params = BatchedParams {
            base: SmoParams {
                c: self.c,
                eps: self.eps,
                max_iter: 10_000_000,
                shrinking: false,
            },
            ws_size: self.ws_size,
            q: (self.ws_size / 2).max(2),
            inner_relax: 0.1,
            max_inner: self.ws_size * 4,
        };
        let result = BatchedSmoSolver::new(params).solve(&y, &mut rows, &stream);
        Ok(ComparatorReport {
            name: "OHD-SVM".to_string(),
            sim_s: stream.elapsed(),
            wall_s: wall.elapsed().as_secs_f64(),
            kernel_evals: oracle.eval_count(),
            iterations: result.iterations,
            converged: result.converged,
        })
    }
}

/// GTSVM (Cotter et al. 2011): one-vs-one multi-class SVMs (no probability
/// support), sparse CSR data, small working sets, sequential binary
/// training without kernel sharing.
#[derive(Debug, Clone)]
pub struct GtSvmLike {
    /// Penalty parameter.
    pub c: f64,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Stopping tolerance.
    pub eps: f64,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Their small fixed working set (16 in the original system).
    pub ws_size: usize,
}

impl GtSvmLike {
    /// Train one-vs-one multi-class SVMs on `data`.
    pub fn train(&self, data: &Dataset) -> Result<ComparatorReport, DeviceError> {
        let wall = Instant::now();
        let k = data.n_classes();
        assert!(k >= 2, "need at least two classes");
        let device = Device::new(self.device.clone());
        let mut sim_s = 0.0;
        let mut kernel_evals = 0u64;
        let mut iterations = 0u64;
        let mut converged = true;
        for s in 0..k as u32 {
            for t in s + 1..k as u32 {
                // Materialize the pair's sub-dataset (no sharing).
                let mut idx = data.class_indices(s);
                let n_s = idx.len();
                idx.extend(data.class_indices(t));
                let sub = Arc::new(data.x.select_rows(&idx));
                let y: Vec<f64> = (0..idx.len())
                    .map(|i| if i < n_s { 1.0 } else { -1.0 })
                    .collect();
                let stream = Stream::new(device.clone(), 1.0);
                let _mem = device.alloc(sub.mem_bytes() as u64)?;
                stream.charge_transfer(sub.mem_bytes() as u64);
                let oracle = Arc::new(KernelOracle::new(sub, self.kernel));
                let mut rows = UncachedRows::new(oracle.clone());
                let params = BatchedParams {
                    base: SmoParams {
                        c: self.c,
                        eps: self.eps,
                        max_iter: 10_000_000,
                        shrinking: false,
                    },
                    ws_size: self.ws_size,
                    q: (self.ws_size / 2).max(2),
                    inner_relax: 0.0,
                    max_inner: self.ws_size * 4,
                };
                let result = BatchedSmoSolver::new(params).solve(&y, &mut rows, &stream);
                sim_s += stream.elapsed();
                kernel_evals += oracle.eval_count();
                iterations += result.iterations;
                converged &= result.converged;
            }
        }
        Ok(ComparatorReport {
            name: "GTSVM".to_string(),
            sim_s,
            wall_s: wall.elapsed().as_secs_f64(),
            kernel_evals,
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_datasets::BlobSpec;

    fn binary_data() -> Dataset {
        BlobSpec {
            n: 80,
            dim: 4,
            classes: 2,
            spread: 0.2,
            seed: 13,
        }
        .generate()
    }

    fn multi_data() -> Dataset {
        BlobSpec {
            n: 90,
            dim: 3,
            classes: 3,
            spread: 0.18,
            seed: 14,
        }
        .generate()
    }

    #[test]
    fn densify_stores_zeros() {
        let x = CsrMatrix::from_dense(&[vec![1.0, 0.0, 2.0]], 3);
        let d = densify(&x);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.row(0).values, &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn gpusvm_trains_binary() {
        let r = GpuSvmLike {
            c: 1.0,
            kernel: KernelKind::Rbf { gamma: 1.0 },
            eps: 1e-3,
            device: DeviceConfig::tesla_p100(),
        }
        .train(&binary_data())
        .unwrap();
        assert!(r.converged);
        assert!(r.sim_s > 0.0);
        assert!(r.kernel_evals > 0);
    }

    #[test]
    #[should_panic(expected = "2-class")]
    fn gpusvm_rejects_multiclass() {
        let _ = GpuSvmLike {
            c: 1.0,
            kernel: KernelKind::Linear,
            eps: 1e-3,
            device: DeviceConfig::tesla_p100(),
        }
        .train(&multi_data());
    }

    #[test]
    fn ohdsvm_trains_binary() {
        let r = OhdSvmLike {
            c: 1.0,
            kernel: KernelKind::Rbf { gamma: 1.0 },
            eps: 1e-3,
            device: DeviceConfig::tesla_p100(),
            ws_size: 16,
        }
        .train(&binary_data())
        .unwrap();
        assert!(r.converged);
        assert!(r.iterations > 0);
    }

    #[test]
    fn gtsvm_trains_multiclass() {
        let r = GtSvmLike {
            c: 1.0,
            kernel: KernelKind::Rbf { gamma: 1.0 },
            eps: 1e-3,
            device: DeviceConfig::tesla_p100(),
            ws_size: 16,
        }
        .train(&multi_data())
        .unwrap();
        assert!(r.converged);
        assert!(r.kernel_evals > 0);
    }

    #[test]
    fn dense_representation_costs_more_evals_work() {
        // On sparse data, the dense comparator's kernel work (flops) blows
        // up even with the same algorithm: compare simulated time against
        // a sparse-path classic solve.
        let sparse_data = gmp_datasets::SynthSpec {
            n: 60,
            dim: 2000,
            classes: 2,
            density: 0.01,
            class_sep: 0.8,
            label_noise: 0.0,
            scale: 1.0,
            seed: 3,
        }
        .generate();
        let dense_report = GpuSvmLike {
            c: 1.0,
            kernel: KernelKind::Rbf { gamma: 0.5 },
            eps: 1e-3,
            device: DeviceConfig::tesla_p100(),
        }
        .train(&sparse_data)
        .unwrap();
        // Sparse path with the same solver.
        let y = binary_labels(&sparse_data);
        let device = Device::new(DeviceConfig::tesla_p100());
        let stream = Stream::new(device.clone(), 1.0);
        let oracle = Arc::new(KernelOracle::new(
            Arc::new(sparse_data.x.clone()),
            KernelKind::Rbf { gamma: 0.5 },
        ));
        let mut rows =
            BufferedRows::new(oracle, 512, ReplacementPolicy::Lru, Some(&device)).unwrap();
        let _ = ClassicSmoSolver::new(SmoParams::with_c(1.0)).solve(&y, &mut rows, &stream);
        assert!(
            dense_report.sim_s > stream.elapsed(),
            "dense {} vs sparse {}",
            dense_report.sim_s,
            stream.elapsed()
        );
    }
}
