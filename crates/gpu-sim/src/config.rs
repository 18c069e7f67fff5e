//! Hardware descriptions for the analytic cost models.

/// Description of a simulated GPU.
///
/// Defaults mirror the paper's testbed (Tesla P100, 12 GB variant).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name (reports only).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// FP64 cores per SM (the solver works in double precision, like the
    /// LibSVM reference it is compared against).
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global memory capacity in bytes — the hard budget every allocation
    /// is charged against.
    pub global_mem_bytes: u64,
    /// Global memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host<->device (PCIe) bandwidth in GB/s — one order of magnitude
    /// below global-memory bandwidth, per §2.3 of the paper.
    pub pcie_gbps: f64,
    /// Fixed kernel-launch overhead in microseconds. This is what batching
    /// q rows into one launch amortizes.
    pub launch_overhead_us: f64,
}

impl DeviceConfig {
    /// The paper's GPU: Tesla P100 with 12 GB of global memory.
    ///
    /// 56 SMs x 32 FP64 cores @ 1.33 GHz ≈ 4.7 TFLOP/s double precision,
    /// 549 GB/s memory bandwidth (12 GB variant), ~12 GB/s effective PCIe
    /// 3.0 x16, ~5 µs launch overhead.
    pub fn tesla_p100() -> Self {
        DeviceConfig {
            name: "Tesla P100 (simulated)".to_string(),
            num_sms: 56,
            cores_per_sm: 32,
            clock_ghz: 1.328,
            global_mem_bytes: 12 * (1 << 30),
            mem_bandwidth_gbps: 549.0,
            pcie_gbps: 12.0,
            launch_overhead_us: 5.0,
        }
    }

    /// Tesla V100 (16 GB): the "better GPU" of the paper's forward-looking
    /// claim in §4.1 — "Better GPUs such as V100 should further improve
    /// the efficiency of GMP-SVM, due to higher memory bandwidth and more
    /// cores." 80 SMs x 32 FP64 cores @ 1.53 GHz ≈ 7.8 TFLOP/s, 900 GB/s.
    pub fn tesla_v100() -> Self {
        DeviceConfig {
            name: "Tesla V100 (simulated)".to_string(),
            num_sms: 80,
            cores_per_sm: 32,
            clock_ghz: 1.53,
            global_mem_bytes: 16 * (1 << 30),
            mem_bandwidth_gbps: 900.0,
            pcie_gbps: 13.0,
            launch_overhead_us: 4.0,
        }
    }

    /// A deliberately tiny device for unit tests: 2 SMs, 64 KiB of memory,
    /// so out-of-memory paths and scheduling decisions are easy to trigger.
    pub fn tiny_test(mem_bytes: u64) -> Self {
        DeviceConfig {
            name: "tiny-test".to_string(),
            num_sms: 2,
            cores_per_sm: 4,
            clock_ghz: 1.0,
            global_mem_bytes: mem_bytes,
            mem_bandwidth_gbps: 10.0,
            pcie_gbps: 1.0,
            launch_overhead_us: 1.0,
        }
    }

    /// Total FP64 core count.
    pub fn total_cores(&self) -> u64 {
        self.num_sms as u64 * self.cores_per_sm as u64
    }

    /// Peak FLOP/s (1 FLOP per core per cycle).
    pub fn peak_flops(&self) -> f64 {
        self.total_cores() as f64 * self.clock_ghz * 1e9
    }
}

/// Description of a host CPU for the CPU-side cost model (LibSVM with and
/// without OpenMP, and CMP-SVM).
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Human-readable name.
    pub name: String,
    /// Physical core count available to the run.
    pub cores: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Sustained double-precision FLOPs per cycle per core for this kind of
    /// irregular sparse workload (well below the AVX2 peak on purpose).
    pub flops_per_cycle: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Fork/join overhead of a parallel region in microseconds (OpenMP-like).
    pub parallel_overhead_us: f64,
}

impl HostConfig {
    /// The paper's workstation: two Xeon E5-2640 v4 (2x10 cores @ 2.4 GHz,
    /// 256 GB RAM). `cores` here is the number of *threads the run uses*.
    pub fn xeon_e5_2640_v4(threads: u32) -> Self {
        HostConfig {
            name: format!("2x Xeon E5-2640 v4 ({threads} threads, simulated)"),
            cores: threads,
            clock_ghz: 2.4,
            // Sparse gather/scatter dot products sustain roughly 2 DP
            // flops/cycle on this microarchitecture — far from the FMA peak.
            flops_per_cycle: 2.0,
            mem_bandwidth_gbps: 136.0,
            parallel_overhead_us: 2.0,
        }
    }

    /// Peak sustained FLOP/s for the configured thread count.
    pub fn peak_flops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * self.flops_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_shape() {
        let c = DeviceConfig::tesla_p100();
        assert_eq!(c.total_cores(), 56 * 32);
        assert!(c.peak_flops() > 2e12);
        assert_eq!(c.global_mem_bytes, 12 * 1024 * 1024 * 1024);
    }

    #[test]
    fn gpu_much_faster_than_cpu() {
        // The simulated hardware ratio that drives the paper's CPU-vs-GPU
        // comparisons: P100 should be several times the 40-thread host.
        let gpu = DeviceConfig::tesla_p100();
        let cpu = HostConfig::xeon_e5_2640_v4(40);
        let ratio = gpu.peak_flops() / cpu.peak_flops();
        assert!(ratio > 5.0 && ratio < 50.0, "ratio {ratio}");
    }

    #[test]
    fn single_thread_scales_down() {
        let one = HostConfig::xeon_e5_2640_v4(1);
        let forty = HostConfig::xeon_e5_2640_v4(40);
        assert!((forty.peak_flops() / one.peak_flops() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_device_budget() {
        let c = DeviceConfig::tiny_test(1024);
        assert_eq!(c.global_mem_bytes, 1024);
        assert_eq!(c.total_cores(), 8);
    }
}
