//! Analytic launch cost model.

use crate::config::{DeviceConfig, HostConfig};

/// Description of one kernel launch (or one parallel region on the host).
///
/// The simulator never inspects *what* the kernel computed — callers declare
/// the work: how many logical GPU threads, total FLOPs, and bytes moved
/// through global memory. Constructors for the common patterns keep call
/// sites honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Logical thread count (parallelism exposed by the launch).
    pub threads: u64,
    /// Total double-precision FLOPs across all threads.
    pub flops: u64,
    /// Bytes read from global memory.
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
}

impl KernelCost {
    /// An element-wise map over `n` items: one thread per item.
    pub fn map(n: u64, flops_per_item: u64, bytes_per_item: u64) -> Self {
        KernelCost {
            threads: n,
            flops: n * flops_per_item,
            bytes_read: n * bytes_per_item,
            bytes_written: n * 8,
        }
    }

    /// A tree reduction over `n` f64 values (min/max/argmin/sum): reads the
    /// input once, ~2 FLOPs (compare+select or add) per element.
    pub fn reduction(n: u64) -> Self {
        KernelCost {
            threads: n.div_ceil(2).max(1),
            flops: 2 * n,
            bytes_read: 8 * n,
            bytes_written: 8,
        }
    }

    /// A batched kernel-row product: `batch_rows` rows against `n` columns
    /// with `total_flops` multiply-adds. The batch operand (`batch_bytes`)
    /// is staged once — this is the §3.3.1 amortization: the data matrix
    /// (`data_bytes`) is streamed once *per batch*, not once per row.
    pub fn row_batch(
        batch_rows: u64,
        n: u64,
        total_flops: u64,
        batch_bytes: u64,
        data_bytes: u64,
    ) -> Self {
        KernelCost {
            threads: batch_rows * n,
            flops: total_flops,
            bytes_read: batch_bytes + data_bytes,
            bytes_written: batch_rows * n * 8,
        }
    }

    /// Total global-memory traffic.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Time in seconds this launch takes on `cfg` when granted `sm_fraction` of
/// the device (0 < sm_fraction <= 1).
///
/// `launch_overhead + max(compute, memory)` where compute throughput
/// saturates at `total_cores * sm_fraction` concurrent threads. A launch
/// whose `threads` count is below the granted width wastes the remainder —
/// the underutilization the paper's concurrent multi-SVM training recovers.
pub fn gpu_launch_time(cfg: &DeviceConfig, cost: &KernelCost, sm_fraction: f64) -> f64 {
    assert!(sm_fraction > 0.0 && sm_fraction <= 1.0, "bad sm_fraction");
    if cost.threads == 0 {
        return cfg.launch_overhead_us * 1e-6;
    }
    let width = (cfg.total_cores() as f64 * sm_fraction).max(1.0);
    let flops_per_thread = cost.flops as f64 / cost.threads as f64;
    // Waves of execution: ceil(threads/width) rounds of flops_per_thread.
    let waves = (cost.threads as f64 / width).ceil();
    let compute_s = waves * flops_per_thread / (cfg.clock_ghz * 1e9);
    let mem_s = cost.bytes_total() as f64 / (cfg.mem_bandwidth_gbps * sm_fraction * 1e9);
    cfg.launch_overhead_us * 1e-6 + compute_s.max(mem_s)
}

/// Time in seconds for a host<->device transfer of `bytes` over PCIe.
pub fn pcie_time(cfg: &DeviceConfig, bytes: u64) -> f64 {
    // ~10 µs per transfer call plus bandwidth-limited payload.
    10e-6 + bytes as f64 / (cfg.pcie_gbps * 1e9)
}

/// Time in seconds for the same work on the host CPU model.
///
/// A multi-threaded host runs each region either serially (no fork/join
/// overhead) or in parallel (overhead + threads-wide throughput) —
/// whichever is cheaper, like an OpenMP `if` clause. Small regions
/// therefore never regress when threads are added.
pub fn cpu_region_time(cfg: &HostConfig, cost: &KernelCost) -> f64 {
    let mem_s = cost.bytes_total() as f64 / (cfg.mem_bandwidth_gbps * 1e9);
    let serial_compute_s = cost.flops as f64 / (cfg.clock_ghz * 1e9 * cfg.flops_per_cycle);
    let serial = serial_compute_s.max(mem_s);
    if cfg.cores <= 1 {
        return serial;
    }
    let parallel =
        cfg.parallel_overhead_us * 1e-6 + (cost.flops as f64 / cfg.peak_flops()).max(mem_s);
    parallel.min(serial)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p100() -> DeviceConfig {
        DeviceConfig::tesla_p100()
    }

    #[test]
    fn zero_thread_launch_costs_overhead_only() {
        let t = gpu_launch_time(
            &p100(),
            &KernelCost {
                threads: 0,
                flops: 0,
                bytes_read: 0,
                bytes_written: 0,
            },
            1.0,
        );
        assert!((t - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn batching_amortizes_launch_overhead() {
        // 64 separate 1-row launches vs one 64-row launch over n=10_000.
        let cfg = p100();
        let n = 10_000u64;
        let flops_per_row = 2 * n * 100; // ~100 nnz per column row
        let one_row = KernelCost::row_batch(1, n, flops_per_row, 1_000, 8 * n * 100);
        let batched = KernelCost::row_batch(64, n, 64 * flops_per_row, 64_000, 8 * n * 100);
        let t_separate = 64.0 * gpu_launch_time(&cfg, &one_row, 1.0);
        let t_batched = gpu_launch_time(&cfg, &batched, 1.0);
        assert!(
            t_batched < t_separate / 5.0,
            "batched {t_batched} vs separate {t_separate}"
        );
    }

    #[test]
    fn small_launch_underutilizes_so_fraction_is_free() {
        // A launch with fewer threads than half the device costs the same
        // at sm_fraction=0.5 (compute-bound case) — concurrency is free.
        let cfg = p100();
        let cost = KernelCost {
            threads: 256, // much less than 1792 cores
            flops: 256 * 1000,
            bytes_read: 0,
            bytes_written: 0,
        };
        let full = gpu_launch_time(&cfg, &cost, 1.0);
        let half = gpu_launch_time(&cfg, &cost, 0.5);
        assert!((full - half).abs() / full < 1e-9);
    }

    #[test]
    fn big_launch_slows_down_with_smaller_fraction() {
        let cfg = p100();
        let cost = KernelCost {
            threads: 1_000_000,
            flops: 1_000_000 * 100,
            bytes_read: 0,
            bytes_written: 0,
        };
        let full = gpu_launch_time(&cfg, &cost, 1.0);
        let half = gpu_launch_time(&cfg, &cost, 0.5);
        assert!(half > 1.8 * full && half < 2.2 * full, "{half} vs {full}");
    }

    #[test]
    fn memory_bound_launch_uses_bandwidth() {
        let cfg = p100();
        // Huge traffic, trivial compute.
        let cost = KernelCost {
            threads: 1000,
            flops: 1000,
            bytes_read: 10 * (1 << 30),
            bytes_written: 0,
        };
        let t = gpu_launch_time(&cfg, &cost, 1.0);
        let expect = 10.0 * (1u64 << 30) as f64 / (549.0 * 1e9);
        assert!((t - 5e-6 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn pcie_slower_than_global_memory() {
        let cfg = p100();
        let bytes = 1u64 << 30;
        let pcie = pcie_time(&cfg, bytes);
        let mem = gpu_launch_time(
            &cfg,
            &KernelCost {
                threads: 1,
                flops: 0,
                bytes_read: bytes,
                bytes_written: 0,
            },
            1.0,
        );
        assert!(pcie > 10.0 * mem, "pcie {pcie} vs mem {mem}");
    }

    #[test]
    fn cpu_region_scales_with_threads() {
        let cost = KernelCost::map(1_000_000, 50, 16);
        let t1 = cpu_region_time(&HostConfig::xeon_e5_2640_v4(1), &cost);
        let t40 = cpu_region_time(&HostConfig::xeon_e5_2640_v4(40), &cost);
        assert!(t1 / t40 > 4.0, "t1={t1} t40={t40}");
    }

    #[test]
    fn reduction_cost_shape() {
        let c = KernelCost::reduction(1024);
        assert_eq!(c.flops, 2048);
        assert_eq!(c.bytes_read, 8192);
        assert_eq!(c.threads, 512);
        // Never zero threads even for n = 1.
        assert_eq!(KernelCost::reduction(1).threads, 1);
    }

    #[test]
    #[should_panic(expected = "bad sm_fraction")]
    fn rejects_zero_fraction() {
        gpu_launch_time(&p100(), &KernelCost::reduction(8), 0.0);
    }
}
