//! Cumulative device statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free accumulator for device activity. Times are stored as
/// nanoseconds in atomics; snapshot with [`StatsCell::snapshot`].
#[derive(Debug, Default)]
pub struct StatsCell {
    launches: AtomicU64,
    flops: AtomicU64,
    bytes_global: AtomicU64,
    bytes_pcie: AtomicU64,
    sim_compute_ns: AtomicU64,
    sim_transfer_ns: AtomicU64,
}

/// A point-in-time snapshot of device activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Number of kernel launches.
    pub launches: u64,
    /// Total FLOPs executed.
    pub flops: u64,
    /// Total bytes moved through global memory.
    pub bytes_global: u64,
    /// Total bytes moved over PCIe.
    pub bytes_pcie: u64,
    /// Total simulated kernel time (seconds), summed over all launches
    /// regardless of stream concurrency.
    pub sim_compute_s: f64,
    /// Total simulated transfer time (seconds).
    pub sim_transfer_s: f64,
}

impl StatsCell {
    /// Record one launch.
    pub fn record_launch(&self, flops: u64, bytes: u64, sim_s: f64) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.flops.fetch_add(flops, Ordering::Relaxed);
        self.bytes_global.fetch_add(bytes, Ordering::Relaxed);
        self.sim_compute_ns
            .fetch_add((sim_s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Record one PCIe transfer.
    pub fn record_transfer(&self, bytes: u64, sim_s: f64) {
        self.bytes_pcie.fetch_add(bytes, Ordering::Relaxed);
        self.sim_transfer_ns
            .fetch_add((sim_s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            launches: self.launches.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            bytes_global: self.bytes_global.load(Ordering::Relaxed),
            bytes_pcie: self.bytes_pcie.load(Ordering::Relaxed),
            sim_compute_s: self.sim_compute_ns.load(Ordering::Relaxed) as f64 / 1e9,
            sim_transfer_s: self.sim_transfer_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.launches.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
        self.bytes_global.store(0, Ordering::Relaxed);
        self.bytes_pcie.store(0, Ordering::Relaxed);
        self.sim_compute_ns.store(0, Ordering::Relaxed);
        self.sim_transfer_ns.store(0, Ordering::Relaxed);
    }
}

impl DeviceStats {
    /// Total simulated device-side time.
    pub fn sim_total_s(&self) -> f64 {
        self.sim_compute_s + self.sim_transfer_s
    }

    /// Difference `self - earlier` (for phase attribution).
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            launches: self.launches - earlier.launches,
            flops: self.flops - earlier.flops,
            bytes_global: self.bytes_global - earlier.bytes_global,
            bytes_pcie: self.bytes_pcie - earlier.bytes_pcie,
            sim_compute_s: self.sim_compute_s - earlier.sim_compute_s,
            sim_transfer_s: self.sim_transfer_s - earlier.sim_transfer_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let c = StatsCell::default();
        c.record_launch(100, 64, 1e-6);
        c.record_launch(50, 32, 2e-6);
        c.record_transfer(1024, 5e-6);
        let s = c.snapshot();
        assert_eq!(s.launches, 2);
        assert_eq!(s.flops, 150);
        assert_eq!(s.bytes_global, 96);
        assert_eq!(s.bytes_pcie, 1024);
        assert!((s.sim_compute_s - 3e-6).abs() < 1e-9);
        assert!((s.sim_total_s() - 8e-6).abs() < 1e-9);
    }

    #[test]
    fn since_subtracts() {
        let c = StatsCell::default();
        c.record_launch(10, 10, 1e-6);
        let a = c.snapshot();
        c.record_launch(5, 5, 1e-6);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.launches, 1);
        assert_eq!(d.flops, 5);
    }

    #[test]
    fn reset_zeroes() {
        let c = StatsCell::default();
        c.record_launch(10, 10, 1e-6);
        c.reset();
        assert_eq!(c.snapshot(), DeviceStats::default());
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let c = StatsCell::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..250 {
                        c.record_launch(3, 2, 1.0);
                        c.record_transfer(5, 1.0);
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.launches, 1000);
        assert_eq!(snap.flops, 3000);
        assert_eq!(snap.bytes_global, 2000);
        assert_eq!(snap.bytes_pcie, 5000);
        assert_eq!(snap.sim_compute_s, 1000.0);
        assert_eq!(snap.sim_transfer_s, 1000.0);
    }
}
