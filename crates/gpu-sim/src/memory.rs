//! Device-memory accounting: a capacity-limited allocator.
//!
//! The simulator does not own the backing storage (host `Vec`s do); it owns
//! the *budget*. Every byte a component claims to keep resident on the
//! device is registered here, and the allocator rejects requests beyond the
//! configured capacity — reproducing the constraint that shapes the whole
//! GMP-SVM design (§3.1.1 challenge ii).

use crate::config::DeviceConfig;
use crate::cost::pcie_time;
use crate::stats::{DeviceStats, StatsCell};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors raised by the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The allocation would exceed the device memory capacity.
    OutOfMemory {
        /// Bytes requested by the failed allocation.
        requested: u64,
        /// Bytes still available at the time of the request.
        available: u64,
        /// Total device capacity.
        capacity: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B, available {available} B of {capacity} B"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

#[derive(Debug, Default)]
struct MemState {
    used: u64,
    peak: u64,
}

/// A simulated GPU. Cheap to clone (all state behind `Arc`).
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

struct DeviceInner {
    config: DeviceConfig,
    mem: Mutex<MemState>,
    stats: StatsCell,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("config", &self.inner.config.name)
            .field("mem_used", &self.mem_used())
            .finish()
    }
}

impl Device {
    /// Create a device from a hardware description.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                config,
                mem: Mutex::new(MemState::default()),
                stats: StatsCell::default(),
            }),
        }
    }

    /// The hardware description.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// Bytes currently allocated.
    pub fn mem_used(&self) -> u64 {
        crate::lock(&self.inner.mem).used
    }

    /// High-water mark of allocated bytes.
    pub fn mem_peak(&self) -> u64 {
        crate::lock(&self.inner.mem).peak
    }

    /// Bytes still available.
    pub fn mem_available(&self) -> u64 {
        let m = crate::lock(&self.inner.mem);
        self.inner.config.global_mem_bytes - m.used
    }

    /// Claim `bytes` of device memory; freed when the returned guard drops.
    pub fn alloc(&self, bytes: u64) -> Result<DeviceAlloc, DeviceError> {
        let mut m = crate::lock(&self.inner.mem);
        let capacity = self.inner.config.global_mem_bytes;
        if m.used + bytes > capacity {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available: capacity - m.used,
                capacity,
            });
        }
        m.used += bytes;
        m.peak = m.peak.max(m.used);
        Ok(DeviceAlloc {
            device: self.clone(),
            bytes,
        })
    }

    /// Would an allocation of `bytes` succeed right now?
    pub fn can_alloc(&self, bytes: u64) -> bool {
        self.mem_available() >= bytes
    }

    /// Record a host->device (or device->host) transfer of `bytes` and
    /// return its simulated duration in seconds.
    pub fn transfer(&self, bytes: u64) -> f64 {
        let t = pcie_time(&self.inner.config, bytes);
        self.inner.stats.record_transfer(bytes, t);
        t
    }

    pub(crate) fn stats_cell(&self) -> &StatsCell {
        &self.inner.stats
    }

    /// Snapshot cumulative device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.inner.stats.snapshot()
    }

    /// Reset statistics (not memory accounting).
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    fn free(&self, bytes: u64) {
        let mut m = crate::lock(&self.inner.mem);
        debug_assert!(m.used >= bytes, "double free in device accounting");
        m.used -= bytes;
    }
}

/// RAII guard for a device-memory claim.
#[derive(Debug)]
pub struct DeviceAlloc {
    device: Device,
    bytes: u64,
}

impl DeviceAlloc {
    /// Size of this allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grow or shrink this allocation in place (e.g. a buffer that learns
    /// its final row width late). Fails without changing anything if growth
    /// would exceed capacity.
    pub fn resize(&mut self, new_bytes: u64) -> Result<(), DeviceError> {
        if new_bytes > self.bytes {
            let extra = self.device.alloc(new_bytes - self.bytes)?;
            // Merge: forget the temporary guard, keep the accounting.
            std::mem::forget(extra);
        } else {
            self.device.free(self.bytes - new_bytes);
        }
        self.bytes = new_bytes;
        Ok(())
    }
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        self.device.free(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(bytes: u64) -> Device {
        Device::new(DeviceConfig::tiny_test(bytes))
    }

    #[test]
    fn alloc_and_free() {
        let d = dev(1000);
        let a = d.alloc(600).unwrap();
        assert_eq!(d.mem_used(), 600);
        assert_eq!(d.mem_available(), 400);
        drop(a);
        assert_eq!(d.mem_used(), 0);
        assert_eq!(d.mem_peak(), 600);
    }

    #[test]
    fn oom_is_reported_with_details() {
        let d = dev(1000);
        let _a = d.alloc(900).unwrap();
        let err = d.alloc(200).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 200,
                available: 100,
                capacity: 1000
            }
        );
    }

    #[test]
    fn failed_alloc_does_not_leak() {
        let d = dev(100);
        assert!(d.alloc(200).is_err());
        assert_eq!(d.mem_used(), 0);
        assert!(d.alloc(100).is_ok());
    }

    #[test]
    fn can_alloc_reflects_state() {
        let d = dev(100);
        assert!(d.can_alloc(100));
        let _a = d.alloc(60).unwrap();
        assert!(d.can_alloc(40));
        assert!(!d.can_alloc(41));
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let d = dev(1000);
        let mut a = d.alloc(100).unwrap();
        a.resize(500).unwrap();
        assert_eq!(d.mem_used(), 500);
        a.resize(50).unwrap();
        assert_eq!(d.mem_used(), 50);
        // Growth beyond capacity fails and preserves accounting.
        let _b = d.alloc(900).unwrap();
        assert!(a.resize(200).is_err());
        assert_eq!(a.bytes(), 50);
        assert_eq!(d.mem_used(), 950);
    }

    #[test]
    fn transfer_charges_pcie() {
        let d = dev(1000);
        let t = d.transfer(1 << 20);
        assert!(t > 0.0);
        let s = d.stats();
        assert_eq!(s.bytes_pcie, 1 << 20);
        assert!(s.sim_transfer_s > 0.0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let d = dev(1000);
        {
            let _a = d.alloc(700).unwrap();
        }
        let _b = d.alloc(100).unwrap();
        assert_eq!(d.mem_peak(), 700);
        assert_eq!(d.mem_used(), 100);
    }

    #[test]
    fn clones_share_state() {
        let d = dev(1000);
        let d2 = d.clone();
        let _a = d.alloc(500).unwrap();
        assert_eq!(d2.mem_used(), 500);
    }

    #[test]
    fn concurrent_alloc_free_never_leaks_or_overshoots() {
        // 8 threads churn allocations sized so that all can be live at
        // once: no request may fail, the budget may never be exceeded, and
        // everything must be returned at the end.
        let d = dev(8 * 10);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = &d;
                s.spawn(move || {
                    for _ in 0..200 {
                        let a = d.alloc(10).expect("within per-thread budget");
                        assert!(d.mem_used() <= 80, "budget exceeded");
                        drop(a);
                    }
                });
            }
        });
        assert_eq!(d.mem_used(), 0);
        assert!(d.mem_peak() <= 80);
        assert!(d.mem_peak() >= 10);
    }
}
