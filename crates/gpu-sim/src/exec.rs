//! Executors: where simulated time is charged.
//!
//! The solvers perform their numeric work on the host and *declare* each
//! data-parallel step to an [`Executor`], which accumulates simulated time
//! according to its hardware model:
//!
//! * [`Stream`] — a CUDA-stream-like timeline on a [`Device`]. Concurrent
//!   binary SVMs each get a stream with an SM fraction; the multi-class
//!   trainer combines stream clocks with `max` at synchronization points.
//! * [`CpuExecutor`] — the host model used for LibSVM(-OpenMP) and CMP-SVM.
//!
//! Keeping computation and accounting separate guarantees that every
//! backend produces bit-identical classifiers (Table 4) while their costs
//! diverge the way the paper reports.

use crate::config::HostConfig;
use crate::cost::{cpu_region_time, gpu_launch_time, KernelCost};
use crate::memory::Device;
use std::sync::{Arc, Mutex};

/// A sink for declared parallel work.
pub trait Executor: Send + Sync {
    /// Short name for reports ("gpu-stream", "cpu-40t", ...).
    fn name(&self) -> String;

    /// Charge one kernel launch / parallel region.
    fn charge(&self, cost: KernelCost);

    /// Charge a host<->device transfer (no-op on CPU executors).
    fn charge_transfer(&self, bytes: u64);

    /// Simulated seconds elapsed on this executor's timeline.
    fn elapsed(&self) -> f64;

    /// Advance the timeline without other accounting (used to model
    /// serialized host-side steps such as the two-variable update of SMO,
    /// which the paper notes cannot be parallelized).
    fn advance(&self, seconds: f64);
}

/// A stream of work on a simulated GPU with a dedicated SM fraction.
#[derive(Clone)]
pub struct Stream {
    device: Device,
    sm_fraction: f64,
    clock_s: Arc<Mutex<f64>>,
}

impl Stream {
    /// A stream granted `sm_fraction` of the device's SMs (§3.3.2 limits
    /// the SMs per binary SVM to allow concurrent training).
    pub fn new(device: Device, sm_fraction: f64) -> Self {
        assert!(
            sm_fraction > 0.0 && sm_fraction <= 1.0,
            "sm_fraction must be in (0, 1]"
        );
        Stream {
            device,
            sm_fraction,
            clock_s: Arc::new(Mutex::new(0.0)),
        }
    }

    /// The device this stream runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The SM fraction granted to this stream.
    pub fn sm_fraction(&self) -> f64 {
        self.sm_fraction
    }
}

impl Executor for Stream {
    fn name(&self) -> String {
        format!("gpu-stream(x{:.2})", self.sm_fraction)
    }

    fn charge(&self, cost: KernelCost) {
        let t = gpu_launch_time(self.device.config(), &cost, self.sm_fraction);
        self.device
            .stats_cell()
            .record_launch(cost.flops, cost.bytes_total(), t);
        *crate::lock(&self.clock_s) += t;
    }

    fn charge_transfer(&self, bytes: u64) {
        let t = self.device.transfer(bytes);
        *crate::lock(&self.clock_s) += t;
    }

    fn elapsed(&self) -> f64 {
        *crate::lock(&self.clock_s)
    }

    fn advance(&self, seconds: f64) {
        *crate::lock(&self.clock_s) += seconds;
    }
}

/// Host CPU executor with a fixed thread count.
#[derive(Clone)]
pub struct CpuExecutor {
    config: HostConfig,
    clock_s: Arc<Mutex<f64>>,
}

impl CpuExecutor {
    /// An executor over the given host model.
    pub fn new(config: HostConfig) -> Self {
        CpuExecutor {
            config,
            clock_s: Arc::new(Mutex::new(0.0)),
        }
    }

    /// An executor over the paper's testbed host (the Xeon E5-2640 v4 model)
    /// with the given thread count — the one host configuration every
    /// backend, test, and bench in the workspace uses.
    pub fn xeon(threads: u32) -> Self {
        CpuExecutor::new(HostConfig::xeon_e5_2640_v4(threads))
    }

    /// The host description.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }
}

impl Executor for CpuExecutor {
    fn name(&self) -> String {
        format!("cpu-{}t", self.config.cores)
    }

    fn charge(&self, cost: KernelCost) {
        *crate::lock(&self.clock_s) += cpu_region_time(&self.config, &cost);
    }

    fn charge_transfer(&self, _bytes: u64) {
        // Data is already in host memory: no PCIe on the CPU path.
    }

    fn elapsed(&self) -> f64 {
        *crate::lock(&self.clock_s)
    }

    fn advance(&self, seconds: f64) {
        *crate::lock(&self.clock_s) += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    #[test]
    fn stream_accumulates_time_and_stats() {
        let dev = Device::new(DeviceConfig::tesla_p100());
        let s = Stream::new(dev.clone(), 1.0);
        assert_eq!(s.elapsed(), 0.0);
        s.charge(KernelCost::reduction(1 << 20));
        s.charge(KernelCost::reduction(1 << 20));
        assert!(s.elapsed() > 0.0);
        assert_eq!(dev.stats().launches, 2);
    }

    #[test]
    fn transfer_advances_stream_clock() {
        let dev = Device::new(DeviceConfig::tesla_p100());
        let s = Stream::new(dev.clone(), 1.0);
        s.charge_transfer(1 << 20);
        assert!(s.elapsed() > 0.0);
        assert_eq!(dev.stats().bytes_pcie, 1 << 20);
    }

    #[test]
    fn streams_are_independent_timelines() {
        let dev = Device::new(DeviceConfig::tesla_p100());
        let a = Stream::new(dev.clone(), 0.5);
        let b = Stream::new(dev, 0.5);
        a.charge(KernelCost::reduction(1 << 22));
        assert!(a.elapsed() > 0.0);
        assert_eq!(b.elapsed(), 0.0);
    }

    #[test]
    fn cpu_more_threads_is_faster() {
        let cost = KernelCost::map(10_000_000, 20, 16);
        let slow = CpuExecutor::xeon(1);
        let fast = CpuExecutor::xeon(40);
        slow.charge(cost);
        fast.charge(cost);
        assert!(slow.elapsed() > fast.elapsed() * 3.0);
    }

    #[test]
    fn advance_moves_clock() {
        let c = CpuExecutor::xeon(1);
        c.advance(0.5);
        assert!((c.elapsed() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sm_fraction")]
    fn stream_rejects_bad_fraction() {
        let dev = Device::new(DeviceConfig::tesla_p100());
        let _ = Stream::new(dev, 1.5);
    }

    #[test]
    fn names_identify_executors() {
        let dev = Device::new(DeviceConfig::tesla_p100());
        assert!(Stream::new(dev, 0.25).name().contains("0.25"));
        assert_eq!(CpuExecutor::xeon(40).name(), "cpu-40t");
    }

    #[test]
    fn executors_are_shareable_across_threads() {
        // Compile-time guarantee the trainer's wave workers rely on.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Stream>();
        assert_send_sync::<CpuExecutor>();
        assert_send_sync::<Device>();
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        // 4 threads x 50 identical charges on one shared stream must land
        // on the clock exactly like 200 sequential charges: every increment
        // adds the same value, so the final sum is order-independent.
        let dev = Device::new(DeviceConfig::tesla_p100());
        let shared = Stream::new(dev.clone(), 0.5);
        let reference = Stream::new(dev.clone(), 0.5);
        for _ in 0..200 {
            reference.charge(KernelCost::reduction(1 << 12));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    for _ in 0..50 {
                        shared.charge(KernelCost::reduction(1 << 12));
                    }
                });
            }
        });
        assert_eq!(shared.elapsed().to_bits(), reference.elapsed().to_bits());
        assert_eq!(dev.stats().launches, 400);
    }
}
