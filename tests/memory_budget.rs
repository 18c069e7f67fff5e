//! The device-memory story (§3.1's challenge ii): allocations respect the
//! hard budget, the GMP planner degrades concurrency instead of failing,
//! and genuinely impossible plans error out cleanly.

use gmp_datasets::BlobSpec;
use gmp_gpusim::{Device, DeviceConfig, DeviceError};
use gmp_kernel::{KernelBuffer, ReplacementPolicy};
use gmp_svm::{Backend, MpSvmTrainer, SvmParams, TrainError};

fn blobs(n: usize, classes: usize) -> gmp_datasets::Dataset {
    BlobSpec {
        n,
        dim: 4,
        classes,
        spread: 0.2,
        seed: 51,
    }
    .generate()
}

fn params() -> SvmParams {
    SvmParams::default()
        .with_c(1.0)
        .with_rbf(1.0)
        .with_working_set(16, 8)
}

#[test]
fn peak_memory_never_exceeds_capacity() {
    let device = DeviceConfig::tesla_p100();
    let capacity = device.global_mem_bytes;
    let out = MpSvmTrainer::new(params(), Backend::Gmp { device })
        .train(&blobs(300, 5))
        .expect("train");
    assert!(out.report.peak_device_mem > 0);
    assert!(out.report.peak_device_mem <= capacity);
}

#[test]
fn smaller_device_lowers_concurrency_not_correctness() {
    let data = blobs(400, 6); // 15 binary problems
                              // Plenty of memory: high concurrency.
    let big = MpSvmTrainer::new(
        params(),
        Backend::Gmp {
            device: DeviceConfig::tesla_p100(),
        },
    )
    .train(&data)
    .expect("big device");
    // Constrained device: just enough for data + store + one problem.
    let mut small_cfg = DeviceConfig::tesla_p100();
    small_cfg.global_mem_bytes = 3 * (1 << 20);
    let small = MpSvmTrainer::new(params(), Backend::Gmp { device: small_cfg })
        .train(&data)
        .expect("small device");
    assert!(small.report.concurrency <= big.report.concurrency);
    assert!(big.report.concurrency > 1, "expected concurrent training");
    // Same classifier either way.
    for (a, b) in big.model.binaries.iter().zip(&small.model.binaries) {
        assert!(
            (a.rho - b.rho).abs() < 1e-9,
            "concurrency changed the model"
        );
    }
}

#[test]
fn hopeless_budget_reports_device_error() {
    let err = MpSvmTrainer::new(
        params(),
        Backend::Gmp {
            device: DeviceConfig::tiny_test(128),
        },
    )
    .train(&blobs(200, 3));
    match err {
        Err(TrainError::Device(DeviceError::OutOfMemory { capacity, .. })) => {
            assert_eq!(capacity, 128);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn baseline_frees_per_problem_memory_between_svms() {
    // The GPU baseline loads one binary problem at a time; after training,
    // everything is freed.
    let device_cfg = DeviceConfig::tesla_p100();
    let out = MpSvmTrainer::new(params(), Backend::GpuBaseline { device: device_cfg })
        .train(&blobs(300, 4))
        .expect("baseline");
    // Peak is bounded by roughly one problem's footprint (data + cache +
    // rows), far below what all six problems at once would need.
    let peak = out.report.peak_device_mem;
    assert!(peak > 0);
    assert!(
        peak < 6 * 1024 * 1024,
        "baseline peak {peak} suggests problems were kept resident"
    );
}

#[test]
fn buffer_allocation_capacity_cycle() {
    // Direct device-accounting check at the buffer level.
    let dev = Device::new(DeviceConfig::tiny_test(24 * 1024));
    let b1 = KernelBuffer::new(32, 64, ReplacementPolicy::FifoBatch, Some(&dev)).unwrap();
    assert_eq!(dev.mem_used(), 32 * 64 * 8); // 16 KiB
                                             // A second identical buffer overflows the 24 KiB device.
    let b2 = KernelBuffer::new(32, 64, ReplacementPolicy::FifoBatch, Some(&dev));
    assert!(matches!(b2, Err(DeviceError::OutOfMemory { .. })));
    drop(b1);
    assert_eq!(dev.mem_used(), 0);
    // Now it fits.
    let b3 = KernelBuffer::new(32, 64, ReplacementPolicy::FifoBatch, Some(&dev));
    assert!(b3.is_ok());
}
