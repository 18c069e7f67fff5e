//! The paper's forward-looking claim (§4.1): "Better GPUs such as V100
//! should further improve the efficiency of GMP-SVM, due to higher memory
//! bandwidth and more cores." Trains GMP-SVM on the simulated P100 and
//! V100 and reports the improvement.

use gmp_bench::{fmt_s, params_for, print_banner, print_table, split_for};
use gmp_datasets::PaperDataset;
use gmp_gpusim::DeviceConfig;
use gmp_svm::{Backend, MpSvmTrainer};

fn main() {
    let datasets = [
        PaperDataset::Cifar10,
        PaperDataset::Mnist,
        PaperDataset::News20,
    ];
    print_banner("Future hardware — GMP-SVM on P100 vs V100", &datasets);
    let mut rows = Vec::new();
    for ds in datasets {
        let split = split_for(ds);
        let params = params_for(ds);
        let mut times = Vec::new();
        for device in [DeviceConfig::tesla_p100(), DeviceConfig::tesla_v100()] {
            let out = MpSvmTrainer::new(params, Backend::Gmp { device })
                .train(&split.train)
                .expect("training failed");
            times.push(out.report.sim_s);
        }
        rows.push(vec![
            ds.spec().name.to_string(),
            fmt_s(times[0]),
            fmt_s(times[1]),
            format!("{:.2}x", times[0] / times[1].max(1e-12)),
        ]);
        eprintln!("  {} done", ds.spec().name);
    }
    print_table(
        "P100 vs V100 (simulated train seconds)",
        &["Dataset", "P100", "V100", "V100 improvement"],
        &rows,
    );
    println!("\nExpected: V100 > 1x on every dataset (more SMs, higher bandwidth), bounded by launch overhead.");
}
