//! Regenerates Table 3 (and its Table 1 subset): elapsed time of all five
//! implementations on all nine datasets, training and prediction.
//!
//! Results are also written to `target/gmp-results/table3.tsv` so that the
//! figure binaries (`fig4_5`) can reuse them.
//!
//! Usage: `table3 [--quick]` — `--quick` runs the three smallest datasets.

use gmp_bench::{
    fmt_s, measure_on, measure_on_with_threads, params_for, print_banner, print_table, results_dir,
    split_for, table3_backends, write_tsv, Measurement,
};
use gmp_datasets::PaperDataset;
use gmp_svm::Backend;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let datasets: Vec<PaperDataset> = if quick {
        vec![
            PaperDataset::Adult,
            PaperDataset::Connect4,
            PaperDataset::Mnist,
        ]
    } else {
        PaperDataset::all().to_vec()
    };
    print_banner(
        "Table 3 — elapsed time (simulated seconds on modeled hardware)",
        &datasets,
    );

    let mut all: Vec<Measurement> = Vec::new();
    let mut rows = Vec::new();
    for ds in &datasets {
        let params = params_for(*ds);
        let split = split_for(*ds);
        let mut row = vec![ds.spec().name.to_string()];
        for backend in table3_backends() {
            let m = measure_on(&split, ds.spec().name, &backend, params);
            eprintln!(
                "  [{} / {}] train {} s (sim), predict {} s (sim), kevals {} ({} wall-train s)",
                m.dataset,
                m.backend,
                fmt_s(m.train_sim_s),
                fmt_s(m.predict_sim_s),
                m.train_kernel_evals,
                fmt_s(m.train_wall_s),
            );
            row.push(format!(
                "{} / {}",
                fmt_s(m.train_sim_s),
                fmt_s(m.predict_sim_s)
            ));
            all.push(m);
        }
        rows.push(row);
    }
    print_table(
        "Table 3 (train / predict, simulated seconds)",
        &[
            "Dataset",
            "LibSVM w/o OpenMP",
            "LibSVM w/ OpenMP",
            "GPU baseline",
            "CMP-SVM",
            "GMP-SVM",
        ],
        &rows,
    );

    // Table 1 is the 3-dataset subset of Table 3.
    let t1: Vec<Vec<String>> = all
        .chunks(5)
        .filter(|c| ["CIFAR-10", "MNIST", "MNIST8M"].contains(&c[0].dataset.as_str()))
        .map(|c| {
            let mut row = vec![c[0].dataset.clone()];
            for m in c {
                row.push(format!(
                    "{} / {}",
                    fmt_s(m.train_sim_s),
                    fmt_s(m.predict_sim_s)
                ));
            }
            row
        })
        .collect();
    if !t1.is_empty() {
        print_table(
            "Table 1 (subset)",
            &[
                "Dataset",
                "LibSVM w/o OpenMP",
                "LibSVM w/ OpenMP",
                "GPU baseline",
                "CMP-SVM",
                "GMP-SVM",
            ],
            &t1,
        );
    }

    // Host-parallelism A/B on the Table-1 generators present in this run:
    // the same GMP training with 1 vs. 4 real host threads. Simulated
    // seconds and kernel work are identical by construction (see
    // crates/core/tests/concurrency.rs); wall-clock is what threads move.
    let ab_sets = [
        PaperDataset::Adult,
        PaperDataset::Mnist,
        PaperDataset::News20,
    ];
    for ds in ab_sets.iter().filter(|ds| datasets.contains(ds)) {
        let params = params_for(*ds);
        let split = split_for(*ds);
        for threads in [1usize, 4] {
            let mut m = measure_on_with_threads(
                &split,
                ds.spec().name,
                &Backend::gmp_default(),
                params,
                Some(threads),
            );
            m.backend = format!("{} (host_threads={threads})", m.backend);
            eprintln!(
                "  [{} / {}] train {} wall s, {} sim s, kevals {}",
                m.dataset,
                m.backend,
                fmt_s(m.train_wall_s),
                fmt_s(m.train_sim_s),
                m.train_kernel_evals,
            );
            all.push(m);
        }
    }

    let path = results_dir().join("table3.tsv");
    write_tsv(&path, &all);
    println!("\nresults written to {}", path.display());
}
