//! Experiment harness: everything the `table*`/`fig*` binaries share.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §4). Scaled-down synthetic stand-ins replace the public
//! datasets (the scale is printed with every run); *simulated* seconds on
//! the modeled hardware are the paper-comparable quantity, and raw
//! counters (kernel evaluations, rows computed) are printed alongside as
//! the hardware-independent ground truth.

use gmp_datasets::{Dataset, PaperDataset, SplitDataset};
use gmp_svm::predict::error_rate;
use gmp_svm::{Backend, MpSvmTrainer, PreparedPredictor, SvmParams};
use std::sync::Arc;

/// One (dataset, backend) measurement: the unit of Table 3.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Dataset name.
    pub dataset: String,
    /// Backend label.
    pub backend: String,
    /// Numeric compute backend the kernels ran on (`scalar` | `blocked`).
    pub compute_backend: String,
    /// Simulated training seconds.
    pub train_sim_s: f64,
    /// Simulated prediction seconds.
    pub predict_sim_s: f64,
    /// Wall-clock training seconds on this host.
    pub train_wall_s: f64,
    /// Wall-clock prediction seconds on this host.
    pub predict_wall_s: f64,
    /// Kernel values computed during training.
    pub train_kernel_evals: u64,
    /// Kernel rows computed during training.
    pub train_rows_computed: u64,
    /// Kernel values computed during prediction.
    pub predict_kernel_evals: u64,
    /// Real host threads that drove concurrent training work.
    pub host_threads: usize,
    /// Training-set error rate.
    pub train_error: f64,
    /// Test-set error rate.
    pub test_error: f64,
    /// Bias (rho) of the last binary SVM — Table 4's comparison quantity.
    pub bias: f64,
    /// Did every binary problem converge?
    pub converged: bool,
}

/// Default reduced scale per dataset: targets a few hundred instances so
/// the full 5-backend sweep finishes on a laptop-class host. Override with
/// the `GMP_BENCH_SCALE` environment variable (a multiplier).
pub fn default_scale(ds: PaperDataset) -> f64 {
    let base = match ds {
        PaperDataset::Adult => 0.1,
        PaperDataset::Rcv1 => 0.12,
        PaperDataset::RealSim => 0.034,
        PaperDataset::Webdata => 0.055,
        PaperDataset::Cifar10 => 0.02,
        PaperDataset::Connect4 => 0.021,
        PaperDataset::Mnist => 0.024,
        PaperDataset::Mnist8m => 0.00028,
        PaperDataset::News20 => 0.09,
    };
    base * scale_multiplier()
}

/// The `GMP_BENCH_SCALE` multiplier (default 1).
pub fn scale_multiplier() -> f64 {
    std::env::var("GMP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The paper's solver parameters for a dataset (Table 2's C and γ; the
/// §4.1 buffer configuration clamped to the reduced problem size).
pub fn params_for(ds: PaperDataset) -> SvmParams {
    let spec = ds.spec();
    // Working set / buffer scaled to the reduced problem size the same way
    // the paper's 1024-row buffer relates to its datasets; the baseline's
    // LRU cache gets the same number of rows so the comparison is
    // equal-memory.
    let mut p = SvmParams::default()
        .with_c(spec.c)
        .with_rbf(spec.gamma)
        .with_working_set(128, 64);
    p.cache_rows = 128;
    p
}

/// Generate the (cached-per-call) split for a dataset at its default scale.
pub fn split_for(ds: PaperDataset) -> SplitDataset {
    ds.generate_split(default_scale(ds))
}

/// The five Table-3 backends in column order.
pub fn table3_backends() -> Vec<Backend> {
    vec![
        Backend::libsvm(),
        Backend::libsvm_openmp(),
        Backend::gpu_baseline_default(),
        Backend::cmp_svm(),
        Backend::gmp_default(),
    ]
}

/// Train + predict one (dataset, backend) pair and collect the numbers.
pub fn measure(ds: PaperDataset, backend: &Backend, params: SvmParams) -> Measurement {
    let split = split_for(ds);
    measure_on(&split, ds.spec().name, backend, params)
}

/// Like [`measure`] but over a pre-generated split (so sweeps reuse data).
pub fn measure_on(
    split: &SplitDataset,
    name: &str,
    backend: &Backend,
    params: SvmParams,
) -> Measurement {
    measure_on_with_threads(split, name, backend, params, None)
}

/// Like [`measure_on`] with an explicit host-thread count for the GMP
/// backend's concurrent waves (`None` = auto) — the knob behind the
/// host-parallelism A/B rows of `table3`.
pub fn measure_on_with_threads(
    split: &SplitDataset,
    name: &str,
    backend: &Backend,
    params: SvmParams,
    host_threads: Option<usize>,
) -> Measurement {
    let compute = params.compute_backend;
    let outcome = MpSvmTrainer::new(params, backend.clone())
        .with_host_threads(host_threads)
        .train(&split.train)
        // gmp:allow-panic — bench harness fails fast on setup errors
        .expect("training failed");
    let predictor =
        PreparedPredictor::new(Arc::new(outcome.model), backend.clone()).compute_backend(compute);
    let train_pred = predictor
        .predict(&split.train.x)
        // gmp:allow-panic — bench harness fails fast on setup errors
        .expect("train prediction failed");
    let test_pred = predictor
        .predict(&split.test.x)
        // gmp:allow-panic — bench harness fails fast on setup errors
        .expect("test prediction failed");
    Measurement {
        dataset: name.to_string(),
        backend: backend.label(),
        compute_backend: outcome.report.compute_backend.clone(),
        train_sim_s: outcome.report.sim_s,
        predict_sim_s: test_pred.report.sim_s,
        train_wall_s: outcome.report.wall_s,
        predict_wall_s: test_pred.report.wall_s,
        train_kernel_evals: outcome.report.kernel_evals,
        train_rows_computed: outcome.report.rows_computed,
        predict_kernel_evals: test_pred.report.kernel_evals,
        host_threads: outcome.report.host_threads,
        train_error: error_rate(&train_pred.labels, &split.train.y),
        test_error: error_rate(&test_pred.labels, &split.test.y),
        bias: predictor.model().last_bias(),
        converged: outcome.report.all_converged(),
    }
}

/// Format seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Print a markdown table: `headers` then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Where result TSVs are written so figure binaries can reuse table runs.
pub fn results_dir() -> std::path::PathBuf {
    let p = std::path::PathBuf::from("target/gmp-results");
    // gmp:allow-panic — bench harness fails fast on result-dir I/O errors
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write measurements as TSV.
pub fn write_tsv(path: &std::path::Path, ms: &[Measurement]) {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "dataset\tbackend\tcompute_backend\ttrain_sim_s\tpredict_sim_s\ttrain_wall_s\tpredict_wall_s\ttrain_kevals\ttrain_rows\tpredict_kevals\ttrain_err\ttest_err\tbias\tconverged\thost_threads\n",
    );
    for m in ms {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            m.dataset,
            m.backend,
            m.compute_backend,
            m.train_sim_s,
            m.predict_sim_s,
            m.train_wall_s,
            m.predict_wall_s,
            m.train_kernel_evals,
            m.train_rows_computed,
            m.predict_kernel_evals,
            m.train_error,
            m.test_error,
            m.bias,
            m.converged,
            m.host_threads
        );
    }
    // gmp:allow-panic — bench harness fails fast on result-file I/O errors
    std::fs::write(path, out).expect("write results tsv");
}

/// Read measurements back from TSV (None if absent/corrupt).
pub fn read_tsv(path: &std::path::Path) -> Option<Vec<Measurement>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 15 {
            return None;
        }
        out.push(Measurement {
            dataset: f[0].to_string(),
            backend: f[1].to_string(),
            compute_backend: f[2].to_string(),
            train_sim_s: f[3].parse().ok()?,
            predict_sim_s: f[4].parse().ok()?,
            train_wall_s: f[5].parse().ok()?,
            predict_wall_s: f[6].parse().ok()?,
            train_kernel_evals: f[7].parse().ok()?,
            train_rows_computed: f[8].parse().ok()?,
            predict_kernel_evals: f[9].parse().ok()?,
            train_error: f[10].parse().ok()?,
            test_error: f[11].parse().ok()?,
            bias: f[12].parse().ok()?,
            converged: f[13].parse().ok()?,
            host_threads: f[14].parse().ok()?,
        });
    }
    Some(out)
}

/// Banner printed by every experiment binary: scale disclosure.
pub fn print_banner(exp: &str, datasets: &[PaperDataset]) {
    println!("# {exp}");
    println!("(synthetic stand-ins; scale vs. published cardinality shown per dataset — see DESIGN.md §2)");
    for ds in datasets {
        let spec = ds.spec();
        let scale = default_scale(*ds);
        let d = ds.generate(scale);
        println!(
            "  {}: n={} (paper {}), d={}, k={}, C={}, gamma={}, scale={:.4}",
            spec.name,
            d.n(),
            spec.cardinality,
            spec.dimension,
            spec.classes,
            spec.c,
            spec.gamma,
            scale
        );
    }
}

/// A deterministic subset of a dataset (first `n` rows), for quick benches.
pub fn head(data: &Dataset, n: usize) -> Dataset {
    let rows: Vec<usize> = (0..n.min(data.n())).collect();
    data.select(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_small() {
        for ds in PaperDataset::all() {
            let s = default_scale(ds);
            assert!(s > 0.0 && s <= 0.15, "{:?}", ds);
        }
    }

    #[test]
    fn params_match_table2() {
        let p = params_for(PaperDataset::Mnist);
        assert_eq!(p.c, 10.0);
        assert!(matches!(p.kernel, gmp_svm::KernelKind::Rbf { gamma } if gamma == 0.125));
    }

    #[test]
    fn tsv_roundtrip() {
        let m = Measurement {
            dataset: "X".into(),
            backend: "B".into(),
            compute_backend: "scalar".into(),
            train_sim_s: 1.5,
            predict_sim_s: 0.25,
            train_wall_s: 2.0,
            predict_wall_s: 0.5,
            train_kernel_evals: 10,
            train_rows_computed: 3,
            predict_kernel_evals: 5,
            host_threads: 4,
            train_error: 0.01,
            test_error: 0.02,
            bias: -0.5,
            converged: true,
        };
        let dir = std::env::temp_dir().join("gmp_tsv_test.tsv");
        write_tsv(&dir, std::slice::from_ref(&m));
        let back = read_tsv(&dir).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].dataset, "X");
        assert_eq!(back[0].compute_backend, "scalar");
        assert_eq!(back[0].train_kernel_evals, 10);
        assert_eq!(back[0].train_rows_computed, 3);
        assert_eq!(back[0].host_threads, 4);
        assert!(back[0].converged);
    }

    #[test]
    fn fmt_seconds() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(1.234), "1.23");
        assert_eq!(fmt_s(0.1234), "0.1234");
    }

    #[test]
    fn five_backends() {
        assert_eq!(table3_backends().len(), 5);
    }
}
