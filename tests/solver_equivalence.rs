//! Table 4 at test granularity: the batched GMP-SVM solver and the classic
//! LibSVM-style solver reach the same optimum — same dual objective, same
//! bias, same decision values — across datasets and hyper-parameters.

use gmp_datasets::{BlobSpec, PaperDataset};
use gmp_gpusim::CpuExecutor;
use gmp_kernel::{BufferedRows, KernelKind, KernelOracle, ReplacementPolicy};
use gmp_smo::{BatchedParams, BatchedSmoSolver, ClassicSmoSolver, SmoParams, SolverResult};
use gmp_svm::{Backend, MpSvmTrainer, SvmParams};
use proptest::prelude::*;
use std::sync::Arc;

fn exec() -> CpuExecutor {
    CpuExecutor::xeon(1)
}

fn solve_both(
    x: &gmp_sparse::CsrMatrix,
    y: &[f64],
    kind: KernelKind,
    c: f64,
) -> (SolverResult, SolverResult) {
    let oracle = Arc::new(KernelOracle::new(Arc::new(x.clone()), kind));
    let mut rows_c =
        BufferedRows::new(oracle.clone(), x.nrows(), ReplacementPolicy::Lru, None).unwrap();
    let classic = ClassicSmoSolver::new(SmoParams::with_c(c)).solve(y, &mut rows_c, &exec());
    let mut rows_b = BufferedRows::new(oracle, 48, ReplacementPolicy::FifoBatch, None).unwrap();
    let batched = BatchedSmoSolver::new(BatchedParams {
        base: SmoParams::with_c(c),
        ws_size: 48,
        q: 24,
        inner_relax: 0.1,
        max_inner: 512,
    })
    .solve(y, &mut rows_b, &exec());
    (classic, batched)
}

fn assert_same_optimum(classic: &SolverResult, batched: &SolverResult, tag: &str) {
    assert!(classic.converged, "{tag}: classic unconverged");
    assert!(batched.converged, "{tag}: batched unconverged");
    let obj_tol = 2e-2 * classic.objective.abs().max(1.0);
    assert!(
        (classic.objective - batched.objective).abs() < obj_tol,
        "{tag}: objective {} vs {}",
        classic.objective,
        batched.objective
    );
    assert!(
        (classic.rho - batched.rho).abs() < 2e-2,
        "{tag}: rho {} vs {}",
        classic.rho,
        batched.rho
    );
    // Decision values on the training set agree sign-wise for confidently
    // classified points.
    let mut disagreements = 0;
    for i in 0..classic.f.len() {
        let vc = classic.f[i] - classic.rho;
        let vb = batched.f[i] - batched.rho;
        if vc.abs() > 0.1 && vc.signum() != vb.signum() {
            disagreements += 1;
        }
    }
    assert!(
        disagreements * 50 <= classic.f.len(),
        "{tag}: {disagreements} sign disagreements of {}",
        classic.f.len()
    );
}

#[test]
fn equivalence_across_hyperparameters() {
    // The §4.1 sweep, scaled down: C in {0.1, 1, 10}, gamma in {0.1, 1}.
    let data = BlobSpec {
        n: 140,
        dim: 3,
        classes: 2,
        spread: 0.35,
        seed: 31,
    }
    .generate();
    let y: Vec<f64> = data
        .y
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { -1.0 })
        .collect();
    for c in [0.1, 1.0, 10.0] {
        for gamma in [0.1, 1.0] {
            let (classic, batched) = solve_both(&data.x, &y, KernelKind::Rbf { gamma }, c);
            assert_same_optimum(&classic, &batched, &format!("C={c} gamma={gamma}"));
        }
    }
}

#[test]
fn equivalence_on_sparse_text_like_data() {
    let data = PaperDataset::Rcv1.generate(0.008);
    let y: Vec<f64> = data
        .y
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { -1.0 })
        .collect();
    let spec = PaperDataset::Rcv1.spec();
    let (classic, batched) = solve_both(&data.x, &y, KernelKind::Rbf { gamma: spec.gamma }, spec.c);
    assert_same_optimum(&classic, &batched, "rcv1");
}

#[test]
fn equivalence_with_linear_kernel() {
    let data = BlobSpec {
        n: 100,
        dim: 4,
        classes: 2,
        spread: 0.3,
        seed: 32,
    }
    .generate();
    let y: Vec<f64> = data
        .y
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { -1.0 })
        .collect();
    let (classic, batched) = solve_both(&data.x, &y, KernelKind::Linear, 1.0);
    assert_same_optimum(&classic, &batched, "linear");
}

#[test]
fn full_pipeline_models_agree() {
    // End-to-end Table 4: the trained multi-class models of the LibSVM
    // backend and GMP-SVM backend produce the same decisions.
    let split = PaperDataset::Connect4.generate_split(0.0015);
    let spec = PaperDataset::Connect4.spec();
    let params = SvmParams::default()
        .with_c(spec.c)
        .with_rbf(spec.gamma)
        .with_working_set(32, 16);
    let lib = MpSvmTrainer::new(params, Backend::libsvm())
        .train(&split.train)
        .expect("libsvm");
    let gmp = MpSvmTrainer::new(params, Backend::gmp_default())
        .train(&split.train)
        .expect("gmp");
    for (a, b) in lib.model.binaries.iter().zip(&gmp.model.binaries) {
        assert!(
            (a.rho - b.rho).abs() < 2e-2,
            "pair ({},{}): rho {} vs {}",
            a.s,
            a.t,
            a.rho,
            b.rho
        );
    }
    let pl = lib
        .model
        .predict(&split.test.x, &Backend::libsvm())
        .expect("predict lib");
    let pg = gmp
        .model
        .predict(&split.test.x, &Backend::gmp_default())
        .expect("predict gmp");
    let flips = pl
        .labels
        .iter()
        .zip(&pg.labels)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        flips * 20 <= split.test.n(),
        "{flips} label flips of {}",
        split.test.n()
    );
}

#[test]
fn batched_solver_insensitive_to_buffer_policy() {
    // The optimum must not depend on the replacement policy (only the
    // cost does) — the correctness side of the FIFO/LRU ablation.
    let data = BlobSpec {
        n: 120,
        dim: 2,
        classes: 2,
        spread: 0.4,
        seed: 33,
    }
    .generate();
    let y: Vec<f64> = data
        .y
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { -1.0 })
        .collect();
    let oracle = Arc::new(KernelOracle::new(
        Arc::new(data.x.clone()),
        KernelKind::Rbf { gamma: 0.5 },
    ));
    let params = BatchedParams {
        base: SmoParams::with_c(1.0),
        ws_size: 16,
        q: 8,
        inner_relax: 0.1,
        max_inner: 256,
    };
    let mut results = Vec::new();
    for policy in [ReplacementPolicy::FifoBatch, ReplacementPolicy::Lru] {
        let mut rows = BufferedRows::new(oracle.clone(), 24, policy, None).unwrap();
        results.push(BatchedSmoSolver::new(params).solve(&y, &mut rows, &exec()));
    }
    assert!(
        (results[0].objective - results[1].objective).abs()
            < 1e-2 * results[0].objective.abs().max(1.0),
        "objective diverges across buffer policies: {} vs {}",
        results[0].objective,
        results[1].objective
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With the buffer exactly as wide as the working set, each round's
    /// request pins its whole working set, so the only evictable rows are
    /// the ones the solver's own FIFO refresh just dropped: FIFO batch and
    /// LRU must give the same bits and the same counters.
    #[test]
    fn batched_solver_bitwise_policy_free_at_working_set_capacity(
        x in proptest::collection::vec(proptest::collection::vec(-1.0..1.0f64, 2), 12..40),
        signs in proptest::collection::vec(proptest::bool::ANY, 40),
        c in 0.5..8.0f64,
        gamma in 0.2..2.0f64,
    ) {
        let mut y: Vec<f64> =
            signs[..x.len()].iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        (y[0], y[x.len() - 1]) = (1.0, -1.0);
        let data = Arc::new(gmp_sparse::CsrMatrix::from_dense(&x, 2));
        let oracle = Arc::new(KernelOracle::new(data, KernelKind::Rbf { gamma }));
        let base = SmoParams::with_c(c);
        let params = BatchedParams { base, ws_size: 8, q: 4, inner_relax: 0.1, max_inner: 64 };
        let [fifo, lru] = [ReplacementPolicy::FifoBatch, ReplacementPolicy::Lru].map(|policy| {
            let mut rows = BufferedRows::new(oracle.clone(), 8, policy, None).unwrap();
            BatchedSmoSolver::new(params).solve(&y, &mut rows, &exec())
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fifo.alpha), bits(&lru.alpha));
        prop_assert_eq!(bits(&fifo.f), bits(&lru.f));
        prop_assert_eq!(fifo.rho.to_bits(), lru.rho.to_bits());
        prop_assert_eq!(fifo.telemetry.rows, lru.telemetry.rows);
    }
}
