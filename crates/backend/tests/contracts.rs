//! The three backend contracts, checked pairwise across every selectable
//! backend: bit-identical values, identical simulated cost, exact
//! owner-attributed eval counts.

use gmp_backend::{
    ComputeBackend, ComputeBackendKind, KernelContext, KernelKind, RowScorer, ScalarBackend,
};
use gmp_gpusim::{CpuExecutor, Executor};
use gmp_sparse::{CsrMatrix, DenseMatrix};

fn mixed_data() -> CsrMatrix {
    // Deliberately awkward: an empty row, a single-nnz row, dense rows,
    // duplicated patterns.
    CsrMatrix::from_dense(
        &[
            vec![1.0, 0.0, -2.0, 0.5, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0, 0.0],
            vec![-1.5, 2.0, 0.25, -0.75, 1.0],
            vec![1.0, 0.0, -2.0, 0.5, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 4.0],
            vec![2.0, -1.0, 0.0, 3.0, 0.0],
        ],
        5,
    )
}

fn kinds() -> [KernelKind; 4] {
    [
        KernelKind::Rbf { gamma: 0.7 },
        KernelKind::Linear,
        KernelKind::Poly {
            gamma: 0.5,
            coef0: 1.0,
            degree: 3,
        },
        KernelKind::Sigmoid {
            gamma: 0.3,
            coef0: -0.5,
        },
    ]
}

#[test]
fn backends_agree_bitwise_on_batch_rows() {
    let data = mixed_data();
    let norms = data.row_norms_sq();
    for kind in kinds() {
        for threads in [1usize, 3] {
            let ctx = KernelContext {
                data: &data,
                norms: &norms,
                kind,
                host_threads: threads,
            };
            let row_ids = [3usize, 0, 6, 1, 2];
            let cols = 1..6;
            let mut blocks: Vec<DenseMatrix> = Vec::new();
            let mut evals: Vec<u64> = Vec::new();
            let mut sims: Vec<u64> = Vec::new();
            for kindsel in ComputeBackendKind::ALL {
                let backend = kindsel.instance();
                let exec = CpuExecutor::xeon(1);
                let mut out = DenseMatrix::zeros(row_ids.len(), cols.len());
                evals.push(backend.batch_kernel_rows(
                    &ctx,
                    &exec,
                    &row_ids,
                    cols.clone(),
                    &mut out,
                ));
                sims.push(exec.elapsed().to_bits());
                blocks.push(out);
            }
            for b in &blocks[1..] {
                assert_eq!(
                    b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    blocks[0]
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "kind={kind:?} threads={threads}"
                );
            }
            assert!(evals.iter().all(|&e| e == (row_ids.len() * 5) as u64));
            assert!(
                sims.iter().all(|&s| s == sims[0]),
                "sim_s must not depend on backend"
            );
        }
    }
}

#[test]
fn backends_agree_bitwise_on_test_sv_matrix() {
    let data = mixed_data();
    let norms = data.row_norms_sq();
    let test = CsrMatrix::from_dense(
        &[
            vec![0.5, 0.0, 1.0, 0.0, -1.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 2.5, 0.0, 0.0, 0.0],
        ],
        5,
    );
    let test_norms: Vec<f64> = (0..test.nrows()).map(|r| test.row(r).norm_sq()).collect();
    for kind in kinds() {
        for threads in [1usize, 4] {
            let ctx = KernelContext {
                data: &data,
                norms: &norms,
                kind,
                host_threads: threads,
            };
            let rows = [2usize, 0, 1];
            let mut blocks: Vec<DenseMatrix> = Vec::new();
            for kindsel in ComputeBackendKind::ALL {
                let backend = kindsel.instance();
                let exec = CpuExecutor::xeon(1);
                let mut out = DenseMatrix::zeros(rows.len(), data.nrows());
                let evals =
                    backend.test_sv_matrix(&ctx, &exec, &test, &rows, &test_norms, &mut out);
                assert_eq!(evals, (rows.len() * data.nrows()) as u64);
                blocks.push(out);
            }
            for b in &blocks[1..] {
                assert_eq!(b, &blocks[0], "kind={kind:?} threads={threads}");
            }
        }
    }
}

#[test]
fn multithreaded_matches_single_threaded_bitwise() {
    let data = mixed_data();
    let norms = data.row_norms_sq();
    for kindsel in ComputeBackendKind::ALL {
        let backend = kindsel.instance();
        let row_ids: Vec<usize> = (0..data.nrows()).collect();
        let mut single = DenseMatrix::zeros(row_ids.len(), data.nrows());
        let mut multi = DenseMatrix::zeros(row_ids.len(), data.nrows());
        for (out, threads) in [(&mut single, 1usize), (&mut multi, 5)] {
            let ctx = KernelContext {
                data: &data,
                norms: &norms,
                kind: KernelKind::Rbf { gamma: 1.3 },
                host_threads: threads,
            };
            backend.batch_kernel_rows(&ctx, &CpuExecutor::xeon(1), &row_ids, 0..data.nrows(), out);
        }
        assert_eq!(single, multi, "backend={}", backend.name());
    }
}

#[test]
fn empty_launches_compute_nothing_and_charge_nothing() {
    let data = mixed_data();
    let norms = data.row_norms_sq();
    for kindsel in ComputeBackendKind::ALL {
        let backend = kindsel.instance();
        let ctx = KernelContext {
            data: &data,
            norms: &norms,
            kind: KernelKind::Linear,
            host_threads: 2,
        };
        let exec = CpuExecutor::xeon(1);
        let mut out = DenseMatrix::zeros(4, 0);
        assert_eq!(
            backend.batch_kernel_rows(&ctx, &exec, &[1, 2], 3..3, &mut out),
            0
        );
        let mut out = DenseMatrix::zeros(0, 7);
        assert_eq!(
            backend.batch_kernel_rows(&ctx, &exec, &[], 0..7, &mut out),
            0
        );
        assert_eq!(exec.elapsed(), 0.0);
    }
}

#[test]
fn score_rows_matches_manual_sums_and_preserves_columns() {
    // Row counts 0..=9 reach empty blocks, lone remainder rows, one and two
    // groups of four, and groups followed by every remainder length; three
    // threads also split the rows into pieces that start off a group
    // boundary. Inexact coefficients and a repeated column make a sum taken
    // in any other order show up in the bits.
    let idx = [0u32, 2, 3, 1, 2];
    let coef_gather = [0.3, -1.7, 2.9, 0.11, -0.6];
    let coef_dense = [1.3, 0.0, -0.7, 0.45];
    let scorers = [
        RowScorer {
            out_col: 0,
            sv_idx: Some(&idx),
            coef: &coef_gather,
            rho: 0.1,
        },
        RowScorer {
            out_col: 2,
            sv_idx: None,
            coef: &coef_dense,
            rho: -1.0,
        },
    ];
    for rows in 0..=9usize {
        let values = (0..rows * 4)
            .map(|i| (i as f64 * 0.37).sin() * 3.0)
            .collect();
        let block = DenseMatrix::from_vec(rows, 4, values);
        for threads in [1usize, 2, 3] {
            let mut out = vec![vec![9.0; 3]; rows];
            let exec = CpuExecutor::xeon(1);
            ScalarBackend.score_rows(&exec, &block, &scorers, threads, &mut out);
            // The map charge scales with rows × references: none for none.
            assert_eq!(exec.elapsed() > 0.0, rows > 0, "rows={rows}");
            for (ri, row) in out.iter().enumerate() {
                let krow = block.row(ri);
                // Sums from 0.0 in SV-list order, as the contract states.
                let gathered = coef_gather
                    .iter()
                    .zip(idx.iter())
                    .fold(0.0, |v, (c, &i)| v + c * krow[i as usize]);
                let dense = coef_dense.iter().zip(krow).fold(0.0, |v, (c, k)| v + c * k);
                let at = format!("rows={rows} threads={threads} row={ri}");
                assert_eq!(row[0].to_bits(), (gathered - 0.1).to_bits(), "{at}");
                assert_eq!(row[2].to_bits(), (dense - (-1.0)).to_bits(), "{at}");
                // Unowned column untouched.
                assert_eq!(row[1], 9.0, "{at}");
            }
        }
    }
}

#[test]
fn env_selection_falls_back_to_scalar() {
    // Not set in the test environment unless the CI matrix sets it; both
    // legs must parse to a known kind.
    let kind = ComputeBackendKind::from_env();
    assert!(ComputeBackendKind::ALL.contains(&kind));
}
