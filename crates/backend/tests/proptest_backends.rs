//! Property tests:
//!
//! 1. The scalar (column-walk) and blocked (per-pair) backends agree bit
//!    for bit on random sparse datasets with finite values, for every
//!    kernel kind, at every thread count, over full and partial column
//!    ranges — including explicitly stored `0.0` and `-0.0` entries.
//! 2. `score_rows` equals, bit for bit, a reference that scores one row at
//!    a time with each sum taken from `0.0` in SV-list order, for any block
//!    height, mix of gathered and dense scorers, and thread count.
//! 3. The scalar backend's kernel values equal, bit for bit, a naive
//!    reference that shares no code with either backend: both rows
//!    densified, every feature's product summed in increasing order from
//!    `+0.0`, norms summed the same way, then `KernelKind::eval`.

use gmp_backend::{
    ComputeBackend, ComputeBackendKind, KernelContext, KernelKind, RowScorer, ScalarBackend,
};
use gmp_gpusim::CpuExecutor;
use gmp_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A stored value: usually a general finite value, sometimes an explicit
/// signed zero (`from_dense` would drop those, so rows go through
/// `from_parts`).
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -3.0..3.0f64,
        1 => Just(0.0),
        1 => Just(-0.0),
    ]
}

/// Random sparse dataset with deliberately nasty rows: empty rows and
/// single-nnz rows are drawn with real probability mass.
fn csr(nrows: std::ops::Range<usize>, ncols: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec(
        prop_oneof![
            // Empty row.
            1 => Just(Vec::new()),
            // Single-nnz row.
            2 => (0..ncols, value()).prop_map(|(c, v)| vec![(c, v)]),
            // General sparse row.
            5 => proptest::collection::vec((0..ncols, value()), 1..6),
        ],
        nrows,
    )
    .prop_map(move |rows| {
        let mut indptr = vec![0];
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for entries in &rows {
            // Sorted, one value per column (the last drawn wins).
            let row: BTreeMap<usize, f64> = entries.iter().copied().collect();
            for (c, v) in row {
                indices.push(c as u32);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts(rows.len(), ncols, indptr, indices, values).unwrap()
    })
}

fn kernel_kind() -> impl Strategy<Value = KernelKind> {
    prop_oneof![
        (0.05..2.0f64).prop_map(|gamma| KernelKind::Rbf { gamma }),
        Just(KernelKind::Linear),
        (0.1..1.5f64, -1.0..1.0f64, 2u32..4).prop_map(|(gamma, coef0, degree)| KernelKind::Poly {
            gamma,
            coef0,
            degree
        }),
        (0.1..1.5f64, -1.0..1.0f64).prop_map(|(gamma, coef0)| KernelKind::Sigmoid { gamma, coef0 }),
    ]
}

/// An output block pre-filled with garbage, so a backend that forgets to
/// reset a row shows up.
fn garbage(nrows: usize, ncols: usize) -> DenseMatrix {
    DenseMatrix::from_vec(nrows, ncols, vec![f64::NAN; nrows * ncols])
}

/// Every backend's `batch_kernel_rows` over `cols`, in
/// [`ComputeBackendKind::ALL`] order.
fn batch_rows_all(
    ctx: &KernelContext<'_>,
    row_ids: &[usize],
    cols: std::ops::Range<usize>,
) -> Vec<DenseMatrix> {
    ComputeBackendKind::ALL
        .iter()
        .map(|sel| {
            let mut out = garbage(row_ids.len(), cols.len());
            sel.instance().batch_kernel_rows(
                ctx,
                &CpuExecutor::xeon(1),
                row_ids,
                cols.clone(),
                &mut out,
            );
            out
        })
        .collect()
}

/// One scorer's payload `(sv_idx, coef, rho)`: gathered columns (repeats
/// allowed, possibly none), a dense sweep over all `cols` block columns,
/// or a dense sweep with an empty `coef`.
type ScorerSpec = (Option<Vec<u32>>, Vec<f64>, f64);

fn scorer_spec(cols: usize) -> impl Strategy<Value = ScorerSpec> {
    let lists = prop_oneof![
        3 => proptest::collection::vec((0..cols as u32, value()), 0..=11).prop_map(|refs| {
            let (idx, coef): (Vec<u32>, Vec<f64>) = refs.into_iter().unzip();
            (Some(idx), coef)
        }),
        2 => proptest::collection::vec(value(), cols).prop_map(|coef| (None, coef)),
        1 => Just((None, Vec::new())),
    ];
    (lists, -2.0..2.0f64).prop_map(|((idx, coef), rho)| (idx, coef, rho))
}

/// A kernel block of 0..=9 rows and the scorers reducing it.
fn scoring_case() -> impl Strategy<Value = (DenseMatrix, Vec<ScorerSpec>)> {
    (0usize..=9, 1usize..8).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(value(), rows * cols)
                .prop_map(move |v| DenseMatrix::from_vec(rows, cols, v)),
            proptest::collection::vec(scorer_spec(cols), 0..=5),
        )
    })
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every row of `m` scattered into a dense vector (stored `-0.0` kept).
fn densify(m: &CsrMatrix) -> Vec<Vec<f64>> {
    (0..m.nrows())
        .map(|r| {
            let mut d = vec![0.0; m.ncols()];
            m.row(r).scatter(&mut d);
            d
        })
        .collect()
}

/// The naive kernel values of every `src` row against every `targets`
/// row, row-major: each dot product and norm summed over every feature in
/// increasing order from `+0.0`, then mapped by `KernelKind::eval`.
fn naive_block<'a>(
    kind: KernelKind,
    src: impl Iterator<Item = &'a Vec<f64>>,
    targets: &[Vec<f64>],
) -> Vec<u64> {
    let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).fold(0.0, |s, (x, y)| s + x * y);
    src.flat_map(|q| {
        targets
            .iter()
            .map(move |t| kind.eval(dot(q, t), dot(q, q), dot(t, t)).to_bits())
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matches_scalar_on_batch_rows(
        data in csr(1..9, 7),
        kind in kernel_kind(),
        threads in 1usize..5,
    ) {
        let norms = data.row_norms_sq();
        let n = data.nrows();
        let ctx = KernelContext { data: &data, norms: &norms, kind, host_threads: threads };
        let row_ids: Vec<usize> = (0..n).rev().collect();
        let outs = batch_rows_all(&ctx, &row_ids, 0..n);
        prop_assert_eq!(bits(&outs[0]), bits(&outs[1]), "kind={:?}", kind);
    }

    #[test]
    fn blocked_matches_scalar_on_an_inner_column_range(
        data in csr(3..10, 7),
        kind in kernel_kind(),
        threads in 1usize..4,
        (a_seed, b_seed) in (0usize..64, 0usize..64),
    ) {
        let n = data.nrows();
        // 0 < a < b < n: the range touches neither end of the targets.
        let a = 1 + a_seed % (n - 2);
        let b = a + 1 + b_seed % (n - 1 - a);
        let norms = data.row_norms_sq();
        let ctx = KernelContext { data: &data, norms: &norms, kind, host_threads: threads };
        let row_ids: Vec<usize> = (0..n).rev().collect();
        let outs = batch_rows_all(&ctx, &row_ids, a..b);
        prop_assert_eq!(bits(&outs[0]), bits(&outs[1]), "kind={:?} cols={}..{}", kind, a, b);
        // A segment is bit-identical to the same columns of the full row.
        let full = batch_rows_all(&ctx, &row_ids, 0..n);
        for bi in 0..row_ids.len() {
            let seg: Vec<u64> = outs[0].row(bi).iter().map(|v| v.to_bits()).collect();
            let whole: Vec<u64> = full[0].row(bi)[a..b].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(seg, whole, "row {}", bi);
        }
    }

    #[test]
    fn blocked_matches_scalar_on_test_sv_matrix(
        (data, test) in (csr(1..7, 6), csr(1..7, 6)),
        kind in kernel_kind(),
        threads in 1usize..4,
    ) {
        let norms = data.row_norms_sq();
        let test_norms: Vec<f64> = (0..test.nrows()).map(|r| test.row(r).norm_sq()).collect();
        let ctx = KernelContext { data: &data, norms: &norms, kind, host_threads: threads };
        let rows: Vec<usize> = (0..test.nrows()).collect();
        let mut outs: Vec<DenseMatrix> = Vec::new();
        for sel in ComputeBackendKind::ALL {
            let mut out = garbage(rows.len(), data.nrows());
            sel.instance().test_sv_matrix(&ctx, &CpuExecutor::xeon(1), &test, &rows, &test_norms, &mut out);
            outs.push(out);
        }
        prop_assert_eq!(bits(&outs[0]), bits(&outs[1]), "kind={:?}", kind);
    }

    #[test]
    fn scalar_matches_naive_dense_reference(
        (data, test) in (csr(1..9, 7), csr(1..7, 7)),
        kind in kernel_kind(),
        threads in 1usize..5,
        (a_seed, b_seed) in (0usize..64, 0usize..64),
    ) {
        let n = data.nrows();
        // Any non-empty column range 0 <= a < b <= n.
        let a = a_seed % n;
        let b = a + 1 + b_seed % (n - a);
        let dense = densify(&data);
        let norms = data.row_norms_sq();
        let ctx = KernelContext { data: &data, norms: &norms, kind, host_threads: threads };
        let exec = CpuExecutor::xeon(1);

        let row_ids: Vec<usize> = (0..n).rev().collect();
        let mut out = garbage(row_ids.len(), b - a);
        ScalarBackend.batch_kernel_rows(&ctx, &exec, &row_ids, a..b, &mut out);
        let want = naive_block(kind, row_ids.iter().map(|&r| &dense[r]), &dense[a..b]);
        prop_assert_eq!(bits(&out), want, "batch rows kind={:?} cols={}..{}", kind, a, b);

        let test_rows: Vec<usize> = (0..test.nrows()).collect();
        let test_norms: Vec<f64> = (0..test.nrows()).map(|r| test.row(r).norm_sq()).collect();
        let mut out = garbage(test_rows.len(), n);
        ScalarBackend.test_sv_matrix(&ctx, &exec, &test, &test_rows, &test_norms, &mut out);
        let want = naive_block(kind, densify(&test).iter(), &dense);
        prop_assert_eq!(bits(&out), want, "test x SV kind={:?}", kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn score_rows_matches_one_row_at_a_time(
        (block, specs) in scoring_case(),
        threads in 1usize..5,
    ) {
        let rows = block.nrows();
        // Scorer `i` owns output column `i + 1`; column 0 is nobody's.
        let scorers: Vec<RowScorer<'_>> = specs
            .iter()
            .enumerate()
            .map(|(i, (idx, coef, rho))| RowScorer {
                out_col: i + 1,
                sv_idx: idx.as_deref(),
                coef,
                rho: *rho,
            })
            .collect();
        let mut want = vec![vec![f64::NAN; specs.len() + 1]; rows];
        for (ri, row) in want.iter_mut().enumerate() {
            let krow = block.row(ri);
            for s in &scorers {
                let v = match s.sv_idx {
                    Some(idx) => s.coef.iter().zip(idx).fold(0.0, |v, (c, &j)| v + c * krow[j as usize]),
                    None => s.coef.iter().zip(krow).fold(0.0, |v, (c, k)| v + c * k),
                };
                row[s.out_col] = v - s.rho;
            }
        }
        let want: Vec<u64> = want.iter().flatten().map(|v| v.to_bits()).collect();
        for sel in ComputeBackendKind::ALL {
            let mut out = vec![vec![f64::NAN; specs.len() + 1]; rows];
            sel.instance().score_rows(&CpuExecutor::xeon(1), &block, &scorers, threads, &mut out);
            let got: Vec<u64> = out.iter().flatten().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "{} rows={} threads={}", sel.name(), rows, threads);
        }
    }
}
