//! Property tests of the plain-text model format.
//!
//! 1. It is lossless: `MpSvmModel::from_text(m.to_text())` must reproduce
//!    the model exactly — f64 `Display` emits the shortest round-trippable
//!    decimal, so equality here is bitwise, not approximate.
//! 2. It is a boundary: a model file with one token mutated either fails
//!    to parse or loads as a model that predicts without panicking.
//!
//! Models are generated directly (random class counts, sparse SV pools,
//! with/without sigmoids) rather than trained, to reach corner cases
//! training never emits: empty SV rows, empty coefficient lists, negative
//! values, mixed sigmoid presence.

use gmp_prob::SigmoidParams;
use gmp_sparse::CsrBuilder;
use gmp_svm::{Backend, BinarySvm, KernelKind, MpSvmModel};
use proptest::prelude::*;

fn kernel_strategy() -> impl Strategy<Value = KernelKind> {
    prop_oneof![
        Just(KernelKind::Linear),
        (0.001..10.0f64).prop_map(|gamma| KernelKind::Rbf { gamma }),
        (0.001..10.0f64, -2.0..2.0f64, 2u32..5).prop_map(|(gamma, coef0, degree)| {
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            }
        }),
        (0.001..10.0f64, -2.0..2.0f64)
            .prop_map(|(gamma, coef0)| KernelKind::Sigmoid { gamma, coef0 }),
    ]
}

/// A sparse SV-pool row: (column, value) pairs with strictly increasing
/// columns, possibly empty.
fn pool_row(ncols: usize) -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec(
        (
            0..ncols as u32,
            prop_oneof![2 => -100.0..100.0f64, 1 => 0.001..1.0f64],
        ),
        0..=ncols.min(6),
    )
    .prop_map(|mut cells| {
        cells.sort_by_key(|&(c, _)| c);
        cells.dedup_by_key(|&mut (c, _)| c);
        cells
    })
}

/// The `iterations` counter is metadata the text format intentionally
/// drops (parse restores 0), so generate it as 0 to keep `==` exact.
fn sigmoid_strategy() -> impl Strategy<Value = Option<SigmoidParams>> {
    prop_oneof![
        1 => Just(None),
        2 => (-30.0..-0.01f64, -8.0..8.0f64).prop_map(|(a, b)| Some(SigmoidParams {
            a,
            b,
            iterations: 0,
        })),
    ]
}

/// One binary's random payload: pool references, rho, sigmoid.
fn binary_payload(
    pool_rows: usize,
) -> impl Strategy<Value = (Vec<(u32, f64)>, f64, Option<SigmoidParams>)> {
    (
        proptest::collection::vec((0..pool_rows as u32, -4.0..4.0f64), 0..=pool_rows.min(5)),
        -3.0..3.0f64,
        sigmoid_strategy(),
    )
        .prop_map(|(mut refs, rho, sigmoid)| {
            // A binary may reference any pool subset, but not the same row
            // twice.
            refs.sort_by_key(|&(i, _)| i);
            refs.dedup_by_key(|&mut (i, _)| i);
            (refs, rho, sigmoid)
        })
}

fn model_strategy() -> impl Strategy<Value = MpSvmModel> {
    (2usize..=4, 1usize..=8, 1usize..=10).prop_flat_map(|(classes, pool_rows, ncols)| {
        let n_pairs = classes * (classes - 1) / 2;
        (
            Just(classes),
            kernel_strategy(),
            proptest::collection::vec(pool_row(ncols), pool_rows),
            proptest::collection::vec(binary_payload(pool_rows), n_pairs),
        )
            .prop_map(move |(classes, kernel, rows, payloads)| {
                let mut b = CsrBuilder::new(ncols);
                for row in &rows {
                    b.start_row();
                    for &(c, v) in row {
                        b.push(c, v);
                    }
                }
                let pairs = (0..classes as u16)
                    .flat_map(|s| ((s + 1)..classes as u16).map(move |t| (s, t)));
                let binaries = pairs
                    .zip(payloads)
                    .map(|((s, t), (refs, rho, sigmoid))| {
                        let (sv_idx, coef) = refs.into_iter().unzip();
                        BinarySvm {
                            s,
                            t,
                            sv_idx,
                            coef,
                            rho,
                            sigmoid,
                        }
                    })
                    .collect();
                MpSvmModel {
                    classes,
                    kernel,
                    sv_pool: b.finish(),
                    binaries,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_format_roundtrips_exactly(m in model_strategy()) {
        let text = m.to_text();
        let back = MpSvmModel::from_text(&text).unwrap();
        prop_assert_eq!(&m, &back);
        // And the format is a fixed point: reserializing changes nothing.
        prop_assert_eq!(text, back.to_text());
    }
}

/// Replacement tokens: non-finite and extreme numbers, small ids around
/// the class and pool bounds, garbage, and deletion.
const MUTATIONS: [&str; 17] = [
    "NaN", "inf", "-inf", "1e308", "-1e308", "0", "1", "2", "3", "4", "9", "-1", "0.5", "65535",
    "x", "binary", "",
];

/// Byte ranges of the atoms of `text`: maximal runs without a space, a
/// `:` or a line break (so `3:0.5` holds two atoms).
fn atoms(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, ch) in text.char_indices() {
        let sep = matches!(ch, ' ' | ':' | '\n');
        match (start, sep) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, text.len()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_mutated_token_is_refused_or_predicts(
        m in model_strategy(),
        at in 0usize..10_000,
        with in 0usize..MUTATIONS.len(),
    ) {
        let text = m.to_text();
        let atoms = atoms(&text);
        let (a, b) = atoms[at % atoms.len()];
        let mutated = format!("{}{}{}", &text[..a], MUTATIONS[with], &text[b..]);
        if let Ok(loaded) = MpSvmModel::from_text(&mutated) {
            // Score the model's own SV pool on the shared and the
            // per-binary paths; an `Err` is a refusal, only a panic fails.
            for backend in [Backend::gmp_default(), Backend::libsvm()] {
                if let Ok(p) = loaded.predict(&loaded.sv_pool, &backend) {
                    prop_assert_eq!(p.labels.len(), loaded.sv_pool.nrows());
                    prop_assert!(p.labels.iter().all(|&l| (l as usize) < loaded.classes));
                }
            }
        }
    }
}
