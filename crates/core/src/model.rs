//! The trained MP-SVM model with shared support-vector storage (§3.3.3).

use gmp_kernel::KernelKind;
use gmp_prob::SigmoidParams;
use gmp_sparse::{CsrBuilder, CsrMatrix};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// One binary probabilistic SVM of the pairwise-coupling ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySvm {
    /// Class pair `(s, t)` with `s < t`; `decision > 0` votes class `s`.
    pub s: u16,
    /// Second class.
    pub t: u16,
    /// Indices into the model's shared support-vector pool.
    pub sv_idx: Vec<u32>,
    /// Dual coefficients `y_i α_i` aligned with `sv_idx`.
    pub coef: Vec<f64>,
    /// Bias: `decision(x) = Σ coef_j K(sv_j, x) - rho`.
    pub rho: f64,
    /// Fitted sigmoid (present when trained with probability).
    pub sigmoid: Option<SigmoidParams>,
}

impl BinarySvm {
    /// Number of support vectors this binary SVM references.
    pub fn n_sv(&self) -> usize {
        self.sv_idx.len()
    }
}

/// A trained multi-class probabilistic SVM.
///
/// Support vectors are stored **once** in `sv_pool` and referenced by index
/// from each binary SVM — the paper's support-vector sharing, which both
/// shrinks the model by up to `(k-1)x` and lets prediction compute the
/// test-by-SV kernel block a single time for all binary SVMs.
#[derive(Debug, Clone, PartialEq)]
pub struct MpSvmModel {
    /// Number of classes.
    pub classes: usize,
    /// Kernel function used at training time.
    pub kernel: KernelKind,
    /// Deduplicated support vectors (union across binary SVMs).
    pub sv_pool: CsrMatrix,
    /// The `k(k-1)/2` binary SVMs in pair-enumeration order.
    pub binaries: Vec<BinarySvm>,
}

/// Model (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ModelParseError {}

impl MpSvmModel {
    /// Whether every binary SVM carries a fitted sigmoid.
    pub fn has_probability(&self) -> bool {
        self.binaries.iter().all(|b| b.sigmoid.is_some())
    }

    /// Total (shared) support vectors.
    pub fn n_sv(&self) -> usize {
        self.sv_pool.nrows()
    }

    /// Sum of per-binary SV references (what unshared storage would cost).
    pub fn total_sv_refs(&self) -> usize {
        self.binaries.iter().map(|b| b.n_sv()).sum()
    }

    /// Bias of the last binary SVM — the quantity Table 4's "bias" column
    /// reports for multi-class problems.
    pub fn last_bias(&self) -> f64 {
        self.binaries.last().map_or(0.0, |b| b.rho)
    }

    /// Serialize to the plain-text model format (LibSVM-inspired).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("gmp-svm-model v1\n");
        let _ = writeln!(out, "classes {}", self.classes);
        match self.kernel {
            KernelKind::Rbf { gamma } => {
                let _ = writeln!(out, "kernel rbf {gamma}");
            }
            KernelKind::Linear => {
                let _ = writeln!(out, "kernel linear");
            }
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            } => {
                let _ = writeln!(out, "kernel poly {gamma} {coef0} {degree}");
            }
            KernelKind::Sigmoid { gamma, coef0 } => {
                let _ = writeln!(out, "kernel sigmoid {gamma} {coef0}");
            }
        }
        let _ = writeln!(
            out,
            "sv_pool {} {}",
            self.sv_pool.nrows(),
            self.sv_pool.ncols()
        );
        for i in 0..self.sv_pool.nrows() {
            let row = self.sv_pool.row(i);
            let mut first = true;
            for (&c, &v) in row.indices.iter().zip(row.values) {
                if !first {
                    out.push(' ');
                }
                let _ = write!(out, "{}:{v}", c + 1);
                first = false;
            }
            out.push('\n');
        }
        for b in &self.binaries {
            let (a, bb) = b
                .sigmoid
                .map(|s| (s.a, s.b))
                .unwrap_or((f64::NAN, f64::NAN));
            let _ = writeln!(
                out,
                "binary {} {} {} {} {} {}",
                b.s,
                b.t,
                b.rho,
                a,
                bb,
                b.n_sv()
            );
            let mut first = true;
            for (&idx, &c) in b.sv_idx.iter().zip(&b.coef) {
                if !first {
                    out.push(' ');
                }
                let _ = write!(out, "{idx}:{c}");
                first = false;
            }
            out.push('\n');
        }
        out
    }

    /// Parse the plain-text model format.
    ///
    /// Refuses, with the 1-based line number, anything that would load as
    /// a model that panics or predicts plausible-looking nonsense: fewer
    /// than two classes, a binary list other than exactly
    /// [`crate::ovo::class_pairs`] in order, non-finite kernel parameters,
    /// `rho`, coefficients or sigmoid parameters (a NaN `A` is the "no
    /// sigmoid" marker [`MpSvmModel::to_text`] writes), and malformed SV
    /// rows or coefficient tokens.
    pub fn from_text(text: &str) -> Result<MpSvmModel, ModelParseError> {
        let err = |line: usize, message: &str| ModelParseError {
            line,
            message: message.to_string(),
        };
        // A finite `f64` token; `what` names it in the error.
        let finite = |tok: &str, line: usize, what: &str| -> Result<f64, ModelParseError> {
            let v: f64 = tok.parse().map_err(|_| err(line, &format!("bad {what}")))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(err(line, &format!("non-finite {what}")))
            }
        };
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines.next().ok_or_else(|| err(1, "empty model"))?;
        if header.trim() != "gmp-svm-model v1" {
            return Err(err(ln + 1, "bad header"));
        }
        let (ln, classes_line) = lines.next().ok_or_else(|| err(2, "missing classes"))?;
        let classes: usize = classes_line
            .strip_prefix("classes ")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| err(ln + 1, "bad classes line"))?;
        if classes < 2 {
            return Err(err(ln + 1, "fewer than two classes"));
        }
        let (ln, kernel_line) = lines.next().ok_or_else(|| err(3, "missing kernel"))?;
        let kl = ln + 1;
        let ktoks: Vec<&str> = kernel_line.split_whitespace().collect();
        let kernel = match ktoks.as_slice() {
            ["kernel", "rbf", g] => KernelKind::Rbf {
                gamma: finite(g, kl, "gamma")?,
            },
            ["kernel", "linear"] => KernelKind::Linear,
            ["kernel", "poly", g, c0, d] => KernelKind::Poly {
                gamma: finite(g, kl, "gamma")?,
                coef0: finite(c0, kl, "coef0")?,
                degree: d.parse().map_err(|_| err(kl, "bad degree"))?,
            },
            ["kernel", "sigmoid", g, c0] => KernelKind::Sigmoid {
                gamma: finite(g, kl, "gamma")?,
                coef0: finite(c0, kl, "coef0")?,
            },
            _ => return Err(err(kl, "bad kernel line")),
        };
        let (ln, pool_line) = lines.next().ok_or_else(|| err(4, "missing sv_pool"))?;
        let ptoks: Vec<&str> = pool_line.split_whitespace().collect();
        if ptoks.len() != 3 || ptoks[0] != "sv_pool" {
            return Err(err(ln + 1, "bad sv_pool line"));
        }
        let pool_rows: usize = ptoks[1].parse().map_err(|_| err(ln + 1, "bad pool rows"))?;
        let pool_cols: usize = ptoks[2].parse().map_err(|_| err(ln + 1, "bad pool cols"))?;
        // Column ids are stored as u32.
        if pool_cols > u32::MAX as usize + 1 {
            return Err(err(ln + 1, "pool cols beyond the u32 index range"));
        }
        let mut builder = CsrBuilder::new(pool_cols.max(1));
        for _ in 0..pool_rows {
            let (ln, row_line) = lines.next().ok_or_else(|| err(0, "truncated sv_pool"))?;
            builder.start_row();
            let mut prev_col = 0usize;
            for tok in row_line.split_whitespace() {
                let (i, v) = tok
                    .split_once(':')
                    .ok_or_else(|| err(ln + 1, "bad sv token"))?;
                let col: usize = i.parse().map_err(|_| err(ln + 1, "bad sv index"))?;
                if col == 0 {
                    return Err(err(ln + 1, "sv indices are 1-based"));
                }
                if col > pool_cols {
                    return Err(err(ln + 1, "sv index beyond pool cols"));
                }
                if col <= prev_col {
                    return Err(err(ln + 1, "sv indices not strictly increasing"));
                }
                prev_col = col;
                builder.push((col - 1) as u32, finite(v, ln + 1, "sv value")?);
            }
        }
        let sv_pool = builder.finish();
        let mut binaries = Vec::new();
        let mut pairs = crate::ovo::class_pair_iter(classes);
        while let Some((ln, bl)) = lines.next() {
            if bl.trim().is_empty() {
                continue;
            }
            let toks: Vec<&str> = bl.split_whitespace().collect();
            if toks.len() != 7 || toks[0] != "binary" {
                return Err(err(ln + 1, "bad binary line"));
            }
            let s: u16 = toks[1].parse().map_err(|_| err(ln + 1, "bad s"))?;
            let t: u16 = toks[2].parse().map_err(|_| err(ln + 1, "bad t"))?;
            match pairs.next() {
                Some(pair) if pair == (s as usize, t as usize) => {}
                Some((es, et)) => {
                    let msg = format!("expected binary {es} {et}, found {s} {t}");
                    return Err(err(ln + 1, &msg));
                }
                None => {
                    let msg = format!("binary {s} {t} beyond the {classes}-class pairs");
                    return Err(err(ln + 1, &msg));
                }
            }
            let rho = finite(toks[3], ln + 1, "rho")?;
            let a: f64 = toks[4].parse().map_err(|_| err(ln + 1, "bad A"))?;
            let nsv: usize = toks[6].parse().map_err(|_| err(ln + 1, "bad nsv"))?;
            let sigmoid = if a.is_nan() {
                None
            } else {
                Some(SigmoidParams {
                    a: finite(toks[4], ln + 1, "A")?,
                    b: finite(toks[5], ln + 1, "B")?,
                    iterations: 0,
                })
            };
            let (cln, coef_line) = lines
                .next()
                .ok_or_else(|| err(ln + 2, "truncated binary coefficients"))?;
            // The claimed count only sizes the buffers once the pool bounds
            // it; the parsed tokens must match it exactly below.
            let cap = nsv.min(sv_pool.nrows());
            let mut sv_idx = Vec::with_capacity(cap);
            let mut coef = Vec::with_capacity(cap);
            for tok in coef_line.split_whitespace() {
                let (i, v) = tok
                    .split_once(':')
                    .ok_or_else(|| err(cln + 1, "bad coef token"))?;
                let idx: u32 = i.parse().map_err(|_| err(cln + 1, "bad coef index"))?;
                if (idx as usize) >= sv_pool.nrows() {
                    return Err(err(cln + 1, "coef index out of pool"));
                }
                sv_idx.push(idx);
                coef.push(finite(v, cln + 1, "coef value")?);
            }
            if sv_idx.len() != nsv {
                return Err(err(cln + 1, "coefficient count mismatch"));
            }
            binaries.push(BinarySvm {
                s,
                t,
                sv_idx,
                coef,
                rho,
                sigmoid,
            });
        }
        if let Some((s, t)) = pairs.next() {
            let msg = format!("binary list ends before binary {s} {t}");
            return Err(err(text.lines().count(), &msg));
        }
        Ok(MpSvmModel {
            classes,
            kernel,
            sv_pool,
            binaries,
        })
    }
}

/// Builds the shared SV pool: deduplicates training instances referenced by
/// several binary SVMs (keyed by original dataset row).
#[derive(Debug, Default)]
pub struct SvPoolBuilder {
    index_of: HashMap<usize, u32>,
    rows: Vec<usize>,
}

impl SvPoolBuilder {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern the original-dataset row `orig`, returning its pool index.
    pub fn intern(&mut self, orig: usize) -> u32 {
        if let Some(&i) = self.index_of.get(&orig) {
            return i;
        }
        let i = self.rows.len() as u32;
        self.index_of.insert(orig, i);
        self.rows.push(orig);
        i
    }

    /// Number of unique rows interned.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Materialize the pool matrix from the original dataset.
    pub fn build(&self, x: &CsrMatrix) -> CsrMatrix {
        x.select_rows(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> MpSvmModel {
        let sv_pool = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.5, -0.5]], 2);
        MpSvmModel {
            classes: 3,
            kernel: KernelKind::Rbf { gamma: 0.25 },
            sv_pool,
            binaries: vec![
                BinarySvm {
                    s: 0,
                    t: 1,
                    sv_idx: vec![0, 1],
                    coef: vec![0.5, -0.5],
                    rho: 0.1,
                    sigmoid: Some(SigmoidParams {
                        a: -1.5,
                        b: 0.2,
                        iterations: 3,
                    }),
                },
                BinarySvm {
                    s: 0,
                    t: 2,
                    sv_idx: vec![0, 2],
                    coef: vec![0.7, -0.7],
                    rho: -0.2,
                    sigmoid: Some(SigmoidParams {
                        a: -2.0,
                        b: 0.0,
                        iterations: 4,
                    }),
                },
                BinarySvm {
                    s: 1,
                    t: 2,
                    sv_idx: vec![1, 2],
                    coef: vec![0.3, -0.3],
                    rho: 0.05,
                    sigmoid: Some(SigmoidParams {
                        a: -1.0,
                        b: 0.1,
                        iterations: 2,
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_text() {
        let m = sample_model();
        let text = m.to_text();
        let m2 = MpSvmModel::from_text(&text).unwrap();
        assert_eq!(m.classes, m2.classes);
        assert_eq!(m.kernel, m2.kernel);
        assert_eq!(m.sv_pool, m2.sv_pool);
        assert_eq!(m.binaries.len(), m2.binaries.len());
        for (a, b) in m.binaries.iter().zip(&m2.binaries) {
            assert_eq!((a.s, a.t), (b.s, b.t));
            assert_eq!(a.sv_idx, b.sv_idx);
            assert_eq!(a.coef, b.coef);
            assert_eq!(a.rho, b.rho);
            let (sa, sb) = (a.sigmoid.unwrap(), b.sigmoid.unwrap());
            assert_eq!((sa.a, sa.b), (sb.a, sb.b));
        }
    }

    #[test]
    fn roundtrip_without_probability() {
        let mut m = sample_model();
        for b in m.binaries.iter_mut() {
            b.sigmoid = None;
        }
        let m2 = MpSvmModel::from_text(&m.to_text()).unwrap();
        assert!(!m2.has_probability());
        assert!(m2.binaries.iter().all(|b| b.sigmoid.is_none()));
    }

    #[test]
    fn sharing_accounting() {
        let m = sample_model();
        assert_eq!(m.n_sv(), 3);
        assert_eq!(m.total_sv_refs(), 6);
        assert!(m.has_probability());
        assert_eq!(m.last_bias(), 0.05);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(MpSvmModel::from_text("").is_err());
        let e = MpSvmModel::from_text("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = MpSvmModel::from_text("gmp-svm-model v1\nclasses x\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = MpSvmModel::from_text("gmp-svm-model v1\nclasses 2\nkernel warp 1\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    /// `sample_model`'s text with its last SV row (line 7) replaced.
    fn with_last_sv_row(row: &str) -> Result<MpSvmModel, ModelParseError> {
        let text = sample_model().to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[6], "1:1.5 2:-0.5");
        lines[6] = row;
        MpSvmModel::from_text(&lines.join("\n"))
    }

    #[test]
    fn non_finite_sv_values_are_refused() {
        for row in ["1:NaN 2:-0.5", "1:1.5 2:inf", "1:-inf"] {
            let e = with_last_sv_row(row).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (7, "non-finite sv value"));
        }
    }

    #[test]
    fn unsorted_sv_indices_are_refused() {
        for row in ["2:-0.5 1:1.5", "1:1.5 1:-0.5"] {
            let e = with_last_sv_row(row).unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (7, "sv indices not strictly increasing")
            );
        }
    }

    #[test]
    fn out_of_range_sv_indices_are_refused() {
        assert!(with_last_sv_row("1:1.5 2:-0.5").is_ok());
        let e = with_last_sv_row("1:1.5 3:-0.5").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (7, "sv index beyond pool cols")
        );
    }

    /// `sample_model`'s text with its lines edited by `edit` (0-based
    /// indices: line `n` of an error is `lines[n - 1]`).
    fn edited(edit: impl FnOnce(&mut Vec<String>)) -> Result<MpSvmModel, ModelParseError> {
        let mut lines: Vec<String> = sample_model().to_text().lines().map(String::from).collect();
        assert_eq!(lines[7], "binary 0 1 0.1 -1.5 0.2 2");
        edit(&mut lines);
        MpSvmModel::from_text(&lines.join("\n"))
    }

    /// The error of a model whose line `n` (1-based) reads `line`.
    fn refusal(n: usize, line: &str) -> ModelParseError {
        edited(|l| l[n - 1] = line.to_string()).unwrap_err()
    }

    #[test]
    fn fewer_than_two_classes_are_refused() {
        for classes in ["classes 0", "classes 1"] {
            let e = refusal(2, classes);
            assert_eq!((e.line, e.message.as_str()), (2, "fewer than two classes"));
        }
    }

    #[test]
    fn class_id_beyond_classes_is_refused() {
        let e = refusal(8, "binary 0 99 0.1 -1.5 0.2 2");
        assert_eq!(
            (e.line, e.message.as_str()),
            (8, "expected binary 0 1, found 0 99")
        );
    }

    #[test]
    fn swapped_pair_is_refused() {
        let e = refusal(12, "binary 2 1 0.05 -1 0.1 2");
        assert_eq!(
            (e.line, e.message.as_str()),
            (12, "expected binary 1 2, found 2 1")
        );
    }

    #[test]
    fn duplicate_pair_is_refused() {
        let e = refusal(10, "binary 0 1 -0.2 -2 0 2");
        assert_eq!(
            (e.line, e.message.as_str()),
            (10, "expected binary 0 2, found 0 1")
        );
    }

    #[test]
    fn missing_binary_is_refused() {
        let e = edited(|l| l.truncate(11)).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (11, "binary list ends before binary 1 2")
        );
    }

    #[test]
    fn extra_binary_is_refused() {
        let e = edited(|l| {
            l.push("binary 1 2 0.05 -1 0.1 2".to_string());
            l.push("1:0.3 2:-0.3".to_string());
        })
        .unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (14, "binary 1 2 beyond the 3-class pairs")
        );
    }

    #[test]
    fn non_finite_rho_is_refused() {
        for rho in ["inf", "-inf", "NaN"] {
            let e = refusal(8, &format!("binary 0 1 {rho} -1.5 0.2 2"));
            assert_eq!((e.line, e.message.as_str()), (8, "non-finite rho"));
        }
    }

    #[test]
    fn non_finite_coefficients_are_refused() {
        for coefs in ["0:NaN 1:-0.5", "0:0.5 1:-inf"] {
            let e = refusal(9, coefs);
            assert_eq!((e.line, e.message.as_str()), (9, "non-finite coef value"));
        }
    }

    #[test]
    fn non_finite_kernel_parameters_are_refused() {
        for (kernel, what) in [
            ("kernel rbf NaN", "gamma"),
            ("kernel rbf inf", "gamma"),
            ("kernel poly NaN 1 3", "gamma"),
            ("kernel poly 0.5 -inf 3", "coef0"),
            ("kernel sigmoid inf 0", "gamma"),
            ("kernel sigmoid 0.1 NaN", "coef0"),
        ] {
            let e = refusal(3, kernel);
            assert_eq!((e.line, e.message), (3, format!("non-finite {what}")));
        }
    }

    #[test]
    fn non_finite_sigmoid_is_refused_but_nan_a_means_none() {
        for (a, b, what) in [
            ("-1.5", "NaN", "B"),
            ("-1.5", "inf", "B"),
            ("-inf", "0.2", "A"),
        ] {
            let e = refusal(8, &format!("binary 0 1 0.1 {a} {b} 2"));
            assert_eq!((e.line, e.message), (8, format!("non-finite {what}")));
        }
        let m = edited(|l| l[7] = "binary 0 1 0.1 NaN 0.2 2".to_string()).unwrap();
        assert!(m.binaries[0].sigmoid.is_none());
    }

    #[test]
    fn pool_builder_dedups() {
        let mut b = SvPoolBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.intern(10), 0);
        assert_eq!(b.intern(5), 1);
        assert_eq!(b.intern(10), 0);
        assert_eq!(b.len(), 2);
        let x = CsrMatrix::from_dense(&(0..12).map(|i| vec![i as f64]).collect::<Vec<_>>(), 1);
        let pool = b.build(&x);
        assert_eq!(pool.nrows(), 2);
        assert_eq!(pool.row(0).values, &[10.0]);
        assert_eq!(pool.row(1).values, &[5.0]);
    }

    #[test]
    fn all_kernel_kinds_roundtrip() {
        for kernel in [
            KernelKind::Linear,
            KernelKind::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
            KernelKind::Sigmoid {
                gamma: 0.1,
                coef0: -0.5,
            },
        ] {
            let mut m = sample_model();
            m.kernel = kernel;
            let m2 = MpSvmModel::from_text(&m.to_text()).unwrap();
            assert_eq!(m2.kernel, kernel);
        }
    }

    /// `sample_model` with its `sv_pool` line claiming `cols` columns.
    fn claiming_width(cols: u64) -> Result<MpSvmModel, ModelParseError> {
        edited(|l| {
            assert_eq!(l[3], "sv_pool 3 2");
            l[3] = format!("sv_pool 3 {cols}");
        })
    }

    #[test]
    fn pool_width_beyond_u32_indices_is_refused() {
        let e = claiming_width(u32::MAX as u64 + 2).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (4, "pool cols beyond the u32 index range")
        );
    }

    #[test]
    fn huge_claimed_pool_width_predicts_like_the_stored_width() {
        use crate::{Backend, ComputeBackendKind, PreparedPredictor};
        use std::sync::Arc;
        let wide = claiming_width(4_000_000_000).unwrap();
        let narrow = claiming_width(2).unwrap();
        let rows = [vec![0.3, -1.2], vec![1.5, 0.0]];
        let predict = |model: MpSvmModel, width: usize| {
            let mut test = CsrBuilder::new(width);
            for row in &rows {
                test.start_row();
                for (c, &v) in row.iter().enumerate().filter(|(_, &v)| v != 0.0) {
                    test.push(c as u32, v);
                }
            }
            let test = test.finish();
            PreparedPredictor::new(Arc::new(model), Backend::gmp_default())
                .compute_backend(ComputeBackendKind::Scalar)
                .predict(&test)
                .unwrap()
        };
        let (w, n) = (predict(wide, 4_000_000_000), predict(narrow, 2));
        assert_eq!(w.labels, n.labels);
        let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
            v.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&w.probabilities), bits(&n.probabilities));
        assert_eq!(bits(&w.decision_values), bits(&n.decision_values));
    }
}
