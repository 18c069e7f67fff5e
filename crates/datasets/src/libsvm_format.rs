//! LibSVM text format: `label idx:val idx:val ...` per line, 1-based
//! feature indices. This is the interchange format of the paper's datasets
//! ("publicly available (e.g., LibSVM website)").

use crate::dataset::Dataset;
use gmp_sparse::CsrBuilder;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Parse failure with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Incremental LibSVM parser: feed lines one at a time (e.g. straight off
/// a `BufReader`, without slurping the file into memory first), then call
/// [`finish`](LibsvmStreamParser::finish) to densify labels and build the
/// CSR matrix.
///
/// `parse_libsvm` is a thin wrapper over this, so the streaming and
/// whole-text paths accept exactly the same inputs and report the same
/// line-numbered errors.
#[derive(Debug, Default)]
pub struct LibsvmStreamParser {
    lineno: usize,
    raw_labels: Vec<f64>,
    rows: Vec<Vec<(u32, f64)>>,
    max_col: usize,
}

impl LibsvmStreamParser {
    /// Fresh parser; the next pushed line is line 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one input line (without its newline). Blank lines and `#`
    /// comments count for line numbering but add no row. A `nan`/`inf`
    /// label or feature value is refused here, so it can never train into
    /// a model.
    pub fn push_line(&mut self, line: &str) -> Result<(), ParseError> {
        self.lineno += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        // gmp:allow-panic — guarded: the line was checked non-empty above
        let label_tok = parts.next().expect("non-empty line has a token");
        let label: f64 = label_tok.parse().map_err(|_| ParseError {
            line: self.lineno,
            message: format!("bad label '{label_tok}'"),
        })?;
        if !label.is_finite() {
            return Err(ParseError {
                line: self.lineno,
                message: format!("non-finite label '{label_tok}'"),
            });
        }
        let mut feats: Vec<(u32, f64)> = Vec::new();
        let mut prev: Option<u32> = None;
        for tok in parts {
            let (idx_s, val_s) = tok.split_once(':').ok_or_else(|| ParseError {
                line: self.lineno,
                message: format!("feature token '{tok}' missing ':'"),
            })?;
            let idx: usize = idx_s.parse().map_err(|_| ParseError {
                line: self.lineno,
                message: format!("bad feature index '{idx_s}'"),
            })?;
            if idx == 0 {
                return Err(ParseError {
                    line: self.lineno,
                    message: "feature indices are 1-based".to_string(),
                });
            }
            let val: f64 = val_s.parse().map_err(|_| ParseError {
                line: self.lineno,
                message: format!("bad feature value '{val_s}'"),
            })?;
            if !val.is_finite() {
                return Err(ParseError {
                    line: self.lineno,
                    message: format!("non-finite feature value '{val_s}'"),
                });
            }
            let col = (idx - 1) as u32;
            if let Some(p) = prev {
                if col <= p {
                    return Err(ParseError {
                        line: self.lineno,
                        message: "feature indices must be strictly increasing".to_string(),
                    });
                }
            }
            prev = Some(col);
            self.max_col = self.max_col.max(idx);
            if val != 0.0 {
                feats.push((col, val));
            }
        }
        self.raw_labels.push(label);
        self.rows.push(feats);
        Ok(())
    }

    /// Rows accepted so far.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Lines consumed so far (including blanks and comments).
    pub fn lines_seen(&self) -> usize {
        self.lineno
    }

    /// Densify labels and assemble the dataset. `min_dim` demands at least
    /// that many columns; otherwise the dimensionality is the maximum
    /// feature index seen.
    pub fn finish(self, min_dim: usize) -> Dataset {
        // Densify labels: sort distinct values, map to 0..k.
        let mut distinct: Vec<f64> = self.raw_labels.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        let label_map: HashMap<u64, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, &v)| (v.to_bits(), i as u32))
            .collect();

        let dim = self.max_col.max(min_dim);
        let mut b = CsrBuilder::new(dim.max(1));
        for feats in &self.rows {
            b.start_row();
            for &(c, v) in feats {
                b.push(c, v);
            }
        }
        let y: Vec<u32> = self
            .raw_labels
            .iter()
            .map(|v| label_map[&v.to_bits()])
            .collect();
        Dataset::new(b.finish(), y)
    }
}

/// Parse LibSVM-format text into a dataset.
///
/// Labels may be arbitrary integers/floats; they are densified to `0..k` in
/// order of first appearance sorted numerically. Feature indices are
/// 1-based per the format; `dim` is inferred as the maximum index unless
/// `min_dim` demands more columns.
pub fn parse_libsvm(text: &str, min_dim: usize) -> Result<Dataset, ParseError> {
    let mut p = LibsvmStreamParser::new();
    for line in text.lines() {
        p.push_line(line)?;
    }
    Ok(p.finish(min_dim))
}

/// Serialize a dataset to LibSVM text (labels written as the dense class
/// ids, feature indices 1-based).
pub fn write_libsvm(d: &Dataset) -> String {
    let mut out = String::new();
    for i in 0..d.n() {
        let _ = write!(out, "{}", d.y[i]);
        let row = d.x.row(i);
        for (&c, &v) in row.indices.iter().zip(row.values) {
            let _ = write!(out, " {}:{}", c + 1, v);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let d = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0\n", 0).unwrap();
        assert_eq!(d.n(), 2);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.y, vec![1, 0]); // -1 < 1 so -1 -> 0
        assert_eq!(d.x.row(0).indices, &[0, 2]);
        assert_eq!(d.x.row(1).values, &[1.0]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let d = parse_libsvm("# header\n\n2 1:1\n", 0).unwrap();
        assert_eq!(d.n(), 1);
    }

    #[test]
    fn empty_feature_rows_allowed() {
        let d = parse_libsvm("0\n1 1:5\n", 0).unwrap();
        assert_eq!(d.x.row(0).nnz(), 0);
    }

    #[test]
    fn multiclass_labels_densified_in_order() {
        let d = parse_libsvm("7 1:1\n3 1:1\n7 1:1\n10 1:1\n", 0).unwrap();
        assert_eq!(d.y, vec![1, 0, 1, 2]);
        assert_eq!(d.n_classes(), 3);
    }

    #[test]
    fn min_dim_pads_columns() {
        let d = parse_libsvm("1 1:1\n", 10).unwrap();
        assert_eq!(d.dim(), 10);
    }

    #[test]
    fn roundtrip() {
        let src = "0 1:0.5 3:-2\n1 2:1\n2\n";
        let d = parse_libsvm(src, 0).unwrap();
        let text = write_libsvm(&d);
        let d2 = parse_libsvm(&text, d.dim()).unwrap();
        assert_eq!(d.x, d2.x);
        assert_eq!(d.y, d2.y);
    }

    #[test]
    fn error_bad_label() {
        let e = parse_libsvm("abc 1:1\n", 0).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bad label"));
    }

    #[test]
    fn error_non_finite_numbers() {
        for (src, bad_line) in [
            ("1 1:1\nnan 1:1\n", 2),
            ("1 1:1\n\n-inf 2:1\n", 3),
            ("1 1:nan\n", 1),
            ("# hdr\n1 1:0.5 2:inf\n", 2),
        ] {
            let e = parse_libsvm(src, 0).unwrap_err();
            assert_eq!(e.line, bad_line, "{src:?}");
            assert!(e.message.contains("non-finite"), "{src:?}: {}", e.message);
        }
    }

    #[test]
    fn error_zero_index() {
        let e = parse_libsvm("1 0:1\n", 0).unwrap_err();
        assert!(e.message.contains("1-based"));
    }

    #[test]
    fn error_unsorted_indices() {
        let e = parse_libsvm("1 3:1 2:1\n", 0).unwrap_err();
        assert!(e.message.contains("increasing"));
    }

    #[test]
    fn error_missing_colon() {
        let e = parse_libsvm("1 17\n", 0).unwrap_err();
        assert!(e.message.contains("missing ':'"));
    }

    #[test]
    fn zero_values_dropped() {
        let d = parse_libsvm("1 1:0 2:5\n", 0).unwrap();
        assert_eq!(d.x.row(0).indices, &[1]);
    }

    #[test]
    fn streaming_parser_matches_whole_text_parse() {
        let src = "# hdr\n7 1:0.5 3:2.0\n\n3 2:1.0\n10 1:-1 4:0.25\n";
        let whole = parse_libsvm(src, 6).unwrap();
        let mut p = LibsvmStreamParser::new();
        for line in src.lines() {
            p.push_line(line).unwrap();
        }
        assert_eq!(p.n_rows(), 3);
        assert_eq!(p.lines_seen(), 5);
        let streamed = p.finish(6);
        assert_eq!(whole.x, streamed.x);
        assert_eq!(whole.y, streamed.y);
    }

    #[test]
    fn streaming_parser_error_carries_line_number() {
        let mut p = LibsvmStreamParser::new();
        p.push_line("# comment").unwrap();
        p.push_line("1 1:0.5").unwrap();
        let e = p.push_line("1 2:oops").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bad feature value"));
    }
}
