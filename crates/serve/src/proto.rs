//! The newline-delimited serving protocol.
//!
//! One request per line, LibSVM row syntax with the label optional
//! (a leading bare number is accepted and ignored, so training files can
//! be replayed verbatim):
//!
//! ```text
//! 1:0.5 7:1.25            -> 2 0.031250 0.906250 0.062500
//! 3 1:0.5 7:1.25          -> same (label "3" ignored)
//! STATS                   -> one-line JSON of the serving counters
//! QUIT                    -> server closes this connection
//! SHUTDOWN                -> server drains and exits
//! ```
//!
//! Responses: `label p1 … pk` for a scored request (probabilities omitted
//! when the model has no sigmoids), `ERR <reason>` for a failed one.
//! Blank lines and `#` comments are ignored. A line longer than
//! [`MAX_LINE_BYTES`] is refused with `ERR request line too long`, and the
//! server closes that connection.

use crate::batcher::{Prediction, ServeError};
use gmp_svm::ServeReport;
use std::fmt::Write as _;

/// Longest request line the server reads, newline excluded (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One parsed input line.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestLine {
    /// Score this instance (sparse features, 0-based strictly increasing
    /// columns).
    Predict(Vec<(u32, f64)>),
    /// Report serving metrics.
    Stats,
    /// Close this connection.
    Quit,
    /// Drain and stop the whole server.
    Shutdown,
    /// Nothing to do (blank/comment).
    Empty,
}

/// Parse one protocol line.
pub fn parse_line(line: &str) -> Result<RequestLine, ServeError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(RequestLine::Empty);
    }
    match line {
        "STATS" => return Ok(RequestLine::Stats),
        "QUIT" => return Ok(RequestLine::Quit),
        "SHUTDOWN" => return Ok(RequestLine::Shutdown),
        _ => {}
    }
    let mut features = Vec::new();
    for (ti, tok) in line.split_whitespace().enumerate() {
        let Some((idx_s, val_s)) = tok.split_once(':') else {
            if let (0, Ok(label)) = (ti, tok.parse::<f64>()) {
                if !label.is_finite() {
                    return Err(ServeError::BadInput(format!("non-finite label '{tok}'")));
                }
                continue; // leading label — accepted and ignored
            }
            return Err(ServeError::BadInput(format!(
                "token '{tok}' is neither a label nor index:value"
            )));
        };
        let idx: u64 = idx_s
            .parse()
            .map_err(|_| ServeError::BadInput(format!("bad feature index '{idx_s}'")))?;
        if idx == 0 {
            return Err(ServeError::BadInput(
                "feature indices are 1-based".to_string(),
            ));
        }
        if idx > u32::MAX as u64 {
            return Err(ServeError::BadInput(format!(
                "feature index {idx} too large"
            )));
        }
        let val: f64 = val_s
            .parse()
            .map_err(|_| ServeError::BadInput(format!("bad feature value '{val_s}'")))?;
        if !val.is_finite() {
            return Err(ServeError::BadInput(format!(
                "non-finite feature value '{val_s}'"
            )));
        }
        features.push(((idx - 1) as u32, val));
    }
    Ok(RequestLine::Predict(features))
}

/// Format a scored request: `label p1 … pk` (no trailing newline).
pub fn format_prediction(p: &Prediction) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", p.label);
    for v in &p.probabilities {
        let _ = write!(out, " {v:.6}");
    }
    out
}

/// Format a failed request: `ERR <reason>` (no trailing newline).
pub fn format_error(e: &ServeError) -> String {
    format!("ERR {e}")
}

/// Format the serving counters as one JSON line (hand-rolled; the
/// workspace has no serialization dependency).
pub fn format_stats(r: &ServeReport) -> String {
    format!(
        "{{\"accepted\": {}, \"served\": {}, \"rejected_overload\": {}, \
         \"expired_deadline\": {}, \"failed\": {}, \"batches\": {}, \
         \"mean_batch_size\": {:.3}, \"peak_queue_depth\": {}, \
         \"latency_p50_us\": {}, \"latency_p95_us\": {}, \"latency_p99_us\": {}, \
         \"latency_mean_us\": {:.1}, \"throughput_rps\": {:.1}, \
         \"scoring_sim_s\": {:.6}, \"sim_throughput_rps\": {:.1}, \"uptime_s\": {:.3}}}",
        r.accepted,
        r.served,
        r.rejected_overload,
        r.expired_deadline,
        r.failed,
        r.batches,
        r.mean_batch_size(),
        r.peak_queue_depth,
        r.latency.quantile_us(0.50),
        r.latency.quantile_us(0.95),
        r.latency.quantile_us(0.99),
        r.latency.mean_us(),
        r.throughput_rps(),
        r.scoring_sim_s,
        r.sim_throughput_rps(),
        r.uptime_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_features_with_and_without_label() {
        let bare = parse_line("1:0.5 7:1.25").unwrap();
        let labeled = parse_line("3 1:0.5 7:1.25").unwrap();
        let want = RequestLine::Predict(vec![(0, 0.5), (6, 1.25)]);
        assert_eq!(bare, want);
        assert_eq!(labeled, want);
        // Negative and float labels too (LibSVM allows both).
        assert_eq!(
            parse_line("-1 2:1").unwrap(),
            RequestLine::Predict(vec![(1, 1.0)])
        );
        assert_eq!(
            parse_line("2.5 2:1").unwrap(),
            RequestLine::Predict(vec![(1, 1.0)])
        );
    }

    #[test]
    fn parses_commands_and_blanks() {
        assert_eq!(parse_line("STATS").unwrap(), RequestLine::Stats);
        assert_eq!(parse_line("QUIT").unwrap(), RequestLine::Quit);
        assert_eq!(parse_line("SHUTDOWN").unwrap(), RequestLine::Shutdown);
        assert_eq!(parse_line("").unwrap(), RequestLine::Empty);
        assert_eq!(parse_line("   ").unwrap(), RequestLine::Empty);
        assert_eq!(parse_line("# comment").unwrap(), RequestLine::Empty);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("1:0.5 garbage").is_err());
        assert!(parse_line("0:1.0").is_err()); // 0 is not a valid 1-based index
        assert!(parse_line("x:1.0").is_err());
        assert!(parse_line("1:abc").is_err());
        assert!(parse_line("5000000000:1.0").is_err());
        // A lone non-numeric token is not a label.
        assert!(parse_line("hello").is_err());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for line in [
            "nan 1:1",
            "inf 1:1",
            "1:nan",
            "1 2:0.5 3:inf",
            "1:-inf",
            "1:NaN",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(
                matches!(&err, ServeError::BadInput(m) if m.contains("non-finite")),
                "{line}: {err:?}"
            );
        }
    }

    #[test]
    fn label_only_line_is_empty_features() {
        assert_eq!(parse_line("4").unwrap(), RequestLine::Predict(vec![]));
    }

    #[test]
    fn formats_prediction_and_error() {
        let p = Prediction {
            label: 2,
            probabilities: vec![0.25, 0.5, 0.25],
        };
        assert_eq!(format_prediction(&p), "2 0.250000 0.500000 0.250000");
        let bare = Prediction {
            label: 1,
            probabilities: vec![],
        };
        assert_eq!(format_prediction(&bare), "1");
        assert_eq!(
            format_error(&ServeError::Overloaded),
            "ERR server overloaded (queue full)"
        );
    }

    #[test]
    fn stats_json_is_wellformed_enough() {
        let s = format_stats(&ServeReport::default());
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"served\": 0"));
        assert!(s.contains("latency_p99_us"));
    }
}
