//! `gmp-predict` — score a LibSVM-format file with a trained model.
//!
//! ```text
//! gmp-predict [options] TEST_FILE MODEL_FILE [OUTPUT_FILE]
//!   --backend B    execution backend (default gmp)
//!   --compute-backend B    numeric backend: scalar | blocked
//!                  (default: GMP_BACKEND env var, else scalar)
//! ```
//!
//! Output: one line per instance — the predicted class followed by the
//! class probabilities (when the model carries sigmoids), mirroring
//! `svm-predict -b 1`. Accuracy is printed to stderr when the test file
//! has labels.

use gmp_cli::parse_args;
use gmp_datasets::{Dataset, LibsvmStreamParser};
use gmp_svm::predict::error_rate;
use gmp_svm::{MpSvmModel, PreparedPredictor};
use std::fmt::Write as _;
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

/// Stream the test file through the incremental LibSVM parser instead of
/// slurping it into one string — large test sets never hold text + matrix
/// in memory at once, and parse errors point at the offending line.
fn load_test_file(path: &str, min_dim: usize) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut parser = LibsvmStreamParser::new();
    let mut line = String::new();
    let mut reader = std::io::BufReader::new(file);
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| {
            format!(
                "{path}: read failed after line {}: {e}",
                parser.lines_seen()
            )
        })?;
        if read == 0 {
            break;
        }
        parser
            .push_line(line.trim_end_matches(['\n', '\r']))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(parser.finish(min_dim))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gmp-predict: {e}");
            eprintln!("usage: gmp-predict [options] TEST_FILE MODEL_FILE [OUTPUT_FILE]");
            return ExitCode::FAILURE;
        }
    };
    let (Some(test_path), Some(model_path)) = (opts.positional.first(), opts.positional.get(1))
    else {
        eprintln!("gmp-predict: need TEST_FILE and MODEL_FILE");
        return ExitCode::FAILURE;
    };

    let model_text = match std::fs::read_to_string(model_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmp-predict: cannot read {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match MpSvmModel::from_text(&model_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gmp-predict: {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data = match load_test_file(test_path, model.sv_pool.ncols()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gmp-predict: {e}");
            return ExitCode::FAILURE;
        }
    };

    let predictor = PreparedPredictor::new(Arc::new(model), opts.backend)
        .compute_backend(opts.params.compute_backend);
    let pred = match predictor.predict(&data.x) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gmp-predict: prediction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[{}] {} instances scored in {:.4} s wall / {:.4} s simulated ({} kernel evals, {:.0}% SV-sharing saving)",
        pred.report.backend,
        data.n(),
        pred.report.wall_s,
        pred.report.sim_s,
        pred.report.kernel_evals,
        100.0 * pred.report.sharing_saving(),
    );

    let mut out = String::new();
    for (i, &label) in pred.labels.iter().enumerate() {
        let _ = write!(out, "{label}");
        if let Some(p) = pred.probabilities.get(i) {
            for v in p {
                let _ = write!(out, " {v:.6}");
            }
        }
        out.push('\n');
    }
    match opts.positional.get(2) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("gmp-predict: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("predictions written to {path}");
        }
        None => print!("{out}"),
    }

    // The parser densifies labels, so accuracy is only meaningful when the
    // file's labels already match the model's class ids.
    let acc = 1.0 - error_rate(&pred.labels, &data.y);
    eprintln!("accuracy against file labels: {:.2}%", 100.0 * acc);
    ExitCode::SUCCESS
}
