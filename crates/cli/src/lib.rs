//! Shared argument parsing for the `gmp-train` / `gmp-predict` binaries.
//!
//! The flags mirror LibSVM's `svm-train` where they overlap (`-c`, `-g`,
//! `-t`, `-b`, `-e`) and add backend selection (`--backend`) plus the
//! GMP-SVM buffer knobs (`--ws`, `--q`).

use gmp_gpusim::DeviceConfig;
use gmp_svm::{Backend, ComputeBackendKind, KernelKind, SvmParams};

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Solver/probability parameters.
    pub params: SvmParams,
    /// Execution backend.
    pub backend: Backend,
    /// Per-class penalty multipliers (`--weight CLASS VALUE`, repeatable;
    /// like LibSVM's `-wi`). Indexed by class id, default 1.
    pub class_weights: Vec<f64>,
    /// Positional arguments (input paths etc.).
    pub positional: Vec<String>,
}

/// Argument parse failure with a usage hint.
#[derive(Debug, Clone)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, ArgError> {
    let v = value.ok_or_else(|| ArgError(format!("{flag} requires a value")))?;
    v.parse()
        .map_err(|_| ArgError(format!("bad value '{v}' for {flag}")))
}

/// Parse a backend name: `libsvm`, `libsvm-omp`, `gpu-baseline`, `cmp`,
/// `gmp` (default), `gmp-v100`.
pub fn parse_backend(name: &str) -> Result<Backend, ArgError> {
    Ok(match name {
        "libsvm" => Backend::libsvm(),
        "libsvm-omp" => Backend::libsvm_openmp(),
        "gpu-baseline" => Backend::gpu_baseline_default(),
        "cmp" => Backend::cmp_svm(),
        "gmp" => Backend::gmp_default(),
        "gmp-v100" => Backend::Gmp {
            device: DeviceConfig::tesla_v100(),
        },
        other => {
            return Err(ArgError(format!(
            "unknown backend '{other}' (libsvm | libsvm-omp | gpu-baseline | cmp | gmp | gmp-v100)"
        )))
        }
    })
}

/// Parse an argv-style iterator into options.
pub fn parse_args<I: Iterator<Item = String>>(args: I) -> Result<CommonOpts, ArgError> {
    let mut params = SvmParams::default();
    let mut backend = Backend::gmp_default();
    let mut class_weights: Vec<f64> = Vec::new();
    let mut positional = Vec::new();
    let mut kernel_t = 2u32; // LibSVM numbering: 2 = RBF
    let mut gamma = None::<f64>;
    let mut coef0 = 0.0f64;
    let mut degree = 3u32;

    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-c" => params.c = parse_value("-c", it.next())?,
            "-g" => gamma = Some(parse_value("-g", it.next())?),
            "-e" => params.eps = parse_value("-e", it.next())?,
            "-t" => kernel_t = parse_value("-t", it.next())?,
            "-r" => coef0 = parse_value("-r", it.next())?,
            "-d" => degree = parse_value("-d", it.next())?,
            "-b" => {
                let v: u32 = parse_value("-b", it.next())?;
                params.probability = v != 0;
            }
            "-h" => {
                let v: u32 = parse_value("-h", it.next())?;
                params.shrinking = v != 0;
            }
            "--weight" => {
                let class: usize = parse_value("--weight", it.next())?;
                let w: f64 = parse_value("--weight", it.next())?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(ArgError(format!(
                        "weight for class {class} must be finite and positive"
                    )));
                }
                if class_weights.len() <= class {
                    class_weights.resize(class + 1, 1.0);
                }
                class_weights[class] = w;
            }
            "--ws" => params.ws_size = parse_value("--ws", it.next())?,
            "--q" => params.q = parse_value("--q", it.next())?,
            "--backend" => {
                let name: String = parse_value("--backend", it.next())?;
                backend = parse_backend(&name)?;
            }
            "--compute-backend" => {
                let name: String = parse_value("--compute-backend", it.next())?;
                params.compute_backend = ComputeBackendKind::parse(&name).ok_or_else(|| {
                    ArgError(format!(
                        "unknown compute backend '{name}' (scalar | blocked)"
                    ))
                })?;
            }
            flag if flag.starts_with('-')
                && flag.chars().nth(1).is_some_and(|c| !c.is_ascii_digit()) =>
            {
                return Err(ArgError(format!("unknown flag '{flag}'")));
            }
            _ => positional.push(arg),
        }
    }
    let g = gamma.unwrap_or(0.5);
    params.kernel = match kernel_t {
        0 => KernelKind::Linear,
        1 => KernelKind::Poly {
            gamma: g,
            coef0,
            degree,
        },
        2 => KernelKind::Rbf { gamma: g },
        3 => KernelKind::Sigmoid { gamma: g, coef0 },
        other => return Err(ArgError(format!("unknown kernel type {other} (-t 0..3)"))),
    };
    Ok(CommonOpts {
        params,
        backend,
        class_weights,
        positional,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CommonOpts, ArgError> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let o = parse("train.txt model.txt").unwrap();
        assert_eq!(o.positional, vec!["train.txt", "model.txt"]);
        assert!(matches!(o.params.kernel, KernelKind::Rbf { gamma } if gamma == 0.5));
        assert_eq!(o.backend.label(), "GMP-SVM");
        assert!(o.params.probability);
    }

    #[test]
    fn libsvm_style_flags() {
        let o = parse("-c 10 -g 0.125 -e 0.01 -b 0 data.txt").unwrap();
        assert_eq!(o.params.c, 10.0);
        assert!(matches!(o.params.kernel, KernelKind::Rbf { gamma } if gamma == 0.125));
        assert_eq!(o.params.eps, 0.01);
        assert!(!o.params.probability);
    }

    #[test]
    fn kernel_selection() {
        assert!(matches!(
            parse("-t 0 x").unwrap().params.kernel,
            KernelKind::Linear
        ));
        assert!(matches!(
            parse("-t 1 -g 2 -r 1 -d 4 x").unwrap().params.kernel,
            KernelKind::Poly { gamma, coef0, degree } if gamma == 2.0 && coef0 == 1.0 && degree == 4
        ));
        assert!(matches!(
            parse("-t 3 -g 0.1 x").unwrap().params.kernel,
            KernelKind::Sigmoid { .. }
        ));
        assert!(parse("-t 9 x").is_err());
    }

    #[test]
    fn backend_selection() {
        assert_eq!(
            parse("--backend libsvm x").unwrap().backend.label(),
            "LibSVM w/o OpenMP"
        );
        assert_eq!(
            parse("--backend cmp x").unwrap().backend.label(),
            "CMP-SVM (40t)"
        );
        assert!(parse("--backend warp9 x").is_err());
    }

    #[test]
    fn compute_backend_selection() {
        assert_eq!(
            parse("--compute-backend blocked x")
                .unwrap()
                .params
                .compute_backend,
            ComputeBackendKind::Blocked
        );
        assert_eq!(
            parse("--compute-backend Scalar x")
                .unwrap()
                .params
                .compute_backend,
            ComputeBackendKind::Scalar
        );
        assert!(parse("--compute-backend simd x").is_err());
    }

    #[test]
    fn shrinking_flag() {
        assert!(parse("-h 1 x").unwrap().params.shrinking);
        assert!(!parse("-h 0 x").unwrap().params.shrinking);
        assert!(!parse("x").unwrap().params.shrinking);
    }

    #[test]
    fn class_weight_flag() {
        let o = parse("--weight 2 5.0 --weight 0 0.5 x").unwrap();
        assert_eq!(o.class_weights, vec![0.5, 1.0, 5.0]);
        for bad in ["-3", "0", "nan", "inf"] {
            let err = parse(&format!("--weight 1 {bad} x")).unwrap_err();
            assert_eq!(err.0, "weight for class 1 must be finite and positive");
        }
        assert!(parse("x").unwrap().class_weights.is_empty());
    }

    #[test]
    fn buffer_knobs() {
        let o = parse("--ws 256 --q 128 x").unwrap();
        assert_eq!(o.params.ws_size, 256);
        assert_eq!(o.params.q, 128);
    }

    #[test]
    fn negative_numbers_are_not_flags() {
        // Tokens like "-5" (leading digit) are positionals, not flags.
        let o = parse("-c 1 -5.txt").unwrap();
        assert_eq!(o.positional, vec!["-5.txt"]);
        let o = parse("-c 1 data-5.txt").unwrap();
        assert_eq!(o.positional, vec!["data-5.txt"]);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse("--frobnicate x").is_err());
        assert!(parse("-z x").is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse("-c").is_err());
    }
}
