//! `gmp-serve` — long-lived TCP front-end for online MP-SVM inference.
//!
//! ```text
//! gmp-serve [options] MODEL_FILE
//!   --host H           bind address (default 127.0.0.1)
//!   --port P           TCP port; 0 picks an ephemeral port (default 7878)
//!   --backend B        scoring backend: libsvm | libsvm-omp | gpu-baseline
//!                      | cmp | gmp | gmp-v100 (default gmp)
//!   --compute-backend C  numeric compute backend: scalar | blocked
//!                      (default: GMP_BACKEND env var, else scalar)
//!   --threads N        host threads per scoring call (default auto)
//!   --max-batch N      largest batch a free worker takes from the queue
//!                      (default 32)
//!   --queue N          request-queue capacity (default 1024)
//!   --workers N        scoring worker threads (default 2)
//!   --deadline-ms D    per-request deadline; 0 = none (default 0)
//! ```
//!
//! Protocol (newline-delimited, one request per line — see
//! `gmp_serve::proto`): LibSVM rows in, `label p1 … pk` out, `ERR <reason>`
//! on failure; `STATS` returns one JSON line, `QUIT` closes the
//! connection, `SHUTDOWN` drains the server and exits. A line longer than
//! `proto::MAX_LINE_BYTES` is answered `ERR request line too long` and
//! its connection is closed.
//!
//! Each reply, newline included, leaves in one write on a `TCP_NODELAY`
//! socket, so no reply waits on Nagle's algorithm for the client's
//! delayed acknowledgement.
//!
//! The actual bind address is announced on stdout as
//! `gmp-serve listening on HOST:PORT` so scripts (and the smoke test) can
//! use `--port 0`.

use gmp_serve::proto::{self, RequestLine};
use gmp_serve::{PredictorEngine, ServeConfig, ServeHandle, Server};
use gmp_svm::{Backend, ComputeBackendKind, MpSvmModel};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Opts {
    model_path: String,
    host: String,
    port: u16,
    backend: Backend,
    compute: ComputeBackendKind,
    threads: Option<usize>,
    cfg: ServeConfig,
}

fn parse_opts<I: Iterator<Item = String>>(mut args: I) -> Result<Opts, String> {
    let mut model_path = None;
    let mut host = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut backend = Backend::gmp_default();
    let mut compute = ComputeBackendKind::from_env();
    let mut threads = None;
    let mut cfg = ServeConfig::default();

    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} requires a value"))?;
        v.parse().map_err(|_| format!("bad value '{v}' for {flag}"))
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--host" => host = value("--host", args.next())?,
            "--port" => port = value("--port", args.next())?,
            "--backend" => {
                let name: String = value("--backend", args.next())?;
                backend = gmp_cli_parse_backend(&name)?;
            }
            "--compute-backend" => {
                let name: String = value("--compute-backend", args.next())?;
                compute = ComputeBackendKind::parse(&name).ok_or_else(|| {
                    format!("unknown compute backend '{name}' (scalar | blocked)")
                })?;
            }
            "--threads" => threads = Some(value("--threads", args.next())?),
            "--max-batch" => cfg.max_batch = value("--max-batch", args.next())?,
            "--queue" => cfg.queue_cap = value("--queue", args.next())?,
            "--workers" => cfg.workers = value("--workers", args.next())?,
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms", args.next())?;
                cfg.default_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => {
                if model_path.replace(arg).is_some() {
                    return Err("exactly one MODEL_FILE expected".to_string());
                }
            }
        }
    }
    if cfg.max_batch == 0 || cfg.queue_cap == 0 || cfg.workers == 0 {
        return Err("--max-batch, --queue and --workers must be >= 1".to_string());
    }
    Ok(Opts {
        model_path: model_path.ok_or("need MODEL_FILE")?,
        host,
        port,
        backend,
        compute,
        threads,
        cfg,
    })
}

// A local copy of the CLI backend table (the cli crate also exposes one,
// but serve must not depend on the offline tools).
fn gmp_cli_parse_backend(name: &str) -> Result<Backend, String> {
    Ok(match name {
        "libsvm" => Backend::libsvm(),
        "libsvm-omp" => Backend::libsvm_openmp(),
        "gpu-baseline" => Backend::gpu_baseline_default(),
        "cmp" => Backend::cmp_svm(),
        "gmp" => Backend::gmp_default(),
        "gmp-v100" => Backend::Gmp {
            device: gmp_svm::DeviceConfig::tesla_v100(),
        },
        other => {
            return Err(format!(
            "unknown backend '{other}' (libsvm | libsvm-omp | gpu-baseline | cmp | gmp | gmp-v100)"
        ))
        }
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gmp-serve: {e}");
            eprintln!("usage: gmp-serve [options] MODEL_FILE (see --help in the crate docs)");
            return ExitCode::FAILURE;
        }
    };

    let model_text = match std::fs::read_to_string(&opts.model_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmp-serve: cannot read {}: {e}", opts.model_path);
            return ExitCode::FAILURE;
        }
    };
    let model = match MpSvmModel::from_text(&model_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gmp-serve: {}: {e}", opts.model_path);
            return ExitCode::FAILURE;
        }
    };
    let engine = match PredictorEngine::with_compute_backend(
        model,
        opts.backend.clone(),
        opts.threads,
        opts.compute,
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("gmp-serve: model rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "gmp-serve: model loaded ({} classes, dim {}, {} SVs, probability={}) on {}",
        engine.classes(),
        engine.dim(),
        engine.model().n_sv(),
        engine.has_probability(),
        opts.backend.label(),
    );

    let listener = match TcpListener::bind((opts.host.as_str(), opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gmp-serve: cannot bind {}:{}: {e}", opts.host, opts.port);
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    // Announced on stdout (and flushed) so callers using --port 0 can read
    // the actual port.
    println!("gmp-serve listening on {local}");
    let _ = std::io::stdout().flush();

    let server = match Server::start(engine, opts.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gmp-serve: cannot start serving threads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stop = Arc::new(AtomicBool::new(false));

    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(s) => {
                conn_threads.retain(|t| !t.is_finished());
                let handle = server.handle();
                let stop = Arc::clone(&stop);
                let addr = local;
                conn_threads.push(std::thread::spawn(move || {
                    if serve_connection(s, &handle, &stop) {
                        // SHUTDOWN received: wake the accept loop, which
                        // blocks until one more connection arrives.
                        let _ = TcpStream::connect(addr);
                    }
                }));
            }
            Err(e) => {
                eprintln!("gmp-serve: accept failed: {e}");
            }
        }
    }
    for t in conn_threads {
        let _ = t.join();
    }
    let report = server.shutdown();
    eprintln!("gmp-serve: final stats {}", proto::format_stats(&report));
    ExitCode::SUCCESS
}

/// Handle one client connection; returns true when the client requested a
/// whole-server shutdown.
fn serve_connection(stream: TcpStream, handle: &ServeHandle, stop: &AtomicBool) -> bool {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    let cloned = stream.set_nodelay(true).and_then(|()| stream.try_clone());
    let mut writer = match cloned {
        Ok(w) => w,
        Err(e) => {
            eprintln!("gmp-serve: [{peer}] cannot set up stream: {e}");
            return false;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut out = String::new();
    loop {
        line.clear();
        // Read at most one byte past the cap, so an endless line costs
        // bounded memory.
        let limit = proto::MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break, // client hung up
            Ok(_) => {}
        }
        if line.last() != Some(&b'\n') && line.len() > proto::MAX_LINE_BYTES {
            let _ = writer.write_all(b"ERR request line too long\n");
            break;
        }
        let reply = match proto::parse_line(&String::from_utf8_lossy(&line)) {
            Ok(RequestLine::Empty) => continue,
            Ok(RequestLine::Quit) => break,
            Ok(RequestLine::Shutdown) => {
                stop.store(true, Ordering::Release);
                let _ = writer.write_all(b"OK shutting down\n");
                return true;
            }
            Ok(RequestLine::Stats) => proto::format_stats(&handle.metrics()),
            Ok(RequestLine::Predict(features)) => match handle.submit(features) {
                Ok(p) => proto::format_prediction(&p),
                Err(e) => proto::format_error(&e),
            },
            Err(e) => proto::format_error(&e),
        };
        out.clear();
        out.push_str(&reply);
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break; // client hung up
        }
    }
    false
}
