//! The real `gmp-serve` binary as a child process, and the open-loop load
//! generator that drives it over loopback TCP.
//!
//! Every connection sends on its own fixed schedule whether or not replies
//! have come back (an open loop: independent users, so a stall grows a
//! queue instead of slowing the sender). Each request is timed from when
//! it was *due*, so a stall also charges the wait it imposes on the
//! requests behind it, and the sender records how late it ran. Latencies
//! are kept as exact samples, not histogram buckets.

use crate::stats::quantile;
use gmp_serve::{proto, Prediction};
use gmp_sparse::CsrMatrix;
use gmp_svm::PredictOutcome;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A running `gmp-serve`; killed and reaped on drop if not shut down.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Start the server on an ephemeral port and wait until it reports
    /// listening. Returns the server and the seconds that took.
    pub fn spawn(bin: &Path, model: &Path, threads: usize) -> io::Result<(ServerProc, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", "0", "--compute-backend", "scalar"])
            .args(["--threads", "1", "--workers", &threads.to_string()])
            .arg(model)
            .env("GMP_BACKEND", "scalar")
            .env("GMP_HOST_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take();
        let mut proc = ServerProc {
            child,
            addr: String::new(),
        };
        proc.addr = read_listening(stdout)?;
        Ok((proc, t0.elapsed().as_secs_f64()))
    }

    /// The server's own counters (one JSON line from `STATS`).
    pub fn stats(&self) -> io::Result<String> {
        let mut s = TcpStream::connect(&self.addr)?;
        s.write_all(b"STATS\nQUIT\n")?;
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line)?;
        Ok(line.trim().to_string())
    }

    /// Drain and stop the server; every client connection must be closed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut s = TcpStream::connect(&self.addr)?;
        s.write_all(b"SHUTDOWN\n")?;
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "gmp-serve did not exit after SHUTDOWN",
        ))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_listening(stdout: Option<ChildStdout>) -> io::Result<String> {
    let stdout = stdout.ok_or_else(|| io::Error::other("no stdout pipe"))?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    line.trim()
        .strip_prefix("gmp-serve listening on ")
        .map(str::to_string)
        .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))
}

/// A reply this late has waited out a TCP delayed acknowledgement (about
/// 40 ms on Linux) rather than a queue: `gmp-serve` writes each reply and
/// its newline separately without `TCP_NODELAY`, so the newline can wait
/// for the client's acknowledgement of the first part.
pub const STALL_MS: f64 = 20.0;

/// What the load generator sends and expects.
pub struct Load {
    addr: String,
    /// Request line per test row.
    lines: Vec<String>,
    /// The exact reply the bulk `predict` implies per test row.
    expected: Vec<String>,
    /// Seeded row order requests cycle through.
    order: Vec<usize>,
    conns: usize,
}

impl Load {
    /// Requests for every row of `test` in a `seed`-shuffled order over
    /// `conns` connections; each reply must equal what the bulk predict
    /// `bulk` of `test` formats to under the serving protocol.
    pub fn new(
        addr: &str,
        test: &CsrMatrix,
        bulk: &PredictOutcome,
        seed: u64,
        conns: usize,
    ) -> Self {
        let lines = (0..test.nrows())
            .map(|i| {
                // 1-based indices and shortest round-trip values, so the
                // server parses back the exact bits.
                let r = test.row(i);
                r.indices
                    .iter()
                    .zip(r.values)
                    .map(|(c, v)| format!("{}:{v}", c + 1))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let expected = bulk
            .labels
            .iter()
            .zip(&bulk.probabilities)
            .map(|(&label, p)| {
                proto::format_prediction(&Prediction {
                    label,
                    probabilities: p.clone(),
                })
            })
            .collect();
        Load {
            addr: addr.to_string(),
            lines,
            expected,
            order: seeded_order(test.nrows(), seed),
            conns: conns.max(1),
        }
    }
}

/// A seeded permutation of `0..n` (xorshift Fisher–Yates).
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

/// Outcome of one offered rate.
pub struct Rung {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Due-to-reply latency of every answered request.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time of every sent request.
    pub late_ms: Vec<f64>,
    /// First due time to last reply.
    pub span_s: f64,
}

impl Rung {
    /// Served requests per second over the rung.
    pub fn achieved_rps(&self) -> f64 {
        self.ok as f64 / self.span_s
    }

    /// Share of replies slower than [`STALL_MS`].
    pub fn stalled_share(&self) -> f64 {
        let stalled = self.latency_ms.iter().filter(|&&l| l > STALL_MS).count();
        stalled as f64 / self.latency_ms.len().max(1) as f64
    }

    /// Meets the p99 limit with no failures and a sender that kept to its
    /// schedule (a growing backlog shows as both).
    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        self.failed == 0
            && quantile(&self.latency_ms, 0.99) <= p99_limit_ms
            && quantile(&self.late_ms, 0.99) <= p99_limit_ms
    }
}

struct ConnResult {
    ok: usize,
    failed: usize,
    failures: Vec<String>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    last_reply: Option<Instant>,
}

/// Offer `rate` requests per second for `seconds`, spread over the
/// connections; request `i` overall is row `order[(offset + i) % len]`.
pub fn run_rung(load: &Load, rate: f64, seconds: f64, offset: usize) -> io::Result<Rung> {
    let conns = load.conns;
    let total = ((rate * seconds).round() as usize).max(conns);
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(&load.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.set_write_timeout(Some(Duration::from_secs(10)))?;
            Ok(s)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                // Connection c owns requests c, c + conns, c + 2·conns, …
                let n = (total + conns - 1 - c) / conns;
                scope.spawn(move || run_conn(load, stream, c, n, rate, start, offset))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let mut rung = Rung {
        rate,
        sent: total,
        ok: 0,
        failed: 0,
        failures: Vec::new(),
        latency_ms: Vec::with_capacity(total),
        late_ms: Vec::with_capacity(total),
        span_s: 0.0,
    };
    let mut last = start;
    for r in results {
        rung.ok += r.ok;
        rung.failed += r.failed;
        rung.failures.extend(r.failures);
        rung.latency_ms.extend(r.latency_ms);
        rung.late_ms.extend(r.late_ms);
        last = last.max(r.last_reply.unwrap_or(start));
    }
    rung.failures.truncate(5);
    rung.span_s = (last - start).as_secs_f64();
    Ok(rung)
}

fn run_conn(
    load: &Load,
    stream: TcpStream,
    c: usize,
    n: usize,
    rate: f64,
    start: Instant,
    offset: usize,
) -> ConnResult {
    let conns = load.conns;
    let mut res = ConnResult {
        ok: 0,
        failed: 0,
        failures: Vec::new(),
        latency_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        last_reply: None,
    };
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            res.failed = n;
            res.failures.push(format!("clone stream: {e}"));
            return res;
        }
    };
    let (tx, rx) = mpsc::channel::<(Instant, usize)>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut stream = stream;
            let mut late = Vec::with_capacity(n);
            for i in 0..n {
                let k = i * conns + c;
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let row = load.order[(offset + k) % load.order.len()];
                // Queue the expectation before the request can be answered.
                if tx.send((due, row)).is_err() {
                    break;
                }
                late.push((Instant::now() - due).as_secs_f64() * 1e3);
                let mut line = Vec::with_capacity(load.lines[row].len() + 1);
                line.extend_from_slice(load.lines[row].as_bytes());
                line.push(b'\n');
                if stream.write_all(&line).is_err() {
                    break;
                }
            }
            late
        });
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        for _ in 0..n {
            let Ok((due, row)) = rx.recv() else { break };
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            res.last_reply = Some(now);
            let reply = line.trim_end();
            if reply == load.expected[row] {
                res.ok += 1;
                res.latency_ms.push((now - due).as_secs_f64() * 1e3);
            } else {
                res.failed += 1;
                if res.failures.len() < 5 {
                    res.failures.push(format!(
                        "row {row}: got {reply:?}, bulk predict says {:?}",
                        load.expected[row]
                    ));
                }
            }
        }
        drop(rx);
        res.late_ms = sender.join().expect("load sender thread panicked");
    });
    let answered = res.ok + res.failed;
    if answered < n {
        res.failed += n - answered;
        res.failures
            .push(format!("{} requests got no reply", n - answered));
    }
    res
}
