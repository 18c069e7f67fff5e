//! End-to-end smoke tests for the `gmp-serve` binary: train a tiny model,
//! start the server on an ephemeral port, round-trip predictions and
//! STATS over TCP, check that sequential round trips do not stall and
//! that an over-long line is refused, then ask it to shut down and
//! verify a clean exit.

use gmp_datasets::{BlobSpec, Dataset};
use gmp_serve::proto::MAX_LINE_BYTES;
use gmp_svm::{Backend, MpSvmTrainer, PredictOutcome, SvmParams};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `gmp-serve` child; killed on drop, model file removed.
struct ServerProc {
    child: Child,
    addr: String,
    model_path: PathBuf,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.model_path);
    }
}

/// Train a 3-class blob model, save it under `name`, and serve it.
fn start_server(name: &str) -> (ServerProc, Dataset, PredictOutcome) {
    let data = BlobSpec {
        n: 90,
        dim: 3,
        classes: 3,
        spread: 0.2,
        seed: 5,
    }
    .generate();
    let trained = MpSvmTrainer::new(
        SvmParams::default().with_c(2.0).with_rbf(1.0),
        Backend::gmp_default(),
    )
    .train(&data)
    .unwrap();
    let offline = trained
        .model
        .predict(&data.x, &Backend::gmp_default())
        .unwrap();

    let model_path =
        std::env::temp_dir().join(format!("gmp_serve_{name}_{}.model", std::process::id()));
    std::fs::write(&model_path, trained.model.to_text()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_gmp-serve"))
        .arg("--port")
        .arg("0")
        .arg("--max-batch")
        .arg("8")
        .arg(&model_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gmp-serve");

    // The server announces its ephemeral port on stdout.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut proc = ServerProc {
        child,
        addr: String::new(),
        model_path,
    };
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    proc.addr = banner
        .trim()
        .strip_prefix("gmp-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    (proc, data, offline)
}

/// One client connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to gmp-serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // The client sends each request in one write without Nagle, so any
        // stall a test sees is the server's.
        stream.set_nodelay(true).unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Send one request line and wait for its reply line.
    fn ask(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

/// Row `i` of `data` as a request line (1-based LibSVM indices).
fn request_line(data: &Dataset, i: usize) -> String {
    let row = data.x.row(i);
    let tokens: Vec<String> = row
        .indices
        .iter()
        .zip(row.values.iter())
        .map(|(c, v)| format!("{}:{}", c + 1, v))
        .collect();
    tokens.join(" ")
}

/// Ask the server to drain and exit, and check that it exits cleanly.
fn shut_down(mut server: ServerProc, client: &mut Client) {
    let reply = client.ask("SHUTDOWN");
    assert_eq!(reply, "OK shutting down");
    let status = server.child.wait().unwrap();
    assert!(status.success(), "server exit status: {status}");
}

#[test]
fn serve_binary_round_trips_over_tcp() {
    let (server, data, offline) = start_server("smoke");
    let mut client = Client::connect(&server.addr);

    // Replay a few training rows; the served label must match offline
    // predict, and probabilities must be well-formed.
    for i in [0usize, 17, 42] {
        let reply = client.ask(&request_line(&data, i));
        let mut parts = reply.split_whitespace();
        let label: u32 = parts.next().unwrap().parse().unwrap();
        assert_eq!(label, offline.labels[i], "row {i}: {reply}");
        let probs: Vec<f64> = parts.map(|p| p.parse().unwrap()).collect();
        assert_eq!(probs.len(), 3, "row {i}: {reply}");
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-3);
    }

    // Malformed input gets an ERR, not a dropped connection.
    let reply = client.ask("not a row");
    assert!(reply.starts_with("ERR "), "{reply}");
    // So does a non-finite number, label or value alike.
    for bad in ["nan 1:0.5", "1:inf"] {
        let reply = client.ask(bad);
        assert!(reply.starts_with("ERR "), "{bad}: {reply}");
    }

    // STATS returns one JSON line reflecting the served requests.
    let stats = client.ask("STATS");
    assert!(stats.starts_with('{') && stats.ends_with('}'), "{stats}");
    assert!(stats.contains("\"served\": 3"), "{stats}");

    shut_down(server, &mut client);
}

/// A client that waits for each reply before sending the next request
/// must not wait out a delayed acknowledgement (about 40 ms on Linux) per
/// round trip: 50 sequential round trips take milliseconds when every
/// reply leaves in one unbuffered write.
#[test]
fn sequential_round_trips_do_not_stall() {
    let (server, data, offline) = start_server("sequential");
    let mut client = Client::connect(&server.addr);
    // Warm up the connection and the worker before timing.
    client.ask(&request_line(&data, 0));

    let start = Instant::now();
    for k in 0..50usize {
        let i = k % data.n();
        let reply = client.ask(&request_line(&data, i));
        let label: u32 = reply.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(label, offline.labels[i], "row {i}: {reply}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential round trips took {elapsed:?}"
    );

    shut_down(server, &mut client);
}

/// A line longer than the protocol's cap is refused and its connection
/// closed; the server keeps serving fresh connections.
#[test]
fn over_long_line_is_refused_and_server_keeps_serving() {
    let (server, data, offline) = start_server("long_line");

    // One byte past the cap with no newline yet: the server has read all
    // it will ever buffer of this line and must refuse it now. (Sending
    // no more than it reads keeps the close a clean FIN, not a reset.)
    let mut long = Client::connect(&server.addr);
    long.writer
        .write_all(&vec![b'1'; MAX_LINE_BYTES + 1])
        .unwrap();
    let mut reply = String::new();
    long.reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "ERR request line too long\n");
    let mut rest = Vec::new();
    long.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after the refusal");

    let mut fresh = Client::connect(&server.addr);
    let reply = fresh.ask(&request_line(&data, 17));
    let label: u32 = reply.split_whitespace().next().unwrap().parse().unwrap();
    assert_eq!(label, offline.labels[17], "{reply}");

    shut_down(server, &mut fresh);
}
