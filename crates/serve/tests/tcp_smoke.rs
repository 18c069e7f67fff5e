//! End-to-end smoke test for the `gmp-serve` binary: train a tiny model,
//! start the server on an ephemeral port, round-trip predictions and
//! STATS over TCP, then ask it to shut down and verify a clean exit.

use gmp_datasets::BlobSpec;
use gmp_svm::{Backend, MpSvmTrainer, SvmParams};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_binary_round_trips_over_tcp() {
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
        std::env::temp_dir().join(format!("gmp_serve_smoke_{}.model", std::process::id()));
    std::fs::write(&model_path, trained.model.to_text()).unwrap();

    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_gmp-serve"))
            .arg("--port")
            .arg("0")
            .arg("--max-batch")
            .arg("8")
            .arg("--max-delay-us")
            .arg("500")
            .arg(&model_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gmp-serve"),
    );

    // The server announces its ephemeral port on stdout.
    let mut stdout = BufReader::new(child.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("gmp-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect to gmp-serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> String {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    // Replay a few training rows; the served label must match offline
    // predict, and probabilities must be well-formed.
    for i in [0usize, 17, 42] {
        let row = data.x.row(i);
        let mut line = String::new();
        for (c, v) in row.indices.iter().zip(row.values.iter()) {
            line.push_str(&format!("{}:{} ", c + 1, v));
        }
        let reply = ask(line.trim());
        let mut parts = reply.split_whitespace();
        let label: u32 = parts.next().unwrap().parse().unwrap();
        assert_eq!(label, offline.labels[i], "row {i}: {reply}");
        let probs: Vec<f64> = parts.map(|p| p.parse().unwrap()).collect();
        assert_eq!(probs.len(), 3, "row {i}: {reply}");
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-3);
    }

    // Malformed input gets an ERR, not a dropped connection.
    let reply = ask("not a row");
    assert!(reply.starts_with("ERR "), "{reply}");
    // So does a non-finite number, label or value alike.
    for bad in ["nan 1:0.5", "1:inf"] {
        let reply = ask(bad);
        assert!(reply.starts_with("ERR "), "{bad}: {reply}");
    }

    // STATS returns one JSON line reflecting the served requests.
    let stats = ask("STATS");
    assert!(stats.starts_with('{') && stats.ends_with('}'), "{stats}");
    assert!(stats.contains("\"served\": 3"), "{stats}");

    // SHUTDOWN drains and exits cleanly.
    let reply = ask("SHUTDOWN");
    assert_eq!(reply, "OK shutting down");
    let status = child.0.wait().unwrap();
    assert!(status.success(), "server exit status: {status}");

    let _ = std::fs::remove_file(&model_path);
}
