#!/usr/bin/env python3
"""GMP-SVM benchmark: one workload session, run from the repository root.

    python3 perfbench/run.py --workload mnist-k10 --seed 3 --seconds 40 --trace 0

Builds `gmp-serve` and the `perfbench` binary from source (release, into
$CARGO_TARGET_DIR, default `.bench_build`), pins the environment
(GMP_BACKEND=scalar, GMP_HOST_THREADS=nproc, GMP_BENCH_SCALE=1) instead of
inheriting it, runs the session, and applies the reference gate: the
counters of a canary run at the reference seed must equal the values in
`perfbench/workloads.json`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics and writes a Chrome trace file under `.bench_out/`.
The last stdout line is the result object; the lines before it are a
readable summary with the host block, sample counts and high percentiles.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "gmp-serve", "--bin", "gmp-serve"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}", 1)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)


def run_session(cmd, env):
    """Run the session in its own process group, so that it and any server
    it started are gone when this returns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)

    def on_term(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail(f"session exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"session exited with {proc.returncode}", 1)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("session printed nothing", 1)
    return json.loads(lines[-1])


def reference_gate(result, reference):
    """Compare the canary's counters with the committed reference; every
    mismatching group is one failed operation."""
    attempted, failures = 0, []
    canary = result["canary"]
    for key in ("train_counters", "predict_kernel_evals", "store"):
        if key not in canary:
            continue
        attempted += 1
        if canary[key] != reference.get(key):
            failures.append(f"reference {key}: got {canary[key]}, committed {reference.get(key)}")
    if canary.get("seed") != reference.get("seed"):
        attempted += 1
        failures.append("canary ran at a seed other than the reference seed")
    return attempted, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve" / "Cargo.toml").is_file():
        fail(f"{ROOT} is not a GMP-SVM source checkout (no Cargo.toml or crates/serve)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    w = config["workloads"].get(args.workload)
    if w is None:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(config['workloads'])})")
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    threads = host_threads()
    env = dict(os.environ)
    env.update(GMP_BACKEND="scalar", GMP_HOST_THREADS=str(threads), GMP_BENCH_SCALE="1")
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    started = time.monotonic()
    build(env)
    build_s = time.monotonic() - started

    build_info = dict(
        nproc=threads,
        rustc=command_output(["rustc", "--version"]),
        git_rev=command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        source_digest=source_digest(),
        env={k: env[k] for k in ("GMP_BACKEND", "GMP_HOST_THREADS", "GMP_BENCH_SCALE")},
        build_s=round(build_s, 3),
    )
    out_dir = ROOT / ".bench_out"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--dataset", w["dataset"],
        "--scale", str(w["scale"]),
        "--seed", str(args.seed),
        "--ref-seed", str(w["reference"]["seed"]),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--threads", str(threads),
        "--rates", ",".join(str(r) for r in w["rates"]),
        "--nominal", str(w["nominal"]),
        "--p99-limit-ms", str(config["p99_limit_ms"]),
        "--serve-bin", str(target / "release" / "gmp-serve"),
        "--out-dir", str(out_dir),
        "--build-info", json.dumps(build_info),
    ]
    result = run_session(cmd, env)

    ops = result["ops"]
    attempted, failed = ops["attempted"], ops["failed"]
    failures = list(ops["failures"])
    ref_attempted, ref_failures = reference_gate(result, w["reference"])
    attempted += ref_attempted
    failed += len(ref_failures)
    failures += ref_failures

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["value"] is None or got["unit"] != spec["unit"]:
            failed += 1
            attempted += 1
            failures.append(f"metric {spec['name']} missing, non-finite or in the wrong unit: {got}")
            metrics[spec["name"]] = {"value": 0.0, "unit": spec["unit"]}
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}

    print("host " + json.dumps(result["host"], sort_keys=True))
    for name, got in result["metrics"].items():
        line = f"{name} = {got['value']} {got['unit']}"
        if got["samples"] > 1:
            line += f"  (median of {got['samples']}"
            if "high" in got:
                line += f"; p{100 * got['high_q']:.1f} = {got['high']}"
            line += ")"
        print(line)
    if "trace_file" in result:
        print(f"trace file: {result['trace_file']}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
