#!/usr/bin/env python3
"""Runs one comptx benchmark workload and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds comptx_serve and the load generator from the sources in this checkout
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs the workload against
comptx_serve child processes, and prints context lines followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones.  Exit 0 when a result was printed (correct may still be false);
non-zero, with no result, when the build or the run itself failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_base():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build():
    """Configures (once) and builds the benchmark package; returns the
    build directory.  Raises RuntimeError with the log tail on failure."""
    base = build_base()
    if not base.is_absolute():
        base = ROOT / base
    out = base / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", str(out), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                raise RuntimeError(f"build failed: {' '.join(step)}\n{tail}")
    return out


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"))
    files.append(ROOT / "tools" / "comptx_serve.cc")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when it is not itself a repository."""
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace, flip_session=None):
    """Builds if needed, runs the load generator, and returns (context lines,
    result dict).  Raises RuntimeError when no valid result was produced."""
    out = build()
    work = build_base()
    if not work.is_absolute():
        work = ROOT / work
    work = work / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(out / "perfbench_load"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve", str(out / "comptx_serve"),
           "--work-dir", str(work)]
    if flip_session is not None:
        cmd += ["--flip-session", str(flip_session)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"run timed out after {RUN_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench_load exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].pop(metric["name"], None)
        if got is None or got["unit"] != metric["unit"]:
            raise RuntimeError(
                f"metric {metric['name']} missing or in the wrong unit")
        metrics[metric["name"]] = got
    context = lines[:-1]
    if result["metrics"]:
        # Figures measured beyond BENCHMARK.json's list.
        context.append("more metrics: " + json.dumps(result["metrics"]))
    result["metrics"] = metrics
    details = {line.split(": ", 1)[0]: line.split(": ", 1)[1]
               for line in context if ": " in line}
    envelope = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
        "kernel": platform.release(), "data_dir_fs": details.get("data_dir_fs"),
        "fsync": "always", "server_cmdline": details.get("server"),
    }
    context.append("envelope: " + json.dumps(envelope, sort_keys=True))
    return context, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-session", type=int, default=None,
                        help=argparse.SUPPRESS)  # smoke test: force a mismatch
    args = parser.parse_args()
    try:
        context, result = run(args.workload, args.seed, args.seconds, args.trace,
                              args.flip_session)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in context:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
