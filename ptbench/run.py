#!/usr/bin/env python3
"""Builds and runs the pTest benchmark.

Usage, from the root of a checkout:

    python3 ptbench/run.py --workload <fig1_learn|pipeline_explore|race_shrink>
                           --seed <n> --seconds <s> --trace <0|1>

Builds the `ptbench` package from source (offline, release profile) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, prints a host
fingerprint as one JSON line, then runs the benchmark. The benchmark's
last line is the result object. Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig1_learn", "pipeline_explore", "race_shrink")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 120:
        parser.error("--seed must be non-negative and --seconds in 0..=120")
    return args


def command_output(cmd):
    """First line of a command's output, or None when it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip().splitlines()[0] if out.stdout.strip() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so a result
    names its code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "vendor", "ptbench")]
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames
                         if f.endswith((".rs", ".toml", ".lock", ".py")))
    for path in sorted(files):
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        digest.update(data)
    return digest.hexdigest()


def git_revision():
    """HEAD of the checkout, or None when the checkout is no git
    repository of its own."""
    top = command_output(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main():
    args = parse_args()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ptbench")
    build_id = file_digest(binary)[:16]

    host = {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "rustc": command_output(["rustc", "-V"]),
            "cpu": cpu_model(),
            "git_rev": git_revision(),
            "source_digest": source_digest(),
            "build_id": build_id,
            "workload": args.workload,
            "seed": args.seed,
            "trace": int(args.trace),
        }
    }
    print(json.dumps(host), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--record-dir", os.path.join(target, "ptbench-records"), "--build-id", build_id]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                             check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        # Whatever the run printed, its last line must not pass for a
        # result.
        sys.stdout.write(run.stdout)
        print(f"run.py: benchmark exited with {run.returncode}")
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
