#!/usr/bin/env python3
"""Receiver-journey benchmark entry point.

    python3 journeybench/run.py --workload release|catchup|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `journey` runner and the
libraries it drives from this checkout's sources (CMake + Ninja, into
.bench_build/journeybench), runs one workload and passes its output
through: a run header, every metric by name with its unit, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the run is the traced one: per-layer metrics, and the
spans go to .bench_build/journeybench/traces/.

Exits non-zero without a result line when the sources are missing, the
build fails or the runner fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "journeybench"
BUILD_DIR = ROOT / ".bench_build" / "journeybench"


def fail(msg):
    print(f"journeybench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "journey", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "journey"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none(not-a-git-checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the path and bytes of every file the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "journeybench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["release", "catchup", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace == "1":
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    # The measured window, plus set-up, the traced run's probes and the
    # overrun of a last catch-up pass.
    timeout_s = args.seconds + 120
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {timeout_s:g} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"runner exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(r.stdout)
        fail("runner printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
