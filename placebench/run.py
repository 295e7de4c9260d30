#!/usr/bin/env python3
"""End-to-end placement benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 placebench/run.py --workload bulk-greedy|ilp-5k|sim-trace \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary from this checkout's sources (CMake, into
$CARGO_TARGET_DIR/placebench, default .bench_build/placebench), runs the
workload, and passes the binary's report through. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero, without a result line, if the build or the run fails; exits
1 with a result line whose "correct" is false if an output check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk-greedy", "ilp-5k", "sim-trace")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"[placebench] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "placebench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources at {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        *generator], check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--target", "placebench", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "placebench")


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the library and benchmark sources (path + content), so a
    result can be tied to its code even in a checkout that is not a git
    repository."""
    digest = hashlib.sha256()
    for top in ("src", "placebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build(build_dir())
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        log(f"no result line (exit code {run.returncode})")
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
