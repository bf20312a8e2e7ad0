#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles
perfbench/ (which builds the Betty libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. The benchmark's output is passed through, and
its last line is the result JSON. Exits nonzero without a result when
the build fails, the run fails or times out, or the last line is not a
well-formed result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("products_k16", "products_plan", "products_k16_cache4dev")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S, env=env,
                  stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    binary = build()
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        sys.exit(f"perfbench: no result line (exit code {code})")
    # A failed correctness gate still prints its result, with
    # "correct": false, and keeps the nonzero exit code.
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
