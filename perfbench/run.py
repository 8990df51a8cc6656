#!/usr/bin/env python3
"""Build WedgeChain's node binaries and the benchmark, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under the build directory
(.bench_build, or $CARGO_TARGET_DIR when set): the Go build cache, the
binaries, node logs, spans and the per-run result record. The last line
of standard output is the run's JSON result; the exit code is 0 only when
every correctness check passed.
"""

import argparse
import os
import signal
import subprocess
import sys

# The benchmark itself exits well inside this; the margin covers a hang.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "read_verify", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "wedge-cloud"))
            and os.path.isdir(os.path.join(root, "cmd", "wedge-edge"))):
        print("perfbench: run from the root of a WedgeChain checkout", file=sys.stderr)
        return 2

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    bin_dir = os.path.join(build, "bin")
    tmp_dir = os.path.join(build, "tmp")
    os.makedirs(bin_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp_dir,
        "TMPDIR": tmp_dir,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    builds = [
        (root, ["go", "build", "-o", os.path.join(bin_dir, "wedge-cloud"), "./cmd/wedge-cloud"]),
        (root, ["go", "build", "-o", os.path.join(bin_dir, "wedge-edge"), "./cmd/wedge-edge"]),
        (bench_dir, ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", bin_dir, "--out", os.path.join(build, "out")]
    # Own process group, so one signal stops the bench and every node it
    # started: on a timeout, and when this script is itself stopped.
    p = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)

    def stop(*_):
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGTERM)
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; stopping it", file=sys.stderr)
        stop()
        return 1
    finally:
        stop()


if __name__ == "__main__":
    sys.exit(main())
