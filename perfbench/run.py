#!/usr/bin/env python3
"""Build maxrank-serve and the perfbench binary from source, then run perfbench.

Run from the repository root:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 2015          # every workload in turn

Every argument is passed to perfbench (see perfbench/BENCHMARK.md).  Both
binaries land in $CARGO_TARGET_DIR/release (default: .bench_build), so the
server and the benchmark always come from the same build.  The last line of
standard output is perfbench's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "maxrank-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's own output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"),
               "--server-bin", os.path.join(release, "maxrank-serve")]
    return subprocess.run(command + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
