#!/usr/bin/env python3
"""Builds the rbt-cli daemon and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve-bulk|federate> \
        --seed <n> --seconds <s> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr; the benchmark's report and, as the last line, its JSON result go to
stdout. The exit code is the benchmark's: 0 only if every answer was correct.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print(f"perfbench: no Cargo.toml in {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    builds = [
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", "Cargo.toml", "--bin", "rbt-cli",
        ],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "rbt-perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(release, "rbt-cli"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
