#!/usr/bin/env python3
"""Build the nodeshare benchmark from source and run one workload.

    python3 nsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The nsbench binary is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); its
last stdout line is the result JSON. Build output and diagnostics go to
stderr. Extra flags (--jobs, --expect-digest) pass through to the binary.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary stops after --seconds plus a few runs; this only
# guards against a hung child.
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("nsbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "nsbench")
    work_dir = os.path.join(ROOT, ".bench_work")
    cmd = [binary, *sys.argv[1:], "--work-dir", work_dir]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"nsbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(work_dir)
        except OSError:
            pass
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
