#!/usr/bin/env python3
"""Build the pathalias daemon and the benchmark harness, then run one workload.

Usage, from the root of a pathalias checkout:

    python3 perfbench/run.py --workload <query-mix|path-mix|reload-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); the harness's inputs and spans go under `.bench_work`.
Build output goes to standard error, so the last line of standard output
is the harness's JSON result. Exits non-zero, without a result, when the
checkout does not hold the program's sources or any step fails.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        print(
            "perfbench: run from the root of a pathalias checkout "
            "(Cargo.toml and crates/cli not found here)",
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "pathalias-cli"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode or 1
    harness = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "pathalias")
    sys.stdout.flush()
    done = subprocess.run(
        [harness, "--bin", daemon, "--work", ".bench_work"] + sys.argv[1:], env=env
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
