#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 rmdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds two things from source with
cargo, offline, into $CARGO_TARGET_DIR (default .bench_build): the
benchmark itself (a Cargo workspace of its own under rmdbench/) and the
`rmd` binary that the serve_socket workload starts as a daemon. Build
output goes to standard error; standard output ends with the benchmark's
one-line JSON result. The exit code is the benchmark's: 0 when every
output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["reduce_machines", "schedule_suite", "stress_batches", "serve_socket"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, cwd):
    r = subprocess.run(["cargo", *args], cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {r.returncode}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    for need in ("Cargo.toml", "Cargo.lock", "crates", "machines", "certs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing next to rmdbench/; run from a checkout of the whole repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    os.environ["CARGO_TARGET_DIR"] = target
    cargo(["build", "--release", "--offline", "--locked", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], ROOT)
    cargo(["build", "--release", "--offline", "--locked", "--quiet", "-p", "rmd-cli", "--bin", "rmd"], ROOT)

    cmd = [os.path.join(target, "release", "rmdbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--rmd", os.path.join(target, "release", "rmd")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
