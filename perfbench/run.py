#!/usr/bin/env python3
"""Build mcsim and the perfbench binary from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lock-64p --seed 1 --seconds 20 --trace 0

Builds into $CARGO_TARGET_DIR (default: .bench_build), runs
`perfbench run` with the same arguments, and relays its output: the last
line of standard output is the result JSON. Exits non-zero, without a
result, if the sources are missing or a build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("lock-64p", "chase-400", "serve-e6")


def parse(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"run.py: unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            sys.exit(f"run.py: {flag} needs a value")
        opts[flag] = value
    if opts["--workload"] not in WORKLOADS:
        sys.exit(f"run.py: --workload must be one of {', '.join(WORKLOADS)}")
    if opts["--trace"] not in ("0", "1"):
        sys.exit("run.py: --trace must be 0 or 1")
    return opts


def build(args):
    """Runs one offline release build; its output goes to stderr."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        stdout=sys.stderr,
        timeout=850,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py: cargo build {' '.join(args)} failed")


def main():
    opts = parse(sys.argv[1:])
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} not found; run from the repository root")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["--bin", "mcsim"])
    build(["--manifest-path", "perfbench/Cargo.toml"])
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(release, "perfbench"), "run"]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, opts[flag]]
    cmd += ["--mcsim", os.path.join(release, "mcsim"), "--work", work]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, timeout=175).returncode)


if __name__ == "__main__":
    main()
