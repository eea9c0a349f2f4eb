#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <hot_read|cold_analytics|durable_writes> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release `provmin` binary and the
benchmark package (into $CARGO_TARGET_DIR, default `target`), records the
run's provenance, then runs the benchmark binary. Its standard output ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Per-run files (inputs, server log, spans, result.json) go to
perfbench/out/<workload>-seed<n>/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("hot_read", "cold_analytics", "durable_writes")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, cwd):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} failed with exit code {done.returncode}", 1)


def capture(cmd, cwd):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result can be
    traced to its code even in a checkout without git metadata."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src",
             "perfbench/Cargo.toml", "perfbench/run.py"]
    files = []
    for entry in roots:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "out"))
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def provenance(args):
    return {
        "git_sha": capture(["git", "rev-parse", "HEAD"], ROOT) or "unknown",
        "source_sha256": source_digest(),
        "rustc": capture(["rustc", "--version"], ROOT) or "unknown",
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/server", "src/bin/provmin.rs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "-p", "provmin",
               "--bin", "provmin"], ROOT)
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
               os.path.join(HERE, "Cargo.toml")], ROOT)

    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out, exist_ok=True)
    prov_file = os.path.join(out, "run_provenance.json")
    with open(prov_file, "w") as f:
        json.dump(provenance(args), f, indent=2)

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--provmin", os.path.join(target, "release", "provmin"),
           "--out", out, "--provenance", prov_file]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
