#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <paper|manyflow|aqm|faults|all> \\
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

The benchmark is the Rust package next to this file. It is built from source
(offline, release profile) into $CARGO_TARGET_DIR, or `.bench_build/` at the
checkout root when that is unset. Each workload runs in its own process; the
last line it prints is the JSON result. With --out, each result is also
appended to FILE as one JSON line together with its seed, nproc, shard count
and commit. Nothing else is written.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper", "manyflow", "aqm", "faults"]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append each result, with its context, to this file")
    args = ap.parse_args()

    missing = [p for p in ("crates", "scenarios/golden") if not (ROOT / p).is_dir()]
    if missing:
        print(f"run.py: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    manifest = HERE / "Cargo.toml"
    build = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(build, cwd=ROOT, env=env).returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    exe = (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"

    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [
            str(exe),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--root", str(ROOT),
            "--commit", commit(),
        ]
        if args.out:
            cmd += ["--out", args.out]
        sys.stdout.flush()
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        status = status or code
    return status


if __name__ == "__main__":
    # subprocess.run kills and reaps its child when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
