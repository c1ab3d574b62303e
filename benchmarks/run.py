"""firmopt benchmark: two workloads, each a closed loop with one caller.

    python3 benchmarks/run.py --workload {pipeline,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a firmopt checkout: the program is imported from
./src.  The timed loop runs in a worker process (worker.py); its outputs
are then checked here against independent computations (checks.py).
With --trace 0 the last line of stdout carries the end-to-end metrics,
with --trace 1 the per-layer ones, as one JSON object with the keys
correct, attempted, failed and metrics.  Run outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from proc import run_child

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 8
WORKER_TIMEOUT_S = 150


def unit_of(name: str) -> str:
    """Metric units follow from the name's suffix."""
    for suffix, unit in (
        ("calls_per_op", "calls/op"), ("_per_s", "1/s"), ("_mb", "MB"),
        ("us", "us"), ("ms", "ms"), ("s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("pipeline", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "firmopt" / "__init__.py").is_file():
        print("benchmark: ./src/firmopt not found; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    worker = [sys.executable, str(HERE / "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out"]

    def child(mode: str, *extra: str, timeout: float) -> float:
        cmd = [*worker, mode, *common, *extra]
        code, _, _, seconds = run_child(cmd, timeout, env=env)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        return seconds

    setup_dir = str(out / "setup")
    try:
        child("setup", setup_dir, timeout=60)  # compiles the bytecode caches; not counted
        # set-ups before and after the timed loop meet different host phases
        halves = 0 if args.trace else SETUP_REPEATS // 2
        setup_s = [child("setup", setup_dir, timeout=60) for _ in range(halves)]
        child("run", str(out), "--seconds", str(args.seconds), "--trace", str(args.trace),
              timeout=WORKER_TIMEOUT_S)
        setup_s += [child("setup", setup_dir, timeout=60) for _ in range(halves)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    sys.path.insert(0, str(src))
    import checks

    failures = checks.check(args.workload, args.seed, result["records"], result["search_records"])
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} ops in {result['rounds']} rounds, {result['failed']} failed, "
        f"{result['ops_per_s']:.4g} ops/s, {len(failures)} check failures",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
