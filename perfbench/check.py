"""Determinism and held-out checks for the benchmark.

    python3 perfbench/check.py [--seconds 10]

For each workload, one process at a time:

1. two traced runs with the default workload seed must report identical
   counters (every per-layer count and ratio) and pass every op;
2. one run on the held-out instance seed must run the same op list with
   every op passing.

Exits 1 and names the workload when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1


def run(workload: str, seconds: float, trace: int, instances: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", str(seconds),
           "--trace", str(trace), "--instances", str(instances)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counters(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    ok = True
    for workload in wl.WORKLOADS:
        first = run(workload, args.seconds, 1, wl.DEFAULT_INSTANCES)
        second = run(workload, args.seconds, 1, wl.DEFAULT_INSTANCES)
        heldout = run(workload, args.seconds, 0, wl.HELDOUT_INSTANCES)
        problems = []
        if counters(first) != counters(second):
            problems.append(f"counters differ: {counters(first)} vs {counters(second)}")
        for label, result in (("traced", first), ("traced", second), ("held-out", heldout)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{label} run failed {result['failed']} of "
                                f"{result['attempted']} ops")
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else '; '.join(problems)}")
        print(f"  counters: {json.dumps(counters(first), sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
