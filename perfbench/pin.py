"""Pin the golden reports the benchmark checks every op against.

Run from the repository root at the commit whose answers are pinned:

    python3 perfbench/pin.py

For each instance seed (default and held-out) this finds the exhaustive
workload's partitions with the seeded search, runs every op of every
workload on the untransformed instances, and records exit code, tolerance,
unit and witness removal (plus labels for a search).  Each exhaustive op's
tolerance must equal the lifted route's answer on the same partition, or
nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tverberg import cli  # noqa: E402


def _identity(p):
    return p


def _ok(code: int, stdout: str, stderr: str, argv) -> dict:
    if code != 0:
        raise SystemExit(f"{argv} exited {code}: {stderr}")
    return json.loads(stdout)


def _tolerances(report: dict) -> list[int]:
    """Overall tolerance, then each part tuple's for a k-of-r report."""
    return [report["tolerance"]] + [t["tolerance"] for t in report.get("tuples", [])]


def pin_instances(instances: int, workdir: Path) -> dict:
    wl.write_instances("verify_exhaustive", instances, _identity, workdir, {})
    partitions = {}
    for name, args in wl.EXHAUSTIVE_SEARCHES.items():
        argv = wl.resolve(["partition", *args], workdir)
        partitions[name] = _ok(*wl.call(cli, argv), argv)["partition"]
    ops = {}
    for workload in wl.WORKLOADS:
        wl.write_instances(workload, instances, _identity, workdir, partitions)
        pins = []
        for argv in wl.op_list(workload):
            t0 = time.perf_counter()
            code, out, err = wl.call(cli, wl.resolve(argv, workdir))
            elapsed = time.perf_counter() - t0
            report = _ok(code, out, err, argv)
            if "exhaustive" in argv:
                lifted = [a if a != "exhaustive" else "lifted" for a in argv]
                cross = _ok(*wl.call(cli, wl.resolve(lifted, workdir)), lifted)
                if _tolerances(cross) != _tolerances(report):
                    raise SystemExit(f"{argv}: exhaustive and lifted routes disagree")
            pinned = wl.essence(report)
            pins.append({"argv": argv, "exit": code, "report": pinned})
            print(f"{instances} {workload} {' '.join(argv)}: tolerance "
                  f"{pinned['tolerance']} in {elapsed:.2f} s", flush=True)
        ops[workload] = pins
    return {"partitions": partitions, "ops": ops}


def main() -> None:
    workdir = ROOT / ".bench_out" / "pin"
    try:
        golden = {
            str(seed): pin_instances(seed, workdir)
            for seed in (wl.DEFAULT_INSTANCES, wl.HELDOUT_INSTANCES)
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
