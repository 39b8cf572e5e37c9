"""Run one benchmark workload of the tverberg CLI and print its metrics.

    python3 perfbench/run.py --workload search_r2_n68 --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout of the repository and imports the package
from its ``src/``.  Set-up (import, instance generation, file writes) is
repeated a few times and its median reported.  The workload's fixed list of
in-process ``tverberg.cli.main`` calls then runs in passes until the next
pass would overrun ``--seconds``; pass p runs on view p mod VIEWS of the
seed's coordinate changes (see ``workloads.py``).  Every call's report is
checked against its pin in ``golden.json`` after the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, all on view 0, and prints the per-layer metrics, taken from
spans the tracer records around each layer's public functions; the spans
are written under ``.bench_out/``.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

``--instances`` selects the base point sets (7 by default, 11 held out);
``check.py`` uses it for the held-out run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import EMPTY_ROW, Tracer  # noqa: E402


def setup(workload: str, instances: int, seed: int, workdir: Path, partitions: dict):
    """Import the package afresh and write every view's instance files;
    (seconds, cli)."""
    t0 = perf_counter()
    for name in [n for n in sys.modules if n == "tverberg" or n.startswith("tverberg.")]:
        del sys.modules[name]
    cli = importlib.import_module("tverberg.cli")
    for view in range(wl.VIEWS):
        wl.write_instances(workload, instances, wl.coordinate_change(seed, view),
                           workdir / f"view{view}", partitions)
    return perf_counter() - t0, cli


def run_pass(cli, ops: list[list[str]]) -> tuple[float, list[tuple]]:
    """One pass over the op list: wall seconds and (seconds, exit, stdout, stderr)."""
    results = []
    start = perf_counter()
    for argv in ops:
        t0 = perf_counter()
        try:
            code, out, err = wl.call(cli, argv)
        except Exception:  # a crash is a failed op, reported after the run
            code, out, err = "raised", "", traceback.format_exc()
        results.append((perf_counter() - t0, code, out, err))
    return perf_counter() - start, results


def _layer_sum(summary: dict, prefix: str, key: str) -> float:
    return sum((row[key] for name, row in summary.items() if name.startswith(prefix)),
               EMPTY_ROW[key])


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; counts and ratios are exact."""
    def row(name: str) -> dict:
        return summary.get(name, EMPTY_ROW)

    candidates = _layer_sum(summary, "depth.", "outcome")
    hulls = row("lp.hulls_intersect")
    removal_sets = hulls["child_of_verify"]
    trials = _layer_sum(summary, "verify.", "child_of_engine")
    m = {
        "depth.calls": (_layer_sum(summary, "depth.", "calls"), "count"),
        "depth.self_s": (_layer_sum(summary, "depth.", "self_s"), "s"),
        "depth.candidates": (candidates, "count"),
        "depth.us_per_candidate": (
            _layer_sum(summary, "depth.", "total_s") * 1e6 / candidates if candidates else 0.0,
            "us"),
    }
    for name in ("linalg.kernel_vector", "linalg.row_basis", "lp.hulls_intersect",
                 "lp.origin_in_hull"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    m["lp.hulls_intersect.ms_per_call"] = (
        hulls["total_s"] * 1e3 / hulls["calls"] if hulls["calls"] else 0.0, "ms")
    m["verify.self_s"] = (_layer_sum(summary, "verify.", "self_s"), "s")
    m["verify.removal_sets"] = (removal_sets, "count")
    m["verify.break_ratio"] = (
        hulls["outcome_under_verify"] / removal_sets if removal_sets else 0.0, "ratio")
    m["engine.searches"] = (_layer_sum(summary, "engine.", "calls"), "count")
    m["engine.trials"] = (trials, "count")
    m["engine.hit_ratio"] = (
        _layer_sum(summary, "engine.", "outcome") / trials if trials else 0.0, "ratio")
    m["lift.calls"] = (_layer_sum(summary, "lift.", "calls"), "count")
    m["lift.self_s"] = (_layer_sum(summary, "lift.", "self_s"), "s")
    m["cli.self_s"] = (row("cli.main")["self_s"], "s")
    m["geometry.load_config.s"] = (row("geometry.load_config")["total_s"], "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=wl.DEFAULT_INSTANCES,
                    choices=(wl.DEFAULT_INSTANCES, wl.HELDOUT_INSTANCES))
    args = ap.parse_args()

    if not (SRC / "tverberg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    golden = wl.load_golden(args.instances)
    pins = golden["ops"][args.workload]
    op_names = wl.op_list(args.workload)
    if [p["argv"] for p in pins] != op_names:
        sys.stderr.write("error: golden.json does not match the op list; re-run pin.py\n")
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-instances{args.instances}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli = setup(args.workload, args.instances, args.seed, workdir,
                                 golden["partitions"])
            setups.append(seconds)
        if not Path(sys.modules["tverberg"].__file__).resolve().is_relative_to(SRC):
            sys.stderr.write("error: imported tverberg from outside the checkout\n")
            return 2
        # A traced run stays on view 0 so that its counters repeat exactly.
        views = [[wl.resolve(argv, workdir / f"view{v}") for argv in op_names]
                 for v in range(1 if args.trace else wl.VIEWS)]

        walls = {False: [], True: []}
        results = []
        tracers = []
        deadline = perf_counter() + args.seconds
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            try:
                wall, pass_results = run_pass(cli, views[i % len(views)])
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls[traced].append(wall)
            results.extend(pass_results)
            if tracer is not None:
                tracers.append(tracer)
            i += 1
            enough = i >= (2 if args.trace else 1)
            if enough and perf_counter() + max(walls[False] + walls[True]) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for k, (_, code, out, err) in enumerate(results):
        reason = wl.check(code, out, pins[k % len(pins)])
        if reason is not None:
            failures.append(f"op {k % len(pins)} ({' '.join(op_names[k % len(pins)])}): "
                            f"{reason} {err.strip()}")
    attempted, failed = len(results), len(failures)
    correct = failed == 0
    for line in failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")

    print(f"workload {args.workload}, seed {args.seed}, instances {args.instances}: "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes "
          f"of {len(op_names)} ops")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    metrics: dict[str, dict] = {}
    if args.trace:
        per_pass = [layer_metrics(t.summary()) for t in tracers]
        for name, (value, unit) in per_pass[0].items():
            values = [p[name][0] for p in per_pass]
            if unit in ("count", "ratio"):
                if len(set(values)) != 1:
                    correct = False
                    sys.stderr.write(f"FAILED {name} differs between traced passes: {values}\n")
                metrics[name] = {"value": value, "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unit": "s",
        }
        OUT.mkdir(exist_ok=True)
        for k, tracer in enumerate(tracers):
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-pass{k}.tsv")
        samples = f"median of {len(tracers)} traced passes"
    else:
        op_times = [statistics.median(r[0] for r in results[j::len(op_names)])
                    for j in range(len(op_names))]
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        samples = (f"wall_s over {len(walls[False])} passes, op_p50_s over the "
                   f"{len(op_times)} ops' medians, setup_s over {len(setups)} set-ups; "
                   f"pass walls {[round(w, 3) for w in walls[False]]}")
    print(f"samples: {samples}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
