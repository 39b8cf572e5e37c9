"""The three workloads: instance files, fixed CLI op lists, and golden checks.

Instances come from two seeds.  The *instance seed* (7 by default, 11 held
out) draws the base point sets with the benchmark's own generator, so the
inputs do not change when the program's generators do.  The *workload seed*
(``--seed``) draws VIEWS exact changes of coordinates, each one of the eight
symmetries of the square followed by an integer translation; an untraced
run cycles its passes through these views.  Tolerance and the set of
removals that break a partition are affine invariants, so every view has
the same pinned answers.  The work is nearly the same too (the simplex's
pivot path and the depth search's pruning order depend on coordinates,
within a few percent); cycling through several views per run averages that
out, so the spread between seeds measures the machine, not the instance.
The held-out instance seed checks that the op list is not tuned to one
point set.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

RADIUS = 1000
DEFAULT_INSTANCES = 7
HELDOUT_INSTANCES = 11
GOLDEN = Path(__file__).with_name("golden.json")

WORKLOADS = ("search_r2_n68", "verify_lifted_r3", "verify_exhaustive")
VIEWS = 8

# Partitions the exhaustive workload certifies.  Each is the first one the
# seeded search finds on the untransformed instance; pin.py runs these
# searches and stores the labels in golden.json.
EXHAUSTIVE_SEARCHES = {
    "part16.json": ["ball16.json", "--r", "2", "--t", "3", "--seed", "0"],
    "part20.json": ["ball20.json", "--r", "3", "--t", "2", "--seed", "0"],
    "rainbow10.json": ["classes10.json", "--mode", "colored", "--t", "3", "--seed", "0"],
    "reay18.json": ["ball18.json", "--mode", "reay", "--r", "3", "--k", "2", "--t", "2",
                    "--seed", "0"],
}


def _rng(instances: int, name: str) -> random.Random:
    return random.Random(f"{instances}:{name}")


def disc_points(n: int, instances: int, name: str) -> list[tuple[int, int]]:
    """n integer points uniform in the disc of radius RADIUS."""
    rng = _rng(instances, name)
    out: list[tuple[int, int]] = []
    while len(out) < n:
        x, y = rng.randint(-RADIUS, RADIUS), rng.randint(-RADIUS, RADIUS)
        if x * x + y * y <= RADIUS * RADIUS:
            out.append((x, y))
    return out


def balanced_labels(n: int, r: int, instances: int, name: str) -> list[int]:
    """A uniformly random partition of n points into r parts of equal size."""
    order = list(range(n))
    _rng(instances, name).shuffle(order)
    labels = [0] * n
    for pos, i in enumerate(order):
        labels[i] = pos % r + 1
    return labels


def rainbow_labels(classes: int, r: int, instances: int, name: str) -> list[int]:
    """Each class of r consecutive points sent onto the r parts at random."""
    rng = _rng(instances, name)
    labels: list[int] = []
    for _ in range(classes):
        perm = list(range(1, r + 1))
        rng.shuffle(perm)
        labels.extend(perm)
    return labels


def coordinate_change(seed: int, view: int):
    """The exact affine map of one view of the workload seed."""
    rng = random.Random(f"{seed}:{view}")
    sym = rng.randrange(8)
    tx, ty = rng.randint(-64, 64), rng.randint(-64, 64)

    def apply(p: tuple[int, int]) -> tuple[int, int]:
        x, y = p
        if sym & 1:
            x, y = y, x
        if sym & 2:
            x = -x
        if sym & 4:
            y = -y
        return x + tx, y + ty

    return apply


def _points_file(points, colors=None) -> dict:
    out: dict = {"dimension": 2, "points": [[str(x), str(y)] for x, y in points]}
    if colors is not None:
        out["colors"] = colors
    return out


def _classes_file(classes: int, r: int, instances: int, name: str) -> dict:
    pts = disc_points(classes * r, instances, name)
    colors = [c for c in range(1, classes + 1) for _ in range(r)]
    return {"points": pts, "colors": colors}


def instance_files(workload: str, instances: int, partitions: dict) -> dict:
    """File name -> content before the change of coordinates.

    Point files are {"points": [...], optional "colors"}; partition files are
    in the CLI's partition format.  ``partitions`` holds the pinned labels
    of the exhaustive workload.
    """
    if workload == "search_r2_n68":
        return {"ball68.json": {"points": disc_points(68, instances, "ball68")}}
    if workload == "verify_lifted_r3":
        files: dict = {
            "ball18.json": {"points": disc_points(18, instances, "lifted18")},
            "classes6.json": _classes_file(6, 3, instances, "classes6"),
            "rainbow6.json": {"r": 3, "labels": rainbow_labels(6, 3, instances, "rainbow6")},
        }
        for i in range(3):
            files[f"part18_{i}.json"] = {
                "r": 3, "labels": balanced_labels(18, 3, instances, f"part18_{i}")
            }
        return files
    if workload == "verify_exhaustive":
        files = {
            "ball16.json": {"points": disc_points(16, instances, "ball16")},
            "ball20.json": {"points": disc_points(20, instances, "ball20")},
            "classes10.json": _classes_file(10, 2, instances, "classes10"),
            "ball18.json": {"points": disc_points(18, instances, "reay18")},
        }
        files.update(partitions)
        return files
    raise ValueError(f"unknown workload {workload!r}")


def op_list(workload: str) -> list[list[str]]:
    """The fixed CLI calls of one pass; file arguments are bare names."""
    if workload == "search_r2_n68":
        return [["partition", "ball68.json", "--r", "2", "--t", "23", "--seed", str(s)]
                for s in range(6)]
    if workload == "verify_lifted_r3":
        ops = [["verify", "ball18.json", f"part18_{i}.json", "--method", "lifted"]
               for i in range(3)]
        ops.append(["verify", "classes6.json", "rainbow6.json", "--mode", "colored",
                    "--method", "lifted"])
        return ops
    if workload == "verify_exhaustive":
        return [
            ["verify", "ball16.json", "part16.json", "--method", "exhaustive"],
            ["verify", "ball20.json", "part20.json", "--method", "exhaustive"],
            ["verify", "classes10.json", "rainbow10.json", "--mode", "colored",
             "--method", "exhaustive"],
            ["verify", "ball18.json", "reay18.json", "--mode", "reay", "--k", "2",
             "--method", "exhaustive"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_instances(workload: str, instances: int, move, workdir: Path,
                    partitions: dict) -> None:
    """Write the workload's files with every point p replaced by move(p)."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, content in instance_files(workload, instances, partitions).items():
        if "points" in content:
            content = _points_file([move(p) for p in content["points"]],
                                   content.get("colors"))
        (workdir / name).write_text(json.dumps(content) + "\n")


def resolve(argv: list[str], workdir: Path) -> list[str]:
    return [str(workdir / a) if a.endswith(".json") else a for a in argv]


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def essence(report: dict) -> dict:
    """The pinned part of a CLI report: tolerance, unit, witness removal, and
    the partition labels for a search."""
    if "partition" in report:
        return {"labels": report["partition"]["labels"], **essence(report["report"])}
    if "tuples" in report:
        return {
            "tolerance": report["tolerance"],
            "tuples": [{"parts": t["parts"], **essence(t)} for t in report["tuples"]],
        }
    return {k: report[k] for k in ("tolerance", "unit", "witness_removal")}


def load_golden(instances: int) -> dict:
    data = json.loads(GOLDEN.read_text())
    return data[str(instances)]


def check(code, stdout: str, pin: dict) -> str | None:
    """None when the op matches its pin, else the reason it does not."""
    if code != pin["exit"]:
        return f"exit {code}, pinned {pin['exit']}"
    try:
        got = essence(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got != pin["report"]:
        return f"report {got} differs from pin {pin['report']}"
    return None
