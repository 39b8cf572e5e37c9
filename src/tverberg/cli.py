"""Command-line front end.

Subcommands: ``bound`` (closed-form guarantees), ``gen`` (synthetic
instances), ``partition`` (seeded search for a certified partition),
``verify`` (tolerance of a given partition), ``depth`` (half-space
depth certificate), ``plot`` (SVG for dimension 2).

Every report embeds a run manifest (command, input digest, seed,
parameters, tool version, timestamp).  Timestamps honor
SOURCE_DATE_EPOCH so archived runs can be reproduced byte for byte.

Exit codes: 0 success, 2 invalid input, 3 budget exceeded, 4 no
certified partition (``engine.unreachable`` says when none can exist).
Commands check their options; every rule on the data is the library's.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from . import __version__, gen
from .bounds import (
    carath_depth_bound,
    carath_guaranteed_depth,
    carath_slack,
    colored_slack,
    colored_tolerance_from_n,
    eps_slack,
    n_for_probability,
    plain_slack,
    reay_slack,
    reay_tolerance_from_m,
    tolerance_from_n,
)
from .depth import block_depth, depth
from .engine import (
    DEFAULT_TRIALS,
    certified_colored_partition,
    certified_partition,
    certified_reay_partition,
    unreachable,
)
from .geometry import config_to_json, json_fields, load_config, load_json
from .linalg import as_vector, int_from_json, parse_in_short
from .partition import Partition
from .plot import render_svg
from .verify import (
    DEFAULT_BUDGET,
    EXHAUSTIVE,
    LIFTED,
    BudgetExceeded,
    check_budget,
    colored_tolerance,
    reay_tolerance,
    tolerance_by_lifted_depth,
    tolerance_exhaustive,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_ABSENT = 4

_METHODS = {"lifted": LIFTED, "exhaustive": EXHAUSTIVE}


def _timestamp() -> str:
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is not None:
        try:
            epoch = int(raw)
        except ValueError as exc:
            raise ValueError("SOURCE_DATE_EPOCH must be an integer") from exc
    else:
        epoch = int(datetime.now(tz=timezone.utc).timestamp())
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def _inputs_digest(paths: Sequence[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        data = Path(p).read_bytes()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def _manifest(
    command: str,
    input_paths: Sequence[str],
    seed: Optional[int],
    parameters: dict,
) -> dict:
    return {
        "command": command,
        "inputs_digest": _inputs_digest(input_paths),
        "seed": seed,
        "parameters": parameters,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _emit(obj: dict, path: Optional[str] = None) -> None:
    """Write obj as sorted, indented JSON to path, or to stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The manifest parameters: each named option that was given."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def cmd_bound(args: argparse.Namespace) -> int:
    record: dict
    if args.formula == "plain":
        _require(args.n is not None, "plain needs --n")
        record = {
            "tolerance": tolerance_from_n(args.n, args.d, args.r),
            "lambda": plain_slack(args.n, args.d, args.r),
        }
    elif args.formula == "colored":
        _require(args.n is not None, "colored needs --n (number of classes)")
        record = {
            "tolerance": colored_tolerance_from_n(args.n, args.d, args.r),
            "lambda": colored_slack(args.n, args.d, args.r),
        }
    elif args.formula == "reay":
        _require(args.n is not None, "reay needs --n")
        _require(args.k is not None, "reay needs --k")
        record = {
            "tolerance": reay_tolerance_from_m(args.n, args.d, args.r, args.k),
            "lambda": reay_slack(args.n, args.d, args.r, args.k),
        }
    elif args.formula == "epsilon":
        _require(args.t is not None, "epsilon needs --t")
        _require(args.eps is not None, "epsilon needs --eps")
        n = n_for_probability(args.t, args.d, args.r, args.eps)
        record = {"n": n, "lambda": eps_slack(n, args.d, args.r, args.eps)}
    else:  # carath
        _require(args.n is not None, "carath needs --n")
        record = {
            "depth_bound": carath_depth_bound(args.n, args.d, args.r),
            "guaranteed_depth": carath_guaranteed_depth(args.n, args.d, args.r),
            "lambda": carath_slack(args.n, args.d, args.r),
        }
    record["formula"] = args.formula
    params = _given(args, "n", "d", "r", "k", "t", "eps")
    record["manifest"] = _manifest("bound", [], None, params)
    _emit(record)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "line":
        _require(args.n is not None, "line needs --n")
        cfg = gen.line_points(args.n)
    elif args.kind == "grid":
        _require(args.side is not None, "grid needs --side")
        cfg = gen.grid_points(args.side, args.dim)
    elif args.kind == "uniform-ball":
        _require(args.n is not None, "uniform-ball needs --n")
        cfg = gen.uniform_ball(args.n, args.dim, args.radius, args.seed)
    else:  # colored-classes
        _require(args.classes is not None, "colored-classes needs --classes")
        _require(args.r is not None, "colored-classes needs --r")
        cfg = gen.colored_classes(args.classes, args.r, args.dim, args.radius, args.seed)
    _emit(config_to_json(cfg), args.out or None)
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    _require(args.k is None or args.mode == "reay", "--k applies to reay mode only")
    cfg = load_config(args.input)
    r = cfg.class_size() if args.mode == "colored" else args.r
    _require(r is not None, f"{args.mode} mode needs --r")
    _require(args.r in (None, r), f"--r does not match the class size {r}")
    if args.mode == "plain":
        found = certified_partition(cfg, r, args.t, args.seed, args.max_trials)
    elif args.mode == "colored":
        found = certified_colored_partition(cfg, args.t, args.seed, args.max_trials)
    else:  # reay
        _require(args.k is not None, "reay mode needs --k")
        found = certified_reay_partition(
            cfg, r, args.k, args.t, args.seed, args.max_trials
        )

    if found is None:
        absent = f"no certified partition within {args.max_trials} trials"
        sys.stderr.write((unreachable(cfg, args.t, r) or absent) + "\n")
        return EXIT_ABSENT

    p, report = found
    params = {"t_target": args.t, **_given(args, "mode", "max_trials", "r", "k")}
    manifest = _manifest("partition", [args.input], args.seed, params)
    if args.out_partition:
        _emit({**p.to_json(), "manifest": manifest}, args.out_partition)
    if args.out_report:
        _emit({**report.to_json(), "manifest": manifest}, args.out_report)
    _emit({"partition": p.to_json(), "report": report.to_json(), "manifest": manifest})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    _require(
        args.t_cap is None or (args.mode != "reay" and method == EXHAUSTIVE),
        "--t-cap applies to the exhaustive method in plain or colored mode only",
    )
    _require(
        args.budget is None or method == EXHAUSTIVE,
        "--budget applies to the exhaustive method only",
    )
    check_budget(args.budget, "--budget")
    _require(args.k is None or args.mode == "reay", "--k applies to reay mode only")
    cfg = load_config(args.input)
    p = Partition.from_json(load_json(args.partition))
    if args.mode == "plain":
        if method == LIFTED:
            report = tolerance_by_lifted_depth(cfg, p)
        else:
            report = tolerance_exhaustive(cfg, p, t_cap=args.t_cap, budget=args.budget)
    elif args.mode == "colored":
        report = colored_tolerance(
            cfg, p, method=method, t_cap=args.t_cap, budget=args.budget
        )
    else:  # reay
        _require(args.k is not None, "reay mode needs --k")
        report = reay_tolerance(cfg, p, args.k, method=method, budget=args.budget)
    params = _given(args, "mode", "method", "k", "t_cap", "budget")
    manifest = _manifest("verify", [args.input, args.partition], None, params)
    _emit({**report.to_json(), "manifest": manifest})
    return EXIT_OK


def cmd_depth(args: argparse.Namespace) -> int:
    cfg = load_config(args.input)
    raw = args.center
    center = (0,) * cfg.dim if raw is None else as_vector(raw.split(","))
    if args.blocks is None:
        cert = depth(cfg, center)
    else:
        blocks = [
            [parse_in_short(int, x) for x in chunk.split(",") if x.strip() != ""]
            for chunk in args.blocks.split(";")
        ]
        cert = block_depth(cfg, blocks, center)
    manifest = _manifest("depth", [args.input], None, _given(args, "center", "blocks"))
    _emit({**cert.to_json(), "manifest": manifest})
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = load_config(args.input)
    partition = None
    if args.partition:
        partition = Partition.from_json(load_json(args.partition))
    removal: Optional[List[int]] = None
    if args.report:
        report = load_json(args.report)
        json_fields(report, "report")  # an object; every field of it is optional
        witness = report.get("witness_removal")
        if witness is not None:
            _require(
                isinstance(witness, list),
                "malformed report JSON: witness_removal must be a list",
            )
            units = [
                int_from_json(i, "malformed report JSON: a witness_removal entry")
                for i in witness
            ]
            if report.get("unit") == "classes":
                _require(cfg.colors is not None, "class removal needs a colored input")
                wanted = set(units)
                removal = [i for i, c in enumerate(cfg.colors) if c in wanted]
            else:
                removal = units
    svg = render_svg(cfg, partition=partition, removal=removal)
    if args.out:
        Path(args.out).write_text(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _option(parse: Callable[[str], Any], text: str) -> Any:
    """The type of each numeric option: parse(text), refused in short."""
    try:
        return parse_in_short(parse, text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_int = functools.partial(_option, int)
_float = functools.partial(_option, float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser; built on first use and shared, since parsing
    leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="tverberg",
        description="Tolerant Tverberg partitions: bounds, search, certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate a closed-form guarantee")
    b.add_argument(
        "formula", choices=["plain", "colored", "reay", "epsilon", "carath"]
    )
    b.add_argument("--n", type=_int, help="points (classes for colored)")
    b.add_argument("--d", type=_int, required=True, help="dimension")
    b.add_argument("--r", type=_int, required=True, help="number of parts")
    b.add_argument("--k", type=_int, help="tuple size (reay)")
    b.add_argument("--t", type=_int, help="target tolerance (epsilon)")
    b.add_argument("--eps", type=_float, help="failure probability (epsilon)")
    b.set_defaults(func=cmd_bound)

    g = sub.add_parser("gen", help="generate a synthetic configuration")
    g.add_argument(
        "kind", choices=["uniform-ball", "grid", "line", "colored-classes"]
    )
    g.add_argument("--n", type=_int, help="point count")
    g.add_argument("--dim", type=_int, default=2)
    g.add_argument("--radius", type=_int, default=1000)
    g.add_argument("--side", type=_int, help="grid side length")
    g.add_argument("--classes", type=_int, help="number of color classes")
    g.add_argument("--r", type=_int, help="points per class")
    g.add_argument("--seed", type=_int, default=0)
    g.add_argument("--out", help="output file (default: stdout)")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("partition", help="search for a certified partition")
    p.add_argument("input", help="configuration file (.json or .csv)")
    p.add_argument("--mode", choices=["plain", "colored", "reay"], default="plain")
    p.add_argument("--r", type=_int, help="number of parts")
    p.add_argument("--k", type=_int, help="tuple size (reay mode)")
    p.add_argument("--t", type=_int, required=True, help="target tolerance")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--max-trials", type=_int, default=DEFAULT_TRIALS)
    p.add_argument("--out-partition", help="write the partition JSON here")
    p.add_argument("--out-report", help="write the report JSON here")
    p.set_defaults(func=cmd_partition)

    v = sub.add_parser("verify", help="tolerance of a given partition")
    v.add_argument("input", help="configuration file")
    v.add_argument("partition", help="partition JSON file")
    v.add_argument("--mode", choices=["plain", "colored", "reay"], default="plain")
    v.add_argument("--method", choices=["lifted", "exhaustive"], default="lifted")
    v.add_argument("--k", type=_int, help="tuple size (reay mode)")
    v.add_argument("--t-cap", type=_int, help="cap the exhaustive scan")
    v.add_argument(
        "--budget",
        type=_int,
        help=f"removal sets an exhaustive scan may walk (default {DEFAULT_BUDGET})",
    )
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("depth", help="half-space depth certificate")
    d.add_argument("input", help="configuration file")
    d.add_argument("--center", help="comma-separated coordinates (default: origin)")
    d.add_argument(
        "--blocks",
        help="semicolon-separated index groups, e.g. '0,1;2,3' (block depth)",
    )
    d.set_defaults(func=cmd_depth)

    pl = sub.add_parser("plot", help="SVG plot (dimension 2 only)")
    pl.add_argument("input", help="configuration file")
    pl.add_argument("--partition", help="partition JSON file")
    pl.add_argument("--report", help="report JSON file (highlights its witness)")
    pl.add_argument("--out", help="output file (default: stdout)")
    pl.set_defaults(func=cmd_plot)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
