"""Outside-in tracer: wraps the public functions of each tverberg layer.

Nothing inside ``src/`` is instrumented.  ``from module import name`` copies
the binding into the importing module, so every module of the package that
holds the original function object gets the wrapper, not only the module
that defines it (``tverberg.verify.hulls_intersect``,
``tverberg.depth.kernel_vector``, ``tverberg.engine.tolerance_by_lifted_depth``
and so on).

Each wrapped call records one span: name, start, end, parent span and an
integer outcome taken from the return value at the boundary (candidate
directions for depth, 1 for a hull query that found no common point, 1 for
a search that found a partition).  Spans stay in flat arrays in memory and
are written out once, after the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# (layer, module, public functions) — the layer boundaries that are traced.
LAYERS = (
    ("cli", "tverberg.cli", ("main",)),
    ("geometry", "tverberg.geometry", ("load_config",)),
    ("engine", "tverberg.engine", (
        "certified_partition", "certified_colored_partition", "certified_reay_partition",
    )),
    ("verify", "tverberg.verify", (
        "tolerance_by_lifted_depth", "tolerance_exhaustive", "colored_tolerance", "reay_tolerance",
    )),
    ("lift", "tverberg.lift", ("lift_partition", "recover_common_point")),
    ("depth", "tverberg.depth", ("depth", "block_depth")),
    ("lp", "tverberg.lp", ("hulls_intersect", "origin_in_hull")),
    ("linalg", "tverberg.linalg", ("kernel_vector", "row_basis")),
)


# Aggregates per span name; child_of_* count spans whose parent is in that
# layer, outcome_under_verify sums the outcomes of those under verify.
EMPTY_ROW = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outcome": 0,
             "child_of_verify": 0, "child_of_engine": 0, "outcome_under_verify": 0}


def _outcome(span_name: str, result) -> int:
    if span_name in ("depth.depth", "depth.block_depth"):
        return result.candidate_count
    if span_name == "lp.hulls_intersect":
        return int(result is None)
    if span_name.startswith("engine."):
        return int(result is not None)
    return 0


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        sid = len(self.names)
        self.names.append(span_name)
        name_id, parent, start, end, outcome = (
            self.name_id, self.parent, self.start, self.end, self.outcome
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            outcome.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            outcome[idx] = _outcome(span_name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function across the package."""
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tverberg" or n.startswith("tverberg."))]
        for layer, module_name, functions in LAYERS:
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One tab-separated line per span; parent is a span index or -1."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\toutcome\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.outcome[i]}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name, the fields of EMPTY_ROW.

        Self time is a span's duration minus the time its child spans cover;
        children nest strictly inside their parent, so that is the sum of
        the children's durations.
        """
        n = len(self.name_id)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            row = out.setdefault(name, dict(EMPTY_ROW))
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[i]) / 1e9
            row["outcome"] += self.outcome[i]
            p = self.parent[i]
            if p >= 0:
                parent_name = self.names[self.name_id[p]]
                if parent_name.startswith("verify."):
                    row["child_of_verify"] += 1
                    row["outcome_under_verify"] += self.outcome[i]
                row["child_of_engine"] += parent_name.startswith("engine.")
        return out
