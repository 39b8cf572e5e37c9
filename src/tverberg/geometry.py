"""Point configurations in rational d-space.

The JSON form keeps every coordinate as a "num/den" string so that files
round-trip exactly.  CSV input accepts either "p/q" entries or exact decimal
strings such as "1.25"; a trailing integer column carries color class ids
when the other columns are not all integers (``load_csv`` detects it).
"""

from __future__ import annotations

import csv
import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .linalg import Vector, as_vector, int_from_json, scalar_from_str, scalar_to_str


@dataclass(frozen=True)
class PointConfig:
    """A finite list of points in R^dim, optionally tagged with color ids."""

    dim: int
    points: tuple[Vector, ...]
    colors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(
                    f"point {reprlib.repr(p)} has {len(p)} coordinates, "
                    f"expected {reprlib.repr(self.dim)}"
                )
        if self.colors is not None and len(self.colors) != len(self.points):
            raise ValueError("colors must align one-to-one with points")

    def color_classes(self) -> dict[int, list[int]]:
        """Point indices grouped by color id, in index order."""
        if self.colors is None:
            raise ValueError("configuration has no colors")
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(self.colors):
            classes.setdefault(c, []).append(i)
        return classes

    def class_size(self) -> int:
        """The size every color class shares; ValueError when sizes differ."""
        sizes = {len(members) for members in self.color_classes().values()}
        if len(sizes) != 1:
            raise ValueError("color classes must all have the same size")
        return sizes.pop()


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : <normal, x> >= offset}."""

    normal: Vector
    offset: Fraction

    def __post_init__(self) -> None:
        if all(a == 0 for a in self.normal):
            raise ValueError("half-space normal must be nonzero")

    def to_json(self) -> dict:
        return {
            "normal": [scalar_to_str(x) for x in self.normal],
            "offset": scalar_to_str(self.offset),
        }


def make_config(
    points: Iterable[Iterable[int | str | Fraction]],
    colors: Sequence[int] | None = None,
) -> PointConfig:
    pts = tuple(as_vector(p) for p in points)
    if not pts:
        raise ValueError("a configuration needs at least one point")
    return PointConfig(
        dim=len(pts[0]),
        points=pts,
        colors=tuple(colors) if colors is not None else None,
    )


def config_to_json(cfg: PointConfig) -> dict:
    out: dict = {
        "dimension": cfg.dim,
        "points": [[scalar_to_str(x) for x in p] for p in cfg.points],
    }
    if cfg.colors is not None:
        out["colors"] = list(cfg.colors)
    return out


def json_fields(data: object, what: str, *names: str) -> list:
    """The named fields of a JSON object holding a ``what`` (as
    "configuration"); any other value, or a missing field, is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed {what} JSON: expected an object")
    try:
        return [data[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


def config_from_json(data: object) -> PointConfig:
    raw_dim, raw_points = json_fields(data, "configuration", "dimension", "points")
    dim = int_from_json(raw_dim, "malformed configuration JSON: dimension")
    if not isinstance(raw_points, list) or not all(
        isinstance(row, list) for row in raw_points
    ):
        raise ValueError("malformed configuration JSON: points must be a list of lists")
    if not raw_points:
        raise ValueError("malformed configuration JSON: no points")
    points = tuple(tuple(scalar_from_str(x) for x in row) for row in raw_points)
    colors = data.get("colors")
    if colors is not None:
        if not isinstance(colors, list):
            raise ValueError("malformed configuration JSON: colors must be a list")
        colors = tuple(
            int_from_json(c, "malformed configuration JSON: a color") for c in colors
        )
    return PointConfig(dim=dim, points=points, colors=colors)


def load_config(path: str | Path) -> PointConfig:
    """Load a configuration from .json or .csv (see module docstring)."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return load_csv(p)
    return config_from_json(load_json(p))


def load_json(path: str | Path) -> object:
    """Parse a JSON file; nesting too deep for the parser is a ValueError."""
    try:  # integers are read as scalars, so the digit limit is worded once
        text = Path(path).read_text()
        return json.loads(text, parse_int=lambda s: scalar_from_str(s).numerator)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to read") from exc


def load_csv(path: str | Path) -> PointConfig:
    """Read one point per row, with an auto-detected color column.

    The last column holds color ids exactly when the rows have at least two
    columns, the final entry of every row is a bare integer, and some other
    entry is not; otherwise every column is a coordinate.
    """
    rows: list[list[str]] = []
    with open(path, newline="") as fh:
        try:
            for rec in csv.reader(fh):
                cells = [c.strip() for c in rec if c.strip() != ""]
                if cells:
                    rows.append(cells)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent widths")

    def is_bare_int(s: str) -> bool:
        return s.lstrip("+-").isdigit()

    last_all_int = all(is_bare_int(r[-1]) for r in rows)
    others_not_all_int = any(not all(is_bare_int(c) for c in r[:-1]) for r in rows)
    if last_all_int and others_not_all_int:
        points = [[scalar_from_str(c) for c in r[:-1]] for r in rows]
        colors = [scalar_from_str(r[-1]).numerator for r in rows]
        return make_config(points, colors)
    points = [[scalar_from_str(c) for c in r] for r in rows]
    return make_config(points)
