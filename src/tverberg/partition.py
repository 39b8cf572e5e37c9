"""Labeled partitions of point indices into r parts (ids 1..r)."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

from .geometry import PointConfig, json_fields
from .linalg import int_from_json


@dataclass(frozen=True)
class Partition:
    """Assignment of each point index to a part id in 1..r.

    Parts may be empty; downstream certification treats an empty part as
    breaking the partition, but the type itself stays permissive so that
    exhaustive sweeps can enumerate every labeling.
    """

    r: int
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("a partition needs at least one part")
        bad = [l for l in self.labels if not 1 <= l <= self.r]
        if bad:
            raise ValueError(f"labels {reprlib.repr(bad)} fall outside 1..{self.r}")

    def check(self, cfg: PointConfig, lift: bool = False) -> None:
        """Raise ValueError unless the labels match cfg's points one to one
        and, with ``lift``, there are the two parts the lift needs."""
        if len(self.labels) != len(cfg.points):
            raise ValueError("partition labels a different number of points")
        if lift and self.r < 2:
            raise ValueError("need at least two parts")

    def parts(self) -> list[list[int]]:
        """Index sets per part, position j holding part id j+1."""
        out: list[list[int]] = [[] for _ in range(self.r)]
        for i, l in enumerate(self.labels):
            out[l - 1].append(i)
        return out

    def to_json(self) -> dict:
        return {"r": self.r, "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: object) -> "Partition":
        raw_r, raw_labels = json_fields(data, "partition", "r", "labels")
        if not isinstance(raw_labels, list):
            raise ValueError("malformed partition JSON: labels must be a list")
        r = int_from_json(raw_r, "malformed partition JSON: r")
        if r > len(raw_labels):
            # r parts lift to r - 1 companion vectors of length r - 1.
            raise ValueError(
                f"malformed partition JSON: r = {reprlib.repr(r)} exceeds the number "
                "of labels"
            )
        labels = tuple(
            int_from_json(x, "malformed partition JSON: a label") for x in raw_labels
        )
        return cls(r=r, labels=labels)
