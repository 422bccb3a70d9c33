"""Structured result records for scans and verification runs.

JSON reports are canonical: keys sorted, fixed separators, elements
ascending, so identical runs produce identical bytes apart from the
wall-time field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import __version__


@dataclass
class CppReport:
    p: int
    n: int
    modulus: tuple
    d: int
    method: str
    count: int
    conditions: dict = field(default_factory=dict)
    elements: list | None = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.elements is not None:
            self.elements = sorted(int(a) for a in self.elements)

    def to_dict(self):
        out = {
            "field": {
                "p": self.p,
                "n": self.n,
                "modulus": list(self.modulus),
                "provenance": "default-lex",
            },
            "d": str(self.d),
            "method": self.method,
            "count": self.count,
            "conditions": dict(sorted(self.conditions.items())),
            "seconds": round(self.seconds, 3),
            "version": __version__,
        }
        if self.elements is not None:
            out["elements"] = self.elements
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self, tags=None) -> str:
        """Flat rows (a, condition-tag); requires a collected element list."""
        if self.elements is None:
            raise ValueError("csv output needs --list (element collection)")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["a", "condition"])
        tags = tags or {}
        for a in self.elements:
            w.writerow([a, tags.get(a, "")])
        return buf.getvalue()

    def write(self, path, tags=None):
        path = str(path)
        check_extension(path)
        data = self.to_csv(tags) if path.endswith(".csv") else self.to_json()
        with open(path, "w") as fh:
            fh.write(data)


def check_extension(path):
    """Reject a report path that names neither a .json nor a .csv file."""
    if not str(path).endswith((".json", ".csv")):
        raise ValueError(f"unknown report extension on {str(path)!r} "
                         "(use .json or .csv)")
