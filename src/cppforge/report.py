"""Structured result records for scans and verification runs.

JSON reports are canonical: keys sorted, fixed separators, elements
ascending, so identical runs produce identical bytes apart from the
wall-time field.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
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
        """json.dumps(self.to_dict(), sort_keys=True, indent=2) + newline,
        byte for byte.  An indented dump runs the pure-Python encoder,
        about 1 us an element, so the elements list (ints, one a line)
        is rendered here and each other top-level value is dumped alone
        and indented one level."""
        d = self.to_dict()
        rows = []
        for key in sorted(d):
            if key == "elements":
                text = ("[\n    " + ",\n    ".join(map(str, d[key])) + "\n  ]"
                        if d[key] else "[]")
            else:
                # string values hold no raw newline: json escapes it
                text = json.dumps(d[key], sort_keys=True,
                                  indent=2).replace("\n", "\n  ")
            rows.append(f"  {json.dumps(key)}: {text}")
        return "{\n" + ",\n".join(rows) + "\n}\n"

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
        path = check_report_path(path)
        data = self.to_csv(tags) if path.endswith(".csv") else self.to_json()
        try:
            with open(path, "w") as fh:
                fh.write(data)
        except OSError as exc:
            raise ValueError(f"report-unwritable: {path!r}: {exc.strerror}") from None


def check_report_path(path):
    """str(path), refused unless it names a .json or .csv file in a
    directory that takes a new file (tried with an anonymous one)."""
    path = str(path)
    if not path.endswith((".json", ".csv")):
        raise ValueError(f"unknown report extension on {path!r} "
                         "(use .json or .csv)")
    try:
        tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as exc:
        raise ValueError(f"report-unwritable: {path!r}: {exc.strerror}") from None
    return path
