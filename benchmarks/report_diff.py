#!/usr/bin/env python3
"""Compare two ``cartanlab verify`` reports record by record.

Records are matched on (check id, structure tag, point index).  The diff
lists records present in only one report, records whose pass/fail flipped,
and the largest |residual change| / tolerance over matched records.  Two
reports give "the same results" when nothing was added, dropped or
flipped and that drift stays within ``DRIFT_LIMIT``.

Usage::

    python3 benchmarks/report_diff.py OLD.json NEW.json

Either file may be gzipped (``.gz``) and may be a full report or the
compact form :func:`compact` writes.  Exit status 0 when the reports agree,
1 when they differ.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import sys
from dataclasses import dataclass, field

# residuals may move by this share of their tolerance (roundoff, reordered
# arithmetic); a planted defect moves them by far more
DRIFT_LIMIT = 1e-3


def load(path) -> dict:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def compact(report: dict) -> dict:
    """The fields report matching needs, one short row per record."""
    return {
        "records": [
            [r["check_id"], r["structure"], r["point"]["index"], r["residual"], r["tolerance"], r["pass"]]
            for r in report["checks"]
        ]
    }


def records(doc: dict) -> dict:
    """(check id, structure, point index) -> (residual, tolerance, pass)."""
    if "records" in doc:
        rows = doc["records"]
    else:
        rows = compact(doc)["records"]
    return {(cid, tag, idx): (res, tol, ok) for cid, tag, idx, res, tol, ok in rows}


@dataclass
class Diff:
    added: list = field(default_factory=list)
    dropped: list = field(default_factory=list)
    flipped: list = field(default_factory=list)
    worst_drift: float = 0.0
    worst_key: tuple = None

    def clean(self, drift_limit: float = DRIFT_LIMIT) -> bool:
        return (
            not self.added
            and not self.dropped
            and not self.flipped
            and self.worst_drift <= drift_limit
        )

    def lines(self) -> list:
        out = [
            f"added: {len(self.added)}",
            f"dropped: {len(self.dropped)}",
            f"flipped: {len(self.flipped)}",
            f"max |dresidual|/tolerance: {self.worst_drift:.3e}"
            + (f" at {'|'.join(map(str, self.worst_key))}" if self.worst_key else ""),
        ]
        for label, keys in (("+", self.added), ("-", self.dropped), ("!", self.flipped)):
            out.extend(f"  {label} {'|'.join(map(str, key))}" for key in keys[:20])
        return out


def _drift(old, new) -> float:
    (r0, tol0, _), (r1, tol1, _) = old, new
    if r0 is None or r1 is None:
        return 0.0 if r0 is None and r1 is None else math.inf
    return abs(r1 - r0) / max(tol0, tol1)


def diff(old: dict, new: dict) -> Diff:
    a, b = records(old), records(new)
    out = Diff()
    out.added = sorted(set(b) - set(a))
    out.dropped = sorted(set(a) - set(b))
    for key in sorted(set(a) & set(b)):
        if a[key][2] != b[key][2]:
            out.flipped.append(key)
        d = _drift(a[key], b[key])
        if d > out.worst_drift:
            out.worst_drift, out.worst_key = d, key
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    d = diff(load(args.old), load(args.new))
    print("\n".join(d.lines()))
    return 0 if d.clean() else 1


if __name__ == "__main__":
    sys.exit(main())
