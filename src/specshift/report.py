"""Structured verification records, the relative verdict rule, and every
output writer: CSV tables and strict JSON."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "VerificationReport",
    "CSV_COLUMNS",
    "write_table",
    "write_json",
    "write_csv",
    "write_reports_json",
]

CSV_COLUMNS = (
    "seed",
    "dim",
    "kind",
    "degree",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "residual",
    "verdict",
)


def _num(x: float) -> str:
    # fixed shortest-roundtrip formatting keeps campaign CSVs byte-stable
    return format(float(x), ".17g")


@dataclass
class VerificationReport:
    """One verified identity: both sides, residual, tolerance and verdict."""

    kind: str
    lhs: complex
    rhs: complex
    residual: float
    tol: float
    passed: bool
    dim: int = 0
    degree: int = 0
    seed: int | None = None
    runtime: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def judge(
        cls, kind: str, lhs, rhs, tol: float, start: float, also: bool = True, **fields
    ) -> "VerificationReport":
        """Report of a trace identity lhs = rhs: it passes when
        |lhs - rhs| <= tol (1 + |lhs|) and ``also`` holds; the runtime
        counts from the ``time.perf_counter()`` reading ``start``."""
        residual = abs(lhs - rhs)
        passed = residual <= tol * (1.0 + abs(lhs)) and also
        runtime = time.perf_counter() - start
        return cls(kind, lhs, rhs, residual, tol, passed, runtime=runtime, **fields)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def csv_row(self) -> list[str]:
        return [
            "" if self.seed is None else str(self.seed),
            str(self.dim),
            self.kind,
            str(self.degree),
            _num(self.lhs.real),
            _num(self.lhs.imag),
            _num(self.rhs.real),
            _num(self.rhs.imag),
            _num(self.residual),
            self.verdict,
        ]

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON data; a non-finite number becomes None (JSON null)."""

        def enc(v):
            if isinstance(v, complex):
                return {"re": enc(v.real), "im": enc(v.imag)}
            if isinstance(v, float):
                return v if math.isfinite(v) else None
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v

        return {
            "kind": self.kind,
            "seed": self.seed,
            "dim": self.dim,
            "degree": self.degree,
            "lhs": enc(complex(self.lhs)),
            "rhs": enc(complex(self.rhs)),
            "residual": enc(self.residual),
            "tol": enc(self.tol),
            "verdict": self.verdict,
            "runtime": enc(self.runtime),
            "extras": {k: enc(v) for k, v in self.extras.items()},
        }


def write_table(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """CSV with a header line; a cell that is not a string is a number, written
    to 17 significant digits, so tables are byte-stable."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([x if isinstance(x, str) else _num(x) for x in row] for row in rows)


def write_json(path, data) -> None:
    """Strict JSON (a non-finite number raises), indent 1, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, reports: Iterable[VerificationReport]) -> None:
    write_table(path, CSV_COLUMNS, (rep.csv_row() for rep in reports))


def write_reports_json(path, reports: Iterable[VerificationReport]) -> None:
    write_json(path, [rep.to_dict() for rep in reports])
