"""Check records and deterministic report serialization.

Every verification routine in the package returns one or more CheckRecords.
Reports serialize to canonical JSON: keys sorted, records ordered by check id,
exact scalars rendered as fraction strings.  Timing data is carried in memory
but serialized as null unless explicitly requested, so that two runs with the
same seed produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np


def max_keep_nan(*values):
    """max(values), except that a NaN among them is the result.

    The builtin max drops a NaN that is not its first argument, and every
    comparison with NaN is False, so a NaN residual would otherwise vanish
    inside a running maximum and pass its check.
    """
    for v in values:
        if v != v:
            return v
    return max(values)


def worst_residual(residuals) -> float:
    """The largest of an array of residuals, at least 0.0; a NaN among them
    is the result (max_keep_nan over every entry)."""
    return max_keep_nan(0.0, *np.ravel(residuals).tolist())


def within(worst: float, bound: float) -> bool:
    """The pass rule of a residual check: the worst residual is below the
    bound, or exactly zero where the bound is 0 and nothing is below it.  A
    NaN worst fails either way."""
    return worst == 0.0 if bound == 0.0 else worst < bound


def min_keep_nan(*values):
    """min(values), except that a NaN among them is the result: the twin of
    max_keep_nan for running minima, where the builtin min drops a NaN the
    same way."""
    for v in values:
        if v != v:
            return v
    return min(values)


def jsonable(x: Any) -> Any:
    """Recursively convert exact and numpy scalars to JSON-stable values.

    Any other type raises TypeError: a value the report cannot write
    exactly, such as an element of Q(sqrt 3), is never rounded to a float.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
    if isinstance(x, np.generic):  # numpy scalars
        return jsonable(x.item())
    raise TypeError(f"a report cannot hold a {type(x).__name__}: {x!r}")


@dataclass
class CheckRecord:
    """Outcome of one verification check."""

    check_id: str
    passed: bool
    samples: int = 0
    skipped: int = 0
    tolerance: float | None = None
    max_residual: float | None = None
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed_ms: float | None = None
    status: str | None = None  # "skip" marks a check not run in this mode

    def as_dict(self, timings: bool = False) -> dict:
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "samples": self.samples,
            "skipped": self.skipped,
            "tolerance": self.tolerance,
            "max_residual": jsonable(self.max_residual),
            "details": jsonable(self.details),
            "failures": jsonable(self.failures),
            "elapsed_ms": self.elapsed_ms if timings else None,
            "status": self.status,
        }

    def status_line(self) -> str:
        status = "SKIP" if self.status == "skip" else ("PASS" if self.passed else "FAIL")
        bits = [f"{status} {self.check_id}"]
        if self.samples:
            bits.append(f"samples={self.samples}")
        if self.skipped:
            bits.append(f"skipped={self.skipped}")
        if self.max_residual is not None:
            bits.append(f"max_residual={float(self.max_residual):.3e}")
        if self.tolerance is not None:
            bits.append(f"tol={self.tolerance:.1e}")
        return bits[0] + (
            " (" + ", ".join(bits[1:]) + ")" if len(bits) > 1 else ""
        )


@dataclass
class VerificationReport:
    """A bundle of check records plus the inputs that produced them."""

    records: list[CheckRecord]
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: r.check_id)

    def to_json(self, timings: bool = False) -> str:
        payload = {
            "passed": self.passed,
            "seed": self.seed,
            "meta": jsonable(self.meta),
            "checks": [r.as_dict(timings) for r in self.sorted_records()],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)

    def to_text(self) -> str:
        lines = [r.status_line() for r in self.sorted_records()]
        verdict = "ALL CHECKS PASSED" if self.passed else "VERIFICATION FAILED"
        return "\n".join(lines + [verdict])
