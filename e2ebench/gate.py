"""Correctness gate: every check the benchmark makes on the program's
outputs, counted into ``attempted`` / ``failed``.

The gate checks consistency, never frozen numbers: a reference engine
must agree with the production engine, a served result with an offline
one, a warm re-sweep with its cold pass, and every rate must be a rate.
A digest of all simulated statistics is printed beside the metrics so a
reader can see when the numbers moved.
"""

from __future__ import annotations

import hashlib
import json
import math


class Tally:
    """Attempted / failed operation counts plus the reasons for each
    failure."""

    def __init__(self, attempted: int = 0, failed: int = 0,
                 failures=None):
        self.attempted = attempted
        self.failed = failed
        self.failures = list(failures or ())

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Tally":
        return cls(doc["attempted"], doc["failed"], doc["failures"])


def _is_rate(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _rate_or_nan(x) -> bool:
    return (isinstance(x, float) and math.isnan(x)) or _is_rate(x)


def unit_range_problems(unit: dict) -> list:
    """Range sanity of one unit result dict: rates in [0, 1] and the
    ST2 run never faster than the baseline."""
    label = f"{unit.get('kernel')}[{unit.get('config')}]"
    m = unit.get("metrics", {})
    problems = []
    for key in ("misprediction_rate", "alu_fpu_share"):
        if not _is_rate(m.get(key)):
            problems.append(f"{label}: {key}={m.get(key)!r} not in [0, 1]")
    peek = m.get("static_peek", {})
    for key in ("misprediction_rate_base", "misprediction_rate_static"):
        if key in peek and not _is_rate(peek[key]):
            problems.append(f"{label}: static_peek.{key} not in [0, 1]")
    base, st2 = m.get("baseline_cycles"), m.get("st2_cycles")
    if not (isinstance(base, int) and isinstance(st2, int)
            and 0 < base <= st2):
        problems.append(f"{label}: st2_cycles={st2!r} < "
                        f"baseline_cycles={base!r}")
    aux = unit.get("aux")
    if aux is not None:
        if not _is_rate(aux.get("valhalla_misprediction_rate")):
            problems.append(f"{label}: aux valhalla rate not in [0, 1]")
        for key, rate in aux.get("correlation", {}).items():
            if not _rate_or_nan(rate):
                problems.append(f"{label}: correlation {key} not a rate")
    return problems


def point_range_problems(point: dict) -> list:
    """Range sanity of one sweep Pareto point (wire form)."""
    obj = point.get("objectives", {})
    problems = []
    if not _is_rate(obj.get("misprediction_rate")):
        problems.append(f"{point.get('key')}: misprediction_rate "
                        f"not in [0, 1]")
    over = obj.get("perf_overhead")
    if not (isinstance(over, (int, float)) and over >= 0.0):
        problems.append(f"{point.get('key')}: perf_overhead < 0")
    return problems


def check_units(tally: Tally, units) -> None:
    """One operation per unit: its range sanity."""
    for unit in units:
        problems = unit_range_problems(unit)
        tally.check(not problems, "; ".join(problems))


def check_equal(tally: Tally, reference, candidate, what: str) -> None:
    """One operation per pair: exact numerical identity
    (``repro.runner.results_equal``)."""
    from repro.runner import results_equal

    tally.check(results_equal(reference, candidate),
                f"{what}: {reference.get('kernel')}"
                f"[{reference.get('config')}] differs")


def digest(docs) -> str:
    """Order-independent digest of unit results or sweep points: the
    runtime-only fields are dropped, everything simulated is hashed."""
    from repro.runner.units import comparable

    rows = sorted(json.dumps(comparable(d) if "metrics" in d else d,
                             sort_keys=True) for d in docs)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
