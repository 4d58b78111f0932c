"""Summary statistics and naming rules shared by the benchmark's parts."""

from __future__ import annotations

import math
import re

#: Every metric and workload name the benchmark prints must match this.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single outlier could decide its value.
MIN_TAIL = 10


def check_name(name: str) -> str:
    """Return ``name`` unchanged, or raise if it breaks :data:`NAME_RE`."""
    if not (isinstance(name, str) and 0 < len(name) <= 64
            and NAME_RE.fullmatch(name)):
        raise ValueError(f"bad metric or workload name {name!r}")
    return name


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1) of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples
    lie beyond the chosen rank: p90 needs at least 100 samples, p50 at
    least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has only {n - rank} "
            f"beyond it (need {MIN_TAIL})")
    return float(ordered[rank - 1])

