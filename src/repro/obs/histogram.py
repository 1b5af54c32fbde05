"""Value distributions with percentiles.

Counters answer "how many"; histograms answer "how slow" and "how deep".
One :class:`Histogram` holds every recorded sample (simulations are
small enough that exact percentiles beat bucketed approximations), and
its summary exposes the quantities EXPERIMENTS.md tracks across PRs:
count, min/max, mean, p50, p95.

Empty histograms summarize to ``None`` values — never ``inf``/``nan``,
which would poison the JSON export (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Histogram:
    """An exact-sample histogram over one named quantity."""

    def __init__(self, name: str = ""):
        self.name = name
        self.values: List[float] = []
        self._sorted: Optional[List[float]] = None

    # -- recording ------------------------------------------------------

    def record(self, value: float) -> None:
        """Add one sample; non-finite values are rejected loudly."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r} rejects non-finite {value!r}")
        self.values.append(value)
        self._sorted = None

    # -- statistics -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    @property
    def min(self) -> Optional[float]:
        return min(self.values) if self.values else None

    @property
    def max(self) -> Optional[float]:
        return max(self.values) if self.values else None

    @property
    def mean(self) -> Optional[float]:
        return self.sum / len(self.values) if self.values else None

    def percentile(self, p: float) -> Optional[float]:
        """The *p*-th percentile (nearest-rank), ``None`` when empty.

        ``p`` is in [0, 100].  A single sample is every percentile of
        itself; ties collapse naturally because ranks index the sorted
        sample list.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return None
        if self._sorted is None:
            self._sorted = sorted(self.values)
        if p == 0:
            return self._sorted[0]
        rank = math.ceil(p / 100.0 * len(self._sorted))
        return self._sorted[rank - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    # -- export ---------------------------------------------------------

    def summary(self) -> Dict[str, Optional[float]]:
        """The scalar summary: JSON-safe, ``None`` for empty quantities."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
        }

    def to_dict(self, include_values: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.summary())
        out["name"] = self.name
        if include_values:
            out["values"] = list(self.values)
        return out

    def __repr__(self) -> str:
        if not self.values:
            return f"Histogram({self.name!r}, empty)"
        return (
            f"Histogram({self.name!r}, n={self.count}, "
            f"p50={self.p50:.4g}, p95={self.p95:.4g}, max={self.max:.4g})"
        )
