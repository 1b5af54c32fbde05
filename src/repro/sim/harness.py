"""Experiment harness: collects sweep results into printable tables.

The paper has no quantitative tables (see DESIGN.md); the harness prints
the derived experiment tables EXPERIMENTS.md records, one row per
parameter point, with a fixed column layout so bench output is diffable
across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.export import write_json_artifact


@dataclass
class ExperimentTable:
    """An ordered collection of result rows with aligned text rendering."""

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        for name, value in values.items():
            # Non-finite floats must never reach a row: they would
            # serialize as invalid JSON (Infinity/NaN).  Producers report
            # absent measurements as None (rendered as a dash).
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"non-finite value {value!r} for column {name!r}; "
                    "use None for absent measurements"
                )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _format(value: Any) -> str:
        if value is None:
            # Absent measurements (e.g. no detection event) render as a
            # dash; they are exported as JSON null, never Infinity.
            return "-"
        if isinstance(value, float):
            # add_row rejects non-finite floats, so plain formatting is
            # exhaustive here.
            return f"{value:.4g}"
        return str(value)

    def render(self) -> str:
        header = list(self.columns)
        body = [[self._format(row.get(col, "")) for col in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in body:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def write_json(self, path: str) -> str:
        """Write the table as a JSON artifact; returns *path*."""
        return write_json_artifact(path, self.to_dict())


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """A safe ratio for table cells (0/0 → 1.0, x/0 → None).

    ``None`` (an undefined ratio) renders as a dash and exports as JSON
    null — never ``inf``, which :meth:`ExperimentTable.add_row` rejects.
    """
    if denominator == 0:
        return 1.0 if numerator == 0 else None
    return numerator / denominator


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, NaN-tolerant; 0.0 for empty input."""
    values = [v for v in values if v == v]  # drop NaN
    return sum(values) / len(values) if values else 0.0
