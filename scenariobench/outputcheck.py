"""Output checks applied to every scenario run the benchmark makes.

A run passes when its ``RunResult.to_dict()`` export

* is strict JSON: every float finite, and ``json.loads(json.dumps(x)) == x``;
* has one record per requested interval;
* reports accuracies inside ``[0, 1]``, with each summary mean equal to the
  mean of its per-interval values (scheme mode);
* has per-cell radio demand that sums to each interval's total, when the
  workload runs the multi-cell controller.

Runs of one seed must also produce one :func:`digest`; the benchmark
compares digests across runs itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List

#: Export keys that hold wall-clock readings, left out of the digest.
WALL_CLOCK_KEYS = ("elapsed_s", "elapsed_per_interval_s", "timing")

_ACCURACY_KEYS = (
    ("radio_accuracy", "mean_radio_accuracy"),
    ("computing_accuracy", "mean_computing_accuracy"),
)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def strict_json(export: dict) -> str:
    """Canonical JSON text of ``export``; raises ``ValueError`` if it is not strict."""
    text = json.dumps(export, allow_nan=False, sort_keys=True)
    if json.loads(text) != export:
        raise ValueError("export does not round-trip through JSON")
    return text


def digest(export: dict) -> str:
    """SHA-256 of the canonical export with the wall-clock fields removed."""
    stable = {key: value for key, value in export.items() if key not in WALL_CLOCK_KEYS}
    return hashlib.sha256(strict_json(stable).encode()).hexdigest()


def check_export(export: dict, *, per_cell: bool) -> List[str]:
    """Every problem found in one run's export (empty when it passes)."""
    try:
        strict_json(export)
    except (TypeError, ValueError) as error:
        return [f"export is not strict JSON: {error}"]
    problems: List[str] = []
    intervals = export["intervals"]
    if len(intervals) != export["num_intervals"]:
        problems.append(
            f"{len(intervals)} interval records for {export['num_intervals']} intervals"
        )
    if export["mode"] == "scheme":
        summary = export["summary"]
        for per_interval, mean_key in _ACCURACY_KEYS:
            values = [record[per_interval] for record in intervals]
            for index, value in enumerate(values):
                if not 0.0 <= value <= 1.0:
                    problems.append(f"interval {index} {per_interval}={value} outside [0, 1]")
            mean = summary.get(mean_key)
            if mean is None or not 0.0 <= mean <= 1.0:
                problems.append(f"summary {mean_key}={mean} outside [0, 1]")
            elif values and not _close(mean, sum(values) / len(values)):
                problems.append(f"summary {mean_key}={mean} is not the interval mean")
    if per_cell:
        demand = export["per_cell"].get("rb_demand_blocks")
        if not demand:
            problems.append("per-cell radio demand is missing")
        else:
            for index, record in enumerate(intervals):
                cells = sum(series[index] for series in demand.values())
                total = record["actual_radio_blocks"]
                if not _close(cells, total):
                    problems.append(
                        f"interval {index}: per-cell demand {cells} != total {total}"
                    )
    return problems
