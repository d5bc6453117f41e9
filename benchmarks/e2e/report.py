"""Metric spec, sample summaries and record files of the e2e benchmark.

The metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repository root; this module is the one place that reads it.
A record file holds one JSON object per line, one per workload run:
``{"workload", "seed", "trace", "quick", "host", "attempted", "failed",
"samples": {metric: [values]}, "reps": [...]}``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and
    sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def read_records(path) -> List[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def write_records(path: str, records: Iterable[dict]) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A fixed-width text table; floats print to six significant digits."""
    cells = [list(header)] + [
        [f"{value:.6g}" if isinstance(value, float) else str(value)
         for value in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )
