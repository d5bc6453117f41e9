"""Compare two sides of e2e benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py BEFORE.jsonl AFTER.jsonl

Each side is a record file written by ``run.py --out``; concatenate the
files of several runs (say, ten seeds) to give a side several runs.
Each run contributes its median of every metric, and a side is
summarised by the median and interquartile range (IQR) of its runs'
medians: the run-to-run spread, as a harness repeating the benchmark
sees it.  For end-to-end metrics the verdict uses the metric's bound in
``BENCHMARK.json``:

* ``worse``      the median worsened by more than the bound;
* ``unresolved`` either side's IQR exceeds the bound (as a share of its
  median), so a change that large cannot be told from noise, unless
  every run of one side beats every run of the other;
* ``better``     both sides have several runs and the median improved by
  more than BEFORE's IQR;
* ``unchanged``  otherwise.

``failed_share`` is worse whenever AFTER fails a larger share of reps.
Per-layer metrics have no bound and get no verdict; nor do the metrics a
workload copies from its in-process reference run (tcp's ``rounds`` and
``wan_comm_s``), which read ``reference``.  The exit status is
1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from report import load_spec, read_records, summarize, table


def pool(records: List[dict]) -> Dict[str, dict]:
    """Per workload: each run's median of every metric, the reps
    attempted and failed over all runs, and the metrics copied from the
    reference run."""
    pooled: Dict[str, dict] = defaultdict(
        lambda: {"runs": defaultdict(list), "attempted": 0, "failed": 0,
                 "from_reference": set()}
    )
    for record in records:
        entry = pooled[record["workload"]]
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        entry["from_reference"].update(record.get("from_reference", []))
        for name, values in record["samples"].items():
            if values:
                entry["runs"][name].append(statistics.median(values))
    return pooled


def host_speed(records: List[dict]) -> str:
    """Median per-rep host-kernel time: how fast the host ran, which the
    timings are already scaled by, shown so a side that ran on a far
    slower host stands out."""
    times = [rep["kernel_ms"] for record in records for rep in record["reps"]
             if "kernel_ms" in rep]
    return f"{statistics.median(times):.1f}" if times else "n/a"


def verdict(before: Sequence[float], after: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    a, b = summarize(before), summarize(after)
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    spread_a = (a["q3"] - a["q1"]) / a["median"]
    spread_b = (b["q3"] - b["q1"]) / b["median"]
    if max(spread_a, spread_b) > bound:
        # Signed so that smaller is better in both directions.
        cost_a = [sign * v for v in before]
        cost_b = [sign * v for v in after]
        if max(cost_b) < min(cost_a):
            return "better"
        if min(cost_b) > max(cost_a):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    # A single run has no spread to beat, so it cannot show a gain.
    if len(before) > 1 and len(after) > 1 and -worsening > spread_a:
        return "better"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="record file of the baseline")
    parser.add_argument("after", help="record file of the change")
    args = parser.parse_args(argv)
    spec = load_spec()
    before_records = read_records(args.before)
    after_records = read_records(args.after)
    before, after = pool(before_records), pool(after_records)
    print(f"host speed, median kernel_ms: before {host_speed(before_records)}, "
          f"after {host_speed(after_records)}")
    metrics = [(m, True) for m in spec["end_to_end"]] + [
        (m, False) for m in spec["per_layer"]
    ]
    rows, blocking = [], 0
    for workload in sorted(set(before) & set(after)):
        a, b = before[workload], after[workload]
        for metric, bounded in metrics:
            name = metric["name"]
            va, vb = a["runs"].get(name), b["runs"].get(name)
            if not va or not vb:
                continue
            sa, sb = summarize(va), summarize(vb)
            change = ((sb["median"] - sa["median"]) / sa["median"]
                      if sa["median"] else 0.0)
            result = "-"
            if name in a["from_reference"] | b["from_reference"]:
                result = "reference"
            elif bounded:
                result = verdict(va, vb, metric["bound"],
                                 metric["better"] == "lower")
                blocking += result in ("worse", "unresolved")
            rows.append([workload, name, metric["unit"], sa["median"],
                         sa["q3"] - sa["q1"], sb["median"], sb["q3"] - sb["q1"],
                         f"{100 * change:+.2f}%", result])
        share_a = a["failed"] / a["attempted"] if a["attempted"] else 0.0
        share_b = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        result = "worse" if share_b > share_a else (
            "better" if share_b < share_a else "unchanged")
        blocking += result == "worse"
        rows.append([workload, "failed_share", "fraction", share_a, "",
                     share_b, "", "", result])
    print(table(["workload", "metric", "unit", "before", "iqr", "after",
                 "iqr", "change", "verdict"], rows))
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
