"""End-to-end ranking benchmark: every metric, by name, from one command.

Run from the repository root:

    python3 benchmarks/e2e/run.py --workload proto-dl48-n8 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --reps 7 --out set.jsonl
    python3 benchmarks/e2e/run.py --workload all --seed 1 --reps 1 --trace 1 --out traced.jsonl
    python3 benchmarks/e2e/compare.py before.jsonl after.jsonl

The load is a closed loop with one client.  Each rep is one ranking in
a fresh child process (``child.py``), started only after the previous
child ended, so no two processes of the benchmark ever compete for the
host.  With several workloads, reps run rep-major (W1..W4, W1..W4, ...)
so host drift hits every workload alike.  Every rep draws its inputs
from ``--seed``.  Without ``--reps``, reps start until ``--seconds``
have passed (at least one).

``--trace 0`` is the untraced pass: it reports the end-to-end metrics
named in ``BENCHMARK.json``, its timings scaled to a nominal host
speed by a kernel each child times (see ``child.py``).  Every ranking
child also times its own set-up; while a workload has fewer than 15
``setup_s`` samples, each rep is followed by a setup-only child, and
any shortfall is made up after the reps.  ``--trace 1`` is the traced pass: each rep runs an
untraced and a traced child, requires their op counts, payload digest
and wire bytes to agree, and reports the per-layer metrics plus
``trace.overhead`` (traced over untraced ``ranking_s``).  Tracing is
never on in an untraced child.

Every rep's output is checked, on its own (``workloads.check_rep``) and
against an untimed fault-free in-process run of the same seed; a rep
that fails a check, crashes or times out counts as failed and leaves no
sample.  The output is a table of every metric with its unit, median,
quartiles and sample count, then one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
(with ``--workload all`` the names are ``<workload>.<metric>``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from report import ROOT, load_spec, summarize, table, write_records

HERE = Path(__file__).resolve().parent
MIN_SETUP_SAMPLES = 15
#: A rep takes a few seconds; a child still running after this is hung.
CHILD_TIMEOUT_S = 25.0
#: Fields a traced rep must reproduce exactly from its untraced twin
#: (tcp batching moves envelope bytes, so ``wire_bytes`` only in-process).
SAME_IN_TRACED = ("max_participant_mults", "digest", "payload_bits", "rounds")
#: Metrics a tcp rep cannot measure (its transcript rounds are party-local
#: clocks); it reports those of the reference run whose digest it matched.
FROM_REFERENCE = ("rounds", "wan_comm_s")


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """One child process; its JSON record, or ``{"problems": [...]}``."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed), *flags]
    # Own session: a timed-out child is killed with every party process
    # it spawned.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(process)
        process.communicate()
        return {"problems": [f"{workload} seed {seed}: timed out after "
                             f"{CHILD_TIMEOUT_S:.0f} s"]}
    finally:
        _kill_group(process)
        process.wait()
    if process.returncode != 0 or not out.strip():
        last = (err.strip().splitlines() or ["no output"])[-1]
        return {"problems": [f"{workload} seed {seed}: exit code "
                             f"{process.returncode}: {last}"]}
    return json.loads(out.strip().splitlines()[-1])


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path`` (Linux), else ``unknown``."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if (len(fields) > 2 and target.startswith(fields[1])
                        and len(fields[1]) > len(best)):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


class WorkloadRun:
    """Reps, samples and outcomes of one workload within this run.

    Every rep runs on the run's seed, so the one untimed reference run
    made first (the fault-free in-process instance of that seed) checks
    every rep; it also compiles the bytecode of a fresh checkout before
    anything is timed."""

    def __init__(self, workload: str, seed: int, flags: List[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.flags = flags
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.reps: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.from_reference: List[str] = []
        self.reference = self.child("--reference")

    def child(self, *flags: str) -> dict:
        return run_child(self.workload, self.seed, *flags, *self.flags)

    def problems(self, record: dict) -> List[str]:
        """The rep's own problems, its reference's, and any disagreement
        between the two.  Fills in tcp's ``FROM_REFERENCE`` metrics from
        the lockstep reference and notes that it did."""
        problems = record.get("problems", []) + self.reference.get("problems", [])
        if problems:
            return problems
        for field in ("ranks", "digest"):
            if record[field] != self.reference[field]:
                problems.append(f"{self.workload} seed {self.seed}: {field} "
                                "differ from the in-process reference run")
        if record["rounds"] is None:
            for name in FROM_REFERENCE:
                record[name] = self.reference[name]
            self.from_reference = list(FROM_REFERENCE)
        return problems

    def fail(self, problems: List[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)

    def untraced_rep(self, metrics: List[str], min_setup: int) -> None:
        record = self.child()
        self.attempted += 1
        self.reps.append(record)
        problems = self.problems(record)
        if problems:
            self.fail(problems)
        else:
            for name in metrics + ["setup_s"]:
                self.samples[name].append(record[name])
        if len(self.samples["setup_s"]) < min_setup:
            self.add_setup_sample()

    def add_setup_sample(self) -> None:
        setup = self.child("--setup-only")
        if "setup_s" in setup:
            self.samples["setup_s"].append(setup["setup_s"])

    def traced_rep(self, layer_names: List[str]) -> None:
        plain = self.child()
        traced = self.child("--trace")
        self.attempted += 1
        self.reps.append({"untraced": plain, "traced": traced})
        problems = self.problems(plain) + self.problems(traced)
        if not problems:
            fields = SAME_IN_TRACED
            if plain["transport"] != "tcp":
                fields += ("wire_bytes",)
            problems = [
                f"{self.workload} seed {self.seed}: traced {field} "
                f"{traced[field]} != untraced {plain[field]}"
                for field in fields if traced[field] != plain[field]
            ]
        if problems:
            self.fail(problems)
            return
        for name in layer_names:
            if name == "trace.overhead":
                self.samples[name].append(traced["ranking_s"] / plain["ranking_s"])
            else:
                self.samples[name].append(traced["layers"][name])


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end ranking benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="start reps until this much time has passed")
    parser.add_argument("--reps", type=int, default=0,
                        help="run exactly this many reps per workload instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="32-bit group, n=3, one setup sample: the self-test")
    parser.add_argument("--out", help="write one JSON record per workload here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    flags = ["--quick"] if args.quick else []
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}
    rep_metrics = [name for name in units if name != "setup_s"]
    min_setup = 1 if args.quick else MIN_SETUP_SAMPLES
    runs = {w: WorkloadRun(w, args.seed, flags) for w in workloads}
    started = time.monotonic()
    rep = 0
    while rep == 0 or (
        rep < args.reps if args.reps
        else time.monotonic() - started < args.seconds
    ):
        for run in runs.values():
            if args.trace:
                run.traced_rep(rep_metrics)
            else:
                run.untraced_rep(rep_metrics, min_setup)
        rep += 1
    if not args.trace:
        for run in runs.values():
            for _ in range(min_setup - len(run.samples["setup_s"])):
                run.add_setup_sample()

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": runs[workloads[0]].reference.get("backend"),
        "checkpoint_fs": filesystem_of(ROOT),
    }
    rows, metrics, records = [], {}, []
    for workload in workloads:
        run = runs[workload]
        for name, unit in units.items():
            values = run.samples.get(name)
            if not values:
                continue
            summary = summarize(values)
            rows.append([workload, name, unit, summary["median"], summary["q1"],
                         summary["q3"], summary["n"]])
            label = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[label] = {"value": summary["median"], "unit": unit}
        rows.append([workload, "failed_share", "fraction",
                     run.failed / run.attempted, "", "", run.attempted])
        records.append({
            "workload": workload, "seed": args.seed, "trace": bool(args.trace),
            "quick": args.quick, "host": host,
            "attempted": run.attempted, "failed": run.failed,
            "samples": dict(run.samples), "reference": run.reference,
            "from_reference": run.from_reference, "reps": run.reps,
        })
    print(f"workloads={','.join(workloads)} seed={args.seed} reps={rep} "
          f"trace={args.trace} host={json.dumps(host)}")
    print(table(["workload", "metric", "unit", "median", "q1", "q3", "n"], rows))
    for run in runs.values():
        if run.from_reference and not args.trace:
            print(f"{run.workload}: {', '.join(run.from_reference)} are the "
                  "in-process reference run's, not measured over this transport")
    if args.out:
        write_records(args.out, records)
    expected = len(units) * len(workloads)
    if len(metrics) != expected:
        print(f"only {len(metrics)} of {expected} metrics have samples",
              file=sys.stderr)
        return 1
    attempted = sum(run.attempted for run in runs.values())
    failed = sum(run.failed for run in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
