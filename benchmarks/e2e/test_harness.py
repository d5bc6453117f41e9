"""Self-test of the end-to-end benchmark harness (well under 60 s).

Runs ``run.py --quick`` over every workload (32-bit group, n=3, one
rep), untraced and traced, and checks that every metric BENCHMARK.json
names is emitted with its unit for every workload, that every rep
passed its correctness gate, and that the traced reps reproduce their
untraced twins' counts.  Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

import json
import shutil
import subprocess
import sys

import pytest

from compare import verdict
from report import ROOT, SPEC_PATH, load_spec, read_records

RUN = ROOT / "benchmarks" / "e2e" / "run.py"
SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _quick_pass(directory, trace):
    out = directory / f"trace{trace}.jsonl"
    process = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "5",
         "--reps", "1", "--quick", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    return result, read_records(out), out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _quick_pass(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _quick_pass(tmp_path_factory.mktemp("traced"), 1)


def _assert_every_metric(result, kind):
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS)
    expected = {
        f"{workload}.{metric['name']}": metric["unit"]
        for workload in WORKLOADS for metric in SPEC[kind]
    }
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_untraced_pass_emits_every_end_to_end_metric(untraced):
    result, records, _ = untraced
    _assert_every_metric(result, "end_to_end")
    assert all(value["value"] > 0 for value in result["metrics"].values())
    for record in records:
        assert {"nproc", "python", "checkpoint_fs", "backend"} <= set(record["host"])
        assert all(rep["kernel_ms"] > 0 for rep in record["reps"])
        copied = record["workload"].startswith("tcp")
        assert record["from_reference"] == (
            ["rounds", "wan_comm_s"] if copied else []), record["workload"]


def test_traced_pass_emits_every_layer_metric(traced):
    result, _, _ = traced
    _assert_every_metric(result, "per_layer")


def test_traced_reps_reproduce_untraced_counts(traced):
    _, records, _ = traced
    for record in records:
        (pair,) = record["reps"]
        for field in ("max_participant_mults", "digest", "payload_bits", "rounds"):
            assert pair["traced"][field] == pair["untraced"][field], field


def test_checkpoint_layer_is_busy_only_under_recovery(traced):
    result, _, _ = traced
    for workload in WORKLOADS:
        journal = result["metrics"][
            f"{workload}.runtime.checkpoint.journal_send.calls"]["value"]
        assert (journal > 0) == workload.startswith("recovery"), workload


def test_compare_finds_a_run_unchanged_against_itself(untraced):
    _, _, out = untraced
    process = subprocess.run(
        [sys.executable, str(RUN.parent / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0, process.stdout
    assert "unchanged" in process.stdout
    # tcp's copied metrics get no verdict.
    assert "reference" in process.stdout
    assert "worse" not in process.stdout and "unresolved" not in process.stdout


@pytest.mark.parametrize("after, expected", [
    ([1.00, 1.01, 0.99, 1.02, 0.98], "unchanged"),
    ([1.40, 1.41, 1.39, 1.42, 1.38], "worse"),
    ([0.80, 0.81, 0.79, 0.82, 0.78], "better"),
    ([0.60, 1.00, 1.40, 0.70, 1.30], "unresolved"),
])
def test_compare_verdicts(after, expected):
    before = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict(before, after, bound=0.25, lower_is_better=True) == expected


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail fast, printing
    no result."""
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(RUN.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
