"""Tier-1 tests for the protocol-aware static analysis pass.

Three layers of assurance:

* every rule fires on its seeded fixture violation — with the right
  rule id, file, and line, and nothing else in that file;
* the linter's own verdict on ``src/repro`` is clean modulo the
  committed baseline (so CI strict mode cannot be red at HEAD);
* the baseline round-trips (write → clean run → stale detection when a
  baselined violation disappears).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.lint.cli import JSON_OUTPUT_VERSION, main
from repro.lint.findings import RULES, Finding
from repro.lint.registry import default_registry

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: (rule id, fixture path, 1-based line of the seeded violation).
SEEDED_VIOLATIONS = [
    ("R-TAINT-LOG", "repro/core/taint_log.py", 5),
    ("R-TAINT-EXC", "repro/core/taint_exc.py", 5),
    ("R-TAINT-TRANSCRIPT", "repro/runtime/taint_transcript.py", 5),
    ("R-TAINT-WIRE", "repro/runtime/taint_wire.py", 7),
    ("R-TAINT-CKPT", "repro/runtime/taint_ckpt.py", 5),
    ("R-TAINT-REPR", "repro/crypto/taint_repr.py", 9),
    ("R-RNG", "repro/core/bad_rng.py", 3),
    ("R-RNG", "repro/math/backend_rng.py", 7),
    ("R-GUARD", "repro/crypto/bad_guard.py", 5),
    ("R-GUARD", "repro/crypto/bad_set_guard.py", 5),
    ("R-POOL", "repro/runtime/parallel.py", 9),
    ("R-FLOAT", "repro/crypto/bad_float.py", 5),
    ("R-FLOAT", "repro/math/backend.py", 5),
    ("R-EXCEPT", "repro/runtime/bad_except.py", 7),
    ("R-PICKLE", "repro/runtime/bad_pickle.py", 7),
    ("R-PROTO", "repro/core/proto_unhandled.py", 13),
    ("R-PROTO", "repro/core/proto_phase.py", 15),
    ("R-PROTO", "repro/runtime/transport/frames.py", 15),
    ("R-PROTO", "repro/runtime/transport/host.py", 21),
    ("R-CODEC", "repro/runtime/wire_codec.py", 12),
    ("R-ASYNC", "repro/runtime/transport/blocking.py", 11),
    ("R-ASYNC", "repro/runtime/transport/dropped.py", 11),
    ("R-SHARED", "repro/runtime/transport/shared.py", 21),
    ("R-SHARED", "repro/runtime/transport/shared.py", 24),
]
#: Test ids are the rule ids; a row given its own id here leaves the
#: numbering of the other rows of its rule as it was.
CASE_IDS = {"repro/crypto/bad_set_guard.py": "R-GUARD-SET"}
SEEDED_IDS = [CASE_IDS.get(path, rule) for rule, path, _ in SEEDED_VIOLATIONS]


@pytest.fixture(scope="module")
def fixture_report():
    return lint_paths([FIXTURES], root=FIXTURES)


class TestRuleDetection:
    @pytest.mark.parametrize(
        "rule,path,line", SEEDED_VIOLATIONS, ids=SEEDED_IDS
    )
    def test_seeded_violation_detected(self, fixture_report, rule, path, line):
        hits = [
            f
            for f in fixture_report.fresh
            if f.path == path and f.rule == rule and f.line == line
        ]
        assert len(hits) == 1, (
            f"expected exactly one {rule} at {path}:{line}, got "
            f"{[(f.rule, f.line) for f in fixture_report.fresh if f.path == path]}"
        )

    @pytest.mark.parametrize(
        "rule,path,line", SEEDED_VIOLATIONS, ids=SEEDED_IDS
    )
    def test_no_cross_rule_noise(self, fixture_report, rule, path, line):
        """Each fixture file trips only its own rule."""
        others = [f for f in fixture_report.fresh if f.path == path and f.rule != rule]
        assert others == []

    def test_every_rule_has_a_fixture(self):
        assert {rule for rule, _, _ in SEEDED_VIOLATIONS} == set(RULES)

    def test_annotation_marks_source(self, fixture_report):
        hits = [
            f
            for f in fixture_report.fresh
            if f.path == "repro/core/annotated.py" and f.rule == "R-TAINT-LOG"
        ]
        assert len(hits) == 1 and hits[0].line == 6

    def test_inline_waiver_suppresses(self, fixture_report):
        assert not any(
            f.path == "repro/core/waived.py" for f in fixture_report.fresh
        )
        assert any(
            f.path == "repro/core/waived.py" and f.rule == "R-TAINT-LOG"
            for f in fixture_report.suppressed
        )

    def test_deleted_handler_fires_proto(self, fixture_report):
        """Acceptance demo for the conformance checker: a scratch copy
        of the transport host with its SHUTDOWN dispatch branch deleted
        trips R-PROTO at the now-orphaned send site."""
        hits = [
            f
            for f in fixture_report.fresh
            if f.path == "repro/runtime/transport/host.py" and f.rule == "R-PROTO"
        ]
        assert len(hits) == 1
        assert "SHUTDOWN" in hits[0].message

    def test_shared_state_names_both_roots(self, fixture_report):
        """R-SHARED findings identify every competing task root so the
        fix (a single-writer funnel) is actionable from the message."""
        hits = [
            f
            for f in fixture_report.fresh
            if f.path == "repro/runtime/transport/shared.py"
        ]
        assert len(hits) == 2
        for finding in hits:
            assert "_reader" in finding.message
            assert "_ticker" in finding.message

    def test_sanitizers_keep_clean_file_clean(self, fixture_report):
        assert not any(
            f.path == "repro/core/clean.py"
            for f in fixture_report.fresh + fixture_report.suppressed
        )


class TestSelfRun:
    def test_src_repro_clean_modulo_baseline(self):
        """The tree this repo ships must pass its own linter in CI mode."""
        baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
        baseline = Baseline.load(baseline_path) if baseline_path.exists() else None
        report = lint_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT, baseline=baseline
        )
        assert report.parse_errors == []
        assert report.fresh == [], [f.render() for f in report.fresh]
        assert report.stale == []
        assert report.exit_code(strict=True) == 0

    def test_registry_scoping(self):
        registry = default_registry()
        assert "permutation" in registry.secret_names_for("repro.core.shuffle")
        # Sorting networks are public objects; the scoped source must not
        # bleed into repro.sorting.
        assert "permutation" not in registry.secret_names_for("repro.sorting.networks")
        assert "rho" in registry.secret_names_for("repro.sorting.networks")


class TestBaselineRoundTrip:
    def _finding(self, rule="R-RNG", path="repro/core/bad_rng.py", line=3):
        return Finding(
            rule=rule,
            path=path,
            line=line,
            col=1,
            symbol="<module>",
            message="direct import",
            snippet="import random",
        )

    def test_fingerprint_ignores_line_numbers(self):
        a = self._finding(line=3)
        b = self._finding(line=30)
        assert a.fingerprint == b.fingerprint

    def test_write_load_split(self, tmp_path, fixture_report):
        baseline = Baseline.from_findings(fixture_report.fresh)
        target = tmp_path / "baseline.json"
        baseline.save(target)
        reloaded = Baseline.load(target)
        fresh, baselined, stale = reloaded.split(fixture_report.fresh)
        assert fresh == []
        assert len(baselined) == len(fixture_report.fresh)
        assert stale == []

    def test_stale_entry_detected(self, tmp_path, fixture_report):
        baseline = Baseline.from_findings(fixture_report.fresh)
        # Pretend one violation got fixed: drop all R-FLOAT findings.
        remaining = [f for f in fixture_report.fresh if f.rule != "R-FLOAT"]
        dropped = len(fixture_report.fresh) - len(remaining)
        fresh, _, stale = baseline.split(remaining)
        assert fresh == []
        assert dropped >= 1
        assert [entry.rule for entry in stale] == ["R-FLOAT"] * dropped

    def test_reason_survives_rewrite(self, tmp_path, fixture_report):
        baseline = Baseline.from_findings(fixture_report.fresh)
        target = tmp_path / "baseline.json"
        baseline.save(target)
        data = json.loads(target.read_text())
        data["entries"][0]["reason"] = "reviewed: fixture"
        target.write_text(json.dumps(data))
        old = Baseline.load(target)
        new = Baseline.from_findings(fixture_report.fresh)
        new.carry_reasons_from(old)
        kept = new.entries[data["entries"][0]["fingerprint"]]
        assert kept.reason == "reviewed: fixture"


class TestCli:
    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], out=out) == 0
        text = out.getvalue()
        for rule in RULES:
            assert rule in text

    def test_fixture_run_fails(self):
        out = io.StringIO()
        code = main(
            ["--root", str(FIXTURES), "--no-baseline", str(FIXTURES)], out=out
        )
        assert code == 1
        assert "R-TAINT-LOG" in out.getvalue()

    def test_json_output_parses(self):
        out = io.StringIO()
        main(
            [
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--format",
                "json",
                str(FIXTURES),
            ],
            out=out,
        )
        payload = json.loads(out.getvalue())
        rules = {f["rule"] for f in payload["findings"]}
        assert {"R-TAINT-LOG", "R-GUARD", "R-FLOAT"} <= rules

    def test_json_version_field_round_trips(self):
        out = io.StringIO()
        main(
            [
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--format",
                "json",
                str(FIXTURES / "repro" / "core" / "clean.py"),
            ],
            out=out,
        )
        payload = json.loads(out.getvalue())
        assert payload["version"] == JSON_OUTPUT_VERSION

    def test_write_and_prune_are_exclusive(self):
        assert main(["--write-baseline", "--prune-baseline"]) == 2

    def test_prune_baseline_drops_stale_keeps_live(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = io.StringIO()
        assert (
            main(
                [
                    "--root", str(FIXTURES),
                    "--baseline", str(baseline),
                    "--write-baseline",
                    str(FIXTURES),
                ],
                out=out,
            )
            == 0
        )
        data = json.loads(baseline.read_text())
        live = len(data["entries"])
        assert live > 0
        # Fabricate an entry for a violation that no longer occurs.
        data["entries"].append(
            {
                "fingerprint": "f" * 16,
                "rule": "R-RNG",
                "path": "repro/zzz.py",
                "symbol": "<module>",
                "snippet": "import random",
                "count": 1,
                "reason": "",
            }
        )
        baseline.write_text(json.dumps(data))
        out = io.StringIO()
        assert (
            main(
                [
                    "--root", str(FIXTURES),
                    "--baseline", str(baseline),
                    "--prune-baseline",
                    str(FIXTURES),
                ],
                out=out,
            )
            == 0
        )
        assert "pruned 1" in out.getvalue()
        pruned = json.loads(baseline.read_text())
        assert len(pruned["entries"]) == live
        assert all(e["fingerprint"] != "f" * 16 for e in pruned["entries"])
        # A second prune over the same tree is a no-op.
        out = io.StringIO()
        assert (
            main(
                [
                    "--root", str(FIXTURES),
                    "--baseline", str(baseline),
                    "--prune-baseline",
                    str(FIXTURES),
                ],
                out=out,
            )
            == 0
        )
        assert "pruned 0" in out.getvalue()

    def test_strict_fails_on_stale(self, tmp_path):
        # A baseline entry for a violation that no longer exists.
        entry = {
            "fingerprint": "0" * 16,
            "rule": "R-RNG",
            "path": "repro/zzz.py",
            "symbol": "<module>",
            "snippet": "import random",
            "count": 1,
            "reason": "",
        }
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"version": 1, "tool": "repro.lint", "entries": [entry]})
        )
        clean_dir = FIXTURES / "repro" / "core"
        out = io.StringIO()
        relaxed = main(
            [
                "--root", str(REPO_ROOT),
                "--baseline", str(baseline),
                str(clean_dir / "clean.py"),
            ],
            out=out,
        )
        assert relaxed == 0  # stale alone is tolerated without --strict
        out = io.StringIO()
        strict = main(
            [
                "--root", str(REPO_ROOT),
                "--baseline", str(baseline),
                "--strict",
                str(clean_dir / "clean.py"),
            ],
            out=out,
        )
        assert strict == 1
        assert "stale" in out.getvalue()
