"""Tests for the CLI."""

import io

import pytest

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDemo:
    def test_default_demo(self):
        code, text = run_cli(["demo", "-n", "4", "-k", "1", "--seed", "3"])
        assert code == 0
        assert "ranks:" in text
        assert "consistency: OK" in text

    def test_fiat_shamir_mode(self):
        code, text = run_cli(["demo", "-n", "3", "--zkp", "fiat-shamir"])
        assert code == 0
        assert "zkp=fiat-shamir" in text

    def test_attribute_count(self):
        code, text = run_cli(["demo", "-n", "3", "-m", "6"])
        assert code == 0

    def test_deterministic_by_seed(self):
        _, first = run_cli(["demo", "-n", "4", "--seed", "9"])
        _, second = run_cli(["demo", "-n", "4", "--seed", "9"])
        assert first == second

    def test_chunk_sets(self):
        """--chunk-sets C pipelines the chain (listed among the flags,
        same ranks); a C that covers the whole vector is one chunk and
        sends the same bytes as the default 0."""
        def lines(text, prefix):
            return [line for line in text.splitlines() if line.startswith(prefix)]

        _, whole = run_cli(["demo", "-n", "4", "--seed", "5"])
        code, chunked = run_cli(["demo", "-n", "4", "--seed", "5",
                                 "--chunk-sets", "2"])
        _, one_chunk = run_cli(["demo", "-n", "4", "--seed", "5",
                                "--chunk-sets", "4"])
        assert code == 0
        assert "consistency: OK" in chunked
        assert "chunk-sets" not in lines(whole, "group:")[0]
        assert "[chunk-sets=2]" in lines(chunked, "group:")[0]
        assert lines(chunked, "ranks:") == lines(whole, "ranks:")
        assert lines(chunked, "wire digest:") != lines(whole, "wire digest:")
        assert lines(one_chunk, "wire digest:") == lines(whole, "wire digest:")

    @pytest.mark.parametrize("argv, chosen", [
        (["-n", "6"], "2"),
        (["-n", "4", "-k", "1"], "flat (0)"),   # s = 2 ranks 2 champions
        (["-n", "6", "--transport", "tcp"], "flat (0)"),
    ], ids=["sharded", "two-champions", "tcp"])
    def test_shard_size_auto(self, argv, chosen):
        code, text = run_cli(["demo", "--seed", "3", "--shard-size", "auto"]
                             + argv)
        assert code == 0
        assert f"shard-size auto: {chosen} for" in text
        assert "consistency: OK" in text

    def test_streaming_flag_is_gone(self):
        with pytest.raises(SystemExit):
            run_cli(["demo", "-n", "3", "--streaming"])


class TestOtherCommands:
    def test_games(self):
        code, text = run_cli(["games", "--trials", "6"])
        assert code == 0
        assert "IND-CPA (honest):" in text
        assert "no permute" in text

    def test_netsim(self):
        code, text = run_cli(["netsim", "-n", "4"])
        assert code == 0
        assert "communication time:" in text
        assert "80 nodes / 320 edges" in text

    def test_report(self):
        # Seed one result so the test holds on a fresh clone (before any
        # bench run has populated benchmarks/results/).
        from benchmarks.harness import RESULTS_DIR, write_result

        write_result("zz_cli_test", "CLI-TEST-SENTINEL")
        try:
            code, text = run_cli(["report"])
            assert code == 0
            assert "====" in text
            assert "CLI-TEST-SENTINEL" in text
        finally:
            (RESULTS_DIR / "zz_cli_test.txt").unlink()

    def test_plan(self):
        code, text = run_cli(["plan", "-n", "5", "-m", "4"])
        assert code == 0
        assert "deployment estimate" in text
        assert "participant compute" in text

    def test_curves(self):
        code, text = run_cli(["curves"])
        assert code == 0
        assert "secp160r1" in text
        assert "MODP-3072" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli([])
