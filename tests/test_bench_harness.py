"""Tests for the benchmark harness utilities (they gate the figures)."""

import pytest

from benchmarks.harness import (
    PAPER_DEFAULTS,
    counting_run,
    format_series_table,
    growth_exponent,
    ss_participant_seconds,
)
from repro.analysis.costmodel import cost_model_for
from repro.groups.params import TIERS


class TestCountingRuns:
    def test_cache_returns_same_object(self):
        a = counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5)
        b = counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5)
        assert a is b

    def test_family_wire_sizes(self):
        dl = counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5, family="DL")
        ecc = counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5, family="ECC")
        # Same protocol structure, different ciphertext sizes on the wire.
        assert dl.rounds == ecc.rounds
        assert dl.transcript.total_bits > ecc.transcript.total_bits
        ratio = dl.transcript.total_bits / ecc.transcript.total_bits
        assert 4 < ratio < 8  # ≈ 2048-bit vs 322-bit ciphertexts, mixed traffic

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5, family="RSA")

    def test_paper_defaults_sane(self):
        assert PAPER_DEFAULTS["n"] == 25
        assert PAPER_DEFAULTS["d1"] == PAPER_DEFAULTS["h"] == 15
        assert set(TIERS) == {80, 112, 128}


class TestPricing:
    def test_dl_prices_higher_than_ecc(self):
        ops = counting_run(n=4, m=4, t=2, d1=5, d2=5, h=5).max_participant_ops
        assert cost_model_for("DL", 80).seconds_for(ops) > \
            cost_model_for("ECC", 80).seconds_for(ops)

    def test_ss_pricing_positive_and_grows(self):
        assert 0 < ss_participant_seconds(5, 40) < ss_participant_seconds(10, 40)


class TestFormatting:
    def test_table_structure(self):
        table = format_series_table("T", "x", [1, 2], {"a": [1.0, 2.0]})
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "x" in lines[2] and "a" in lines[2]
        assert len(lines) == 7  # title, rule, header, rule, 2 rows, rule

    def test_growth_exponent_recovers_power(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        assert growth_exponent(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert growth_exponent(xs, [x**3 for x in xs]) == pytest.approx(3.0)
        assert growth_exponent(xs, [5.0] * 4) == pytest.approx(0.0)
