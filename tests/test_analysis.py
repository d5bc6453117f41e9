"""Tests for complexity models, cost calibration, and security games."""

import pytest

from repro.analysis.complexity import (
    PARTICIPANT_COST_BAND,
    framework_participant_bits,
    framework_participant_cost,
    framework_round_count,
    initiator_cost,
    ss_framework_participant_cost,
    ss_framework_round_count,
    ss_sort_comparison_count,
)
from repro.analysis.costmodel import CostModel, calibrate_ecc, calibrate_field
from repro.analysis.counting import CountingGroup, counted_run
from repro.analysis.games import (
    broken_encryptor_factory,
    estimate_advantage,
    ind_cpa_game,
)
from repro.groups.base import OperationCounter
from repro.math.rng import SeededRNG


class TestComplexityModels:
    def test_framework_growth_is_quadratic_in_n(self):
        """Doubling n should roughly quadruple the dominant cost."""
        l, lam = 66, 160
        c20 = framework_participant_cost(20, l, lam).total
        c40 = framework_participant_cost(40, l, lam).total
        ratio = c40 / c20
        assert 3.0 < ratio < 5.0

    def test_ss_growth_is_cubic_in_n(self):
        l = 66
        c20 = ss_framework_participant_cost(20, l)
        c40 = ss_framework_participant_cost(40, l)
        ratio = c40 / c20
        assert 6.0 < ratio < 16.0  # ~2³ with (log n)³ drift

    def test_ss_overtakes_framework(self):
        """The paper's headline: SS costs more for moderate n and beyond.

        Units differ (group vs field mults), but even before weighting by
        per-op cost the SS count passes the framework count well below
        the paper's n = 25 setting."""
        l, lam = 66, 1024
        assert ss_framework_participant_cost(25, l) > framework_participant_cost(
            25, l, lam
        ).total

    def test_shuffle_dominates_breakdown(self):
        breakdown = framework_participant_cost(25, 66, 1024)
        assert breakdown.shuffle_chain > breakdown.total / 2

    def test_naive_suffix_costs_more(self):
        fast = framework_participant_cost(25, 66, 160, naive_suffix=False)
        slow = framework_participant_cost(25, 66, 160, naive_suffix=True)
        assert slow.comparison_circuit > fast.comparison_circuit

    def test_round_counts(self):
        assert framework_round_count(30) - framework_round_count(20) == 10
        # Paper accounting: SS rounds explode with l and n.
        assert ss_framework_round_count(25, 66) > 1e6
        assert ss_framework_round_count(25, 66, sequential=False) < 1e3

    def test_model_tracks_counting_runs(self):
        """Counted ÷ modeled participant multiplications at the paper's
        parameters stay in the stated band and fall as n grows."""
        ratios = []
        for n in (3, 4, 8):
            run = counted_run(
                CountingGroup.like_dl(1024), n, m=10, num_equal=4,
                d1=15, d2=15, h=15,
            )
            assert run.beta_bits == 67
            modeled = framework_participant_cost(n, 67, 1023).total
            ratios.append(
                run.max_participant_ops.equivalent_multiplications / modeled
            )
        low, high = PARTICIPANT_COST_BAND
        assert all(low < ratio < high for ratio in ratios), ratios
        assert ratios[0] > ratios[1] > ratios[2], ratios

    def test_initiator_linear(self):
        assert initiator_cost(50, 10) == 2 * initiator_cost(25, 10)

    def test_bits_quadratic(self):
        b20 = framework_participant_bits(20, 66, 2048)
        b40 = framework_participant_bits(40, 66, 2048)
        assert 3.5 < b40 / b20 < 4.5

    def test_comparison_count_matches_real_network(self):
        from repro.sorting.networks import batcher_odd_even

        for n in (5, 16, 33):
            assert ss_sort_comparison_count(n) == batcher_odd_even(n).comparator_count


class TestCostModel:
    def test_seconds_for_counter(self):
        model = CostModel("x", seconds_per_exponentiation=1e-3,
                          seconds_per_multiplication=1e-6)
        counter = OperationCounter()
        counter.record_exp(160)
        counter.record_mul(1000)
        assert model.seconds_for(counter) == pytest.approx(1e-3 + 1e-3)

    def test_field_calibration_positive_and_monotone(self):
        small = calibrate_field(64, repetitions=200)
        big = calibrate_field(2048, repetitions=200)
        assert 0 < small.seconds_per_multiplication
        assert big.seconds_per_multiplication > small.seconds_per_multiplication

    def test_ecc_calibration(self):
        model = calibrate_ecc("secp160r1", repetitions=3)
        assert model.seconds_per_exponentiation > model.seconds_per_multiplication > 0

    def test_unknown_level_rejected(self):
        from repro.analysis.costmodel import cost_model_for

        with pytest.raises(ValueError):
            cost_model_for("DL", 99)


class TestIndCpaGame:
    def test_honest_scheme_resists(self, small_dl_group):
        advantage = ind_cpa_game(small_dl_group, trials=80, rng=SeededRNG(1))
        assert abs(advantage) < 0.35

    def test_broken_scheme_loses(self, small_dl_group):
        advantage = ind_cpa_game(
            small_dl_group,
            encryptor=broken_encryptor_factory(),
            trials=40,
            rng=SeededRNG(2),
        )
        assert advantage > 0.9

    def test_estimate_advantage_balanced_sampling(self):
        # A trial that always answers b exactly has advantage 1.
        assert estimate_advantage(lambda b, rng: b, 50) == pytest.approx(1.0)
        # A constant guess has advantage 0.
        assert estimate_advantage(lambda b, rng: 1, 50) == pytest.approx(0.0)
        assert estimate_advantage(lambda b, rng: 0, 50) == pytest.approx(0.0)

    def test_zero_trials(self):
        assert estimate_advantage(lambda b, rng: b, 1) == 0.0
