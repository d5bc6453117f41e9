"""The sharded composition's closed forms and the crossover they predict.

Section VI-B's costs as functions of n (:mod:`repro.analysis.complexity`).
When the shard size s divides n the balanced partition is uniform, so
every participant pays the flat cost at n = s (the sharded total is
linear in n) and the candidate count is k·n/s.
"""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.harness import RESULTS_DIR
from benchmarks.test_perf_sharded import model_fields
from repro.analysis.complexity import (
    aggregation_candidates,
    aggregation_field_bits,
    aggregation_invocation_count,
    aggregation_probe_estimate,
    framework_participant_bits,
    framework_participant_cost,
    lsb_comparison_invocations,
    lsb_comparison_messages,
    sharded_aggregation_bits,
    sharded_participant_cost,
    sharding_crossover,
    sharding_totals,
)
from repro.analysis.tradeoff import find_crossover
from repro.groups.params import make_test_group

L, LAMBDA, K, S, CIPHERTEXT = 29, 1024, 2, 16, 2048


def speedup(metric, n):
    flat, sharded = sharding_totals(n, S, K, L, LAMBDA, CIPHERTEXT)[metric]
    return flat / sharded


class TestExactAgreement:
    @pytest.mark.parametrize("n", [32, 48, 64, 128, 256])
    def test_multiplications_match_closed_form(self, n):
        flat, sharded = sharding_totals(n, S, K, L, LAMBDA, CIPHERTEXT)[
            "multiplications"
        ]
        assert flat == n * framework_participant_cost(n, L, LAMBDA).total
        assert sharded == n * framework_participant_cost(S, L, LAMBDA).total

    @pytest.mark.parametrize("n", [32, 48, 64, 128, 256])
    def test_bits_match_closed_form(self, n):
        flat, sharded = sharding_totals(n, S, K, L, LAMBDA, CIPHERTEXT)["bits"]
        assert flat == n * framework_participant_bits(n, L, CIPHERTEXT)
        assert aggregation_candidates(n, S, K) == K * n // S
        assert sharded == (
            n * framework_participant_bits(S, L, CIPHERTEXT)
            + sharded_aggregation_bits(n, S, K, L)
        )

    def test_aggregation_terms_match(self):
        # c = 8 candidates in a 31-bit field: 5 probes of 8 comparisons
        # at 3·31 + 1 invocations each, plus one Batcher comparator (a
        # comparison and two conditional-swap multiplications).
        assert aggregation_invocation_count(64, S, K, L) == 5 * 8 * 94 + 96


class TestClosedForms:
    def test_candidate_count(self):
        assert aggregation_candidates(64, 16, 2) == 8
        assert aggregation_candidates(10, 4, 2) == 6   # shards [4, 3, 3]
        assert aggregation_candidates(8, 4, 16) == 8   # k clipped per shard

    def test_field_bits_is_l_plus_two(self):
        from repro.sharding.aggregate import aggregation_prime

        for l in (8, 13, 29):
            assert aggregation_field_bits(l) == aggregation_prime(l).bit_length()

    def test_lsb_constants(self):
        assert lsb_comparison_invocations(31) == 94
        # messages = (invocations + openings)·c(c−1) + dealing
        c, w = 8, 31
        expected = (3 * w + 1 + w + 2) * c * (c - 1) + w * c * (c - 1)
        assert lsb_comparison_messages(w, c) == expected

    def test_probe_estimate_grows_logarithmically(self):
        assert aggregation_probe_estimate(8) == 5
        assert aggregation_probe_estimate(2) == 3
        assert (
            aggregation_probe_estimate(1024)
            - aggregation_probe_estimate(2)
            == math.log2(1024) - 1
        )

    def test_sharded_cost_is_constant_per_participant(self):
        small = sharded_participant_cost(64, 16, L, LAMBDA).total
        large = sharded_participant_cost(256, 16, L, LAMBDA).total
        assert small == large  # n only changes the shard *count*


class TestCrossover:
    def test_sharding_wins_just_past_the_shard_size(self):
        assert sharding_crossover(
            "multiplications", S, K, L, LAMBDA, CIPHERTEXT
        ) == S + 1
        crossover_bits = sharding_crossover("bits", S, K, L, LAMBDA, CIPHERTEXT)
        assert crossover_bits is not None
        assert crossover_bits <= 64
        assert crossover_bits == S + 1

    @pytest.mark.parametrize("l, lambda_bits, ciphertext_bits", [
        (29, 63, 128),      # BENCH_sharded's 64-bit test group
        (67, 160, 322),     # TAB-VIB's ECC-160 point
    ])
    def test_crossover_at_the_bench_points(self, l, lambda_bits,
                                           ciphertext_bits):
        for metric in ("multiplications", "bits"):
            assert sharding_crossover(
                metric, S, K, l, lambda_bits, ciphertext_bits
            ) == S + 1

    def test_speedup_exceeds_acceptance_gate_at_bench_point(self):
        assert speedup("multiplications", 64) >= 3.0
        assert speedup("bits", 64) >= 3.0
        assert sharded_aggregation_bits(64, S, K, L) > 0

    def test_speedup_grows_with_n(self):
        assert speedup("multiplications", 128) > speedup("multiplications", 64)

    def test_aggregation_eventually_dominates(self):
        """The champion round's bits grow like c³ in the candidate count,
        so far past the bench point they outweigh the shards' bits."""
        found = find_crossover(
            lambda n: n * framework_participant_bits(S, L, CIPHERTEXT),
            lambda n: sharded_aggregation_bits(n, S, K, L),
            2 * S, 1 << 22,
        )
        assert found is not None
        assert found.at > 64

    def test_validation(self):
        with pytest.raises(ValueError):
            sharded_participant_cost(64, 1, L, LAMBDA)
        with pytest.raises(ValueError):
            sharding_crossover("rounds", S, K, L, LAMBDA, CIPHERTEXT)

    def test_committed_bench_model_side(self):
        """BENCH_sharded.json's model fields follow from its measured
        counts and the closed forms."""
        committed = json.loads((RESULTS_DIR / "BENCH_sharded.json").read_text())
        group = make_test_group()
        fields = model_fields(
            committed, group.order.bit_length(), 2 * group.element_bits
        )
        assert fields == {key: committed[key] for key in fields}
