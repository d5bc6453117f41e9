"""Cross-module integration tests.

These exercise the seams the unit tests cannot: the framework against
the SS baseline on identical inputs, framework transcripts through the
network simulator, measured operation counts against the Section VI-B
complexity formulas, and the whole stack over both group families.
"""

import pytest

from repro.analysis.complexity import (
    framework_participant_cost,
    framework_round_count,
)
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput
from repro.math.primes import next_prime
from repro.math.rng import SeededRNG
from repro.netsim.topology import random_connected_topology
from repro.netsim.transport import replay_transcript
from repro.sharing.arithmetic import SSContext
from repro.sorting.ss_sort import ss_sort_with_ranks
from tests.conftest import make_participants


def run_small_framework(group, schema, initiator_input, n=4, seed=3, **kwargs):
    participants = make_participants(schema, n, seed=seed)
    config = FrameworkConfig(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6, **kwargs
    )
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run()


class TestFrameworkVersusSSBaseline:
    def test_same_ranking_from_both_systems(self, small_dl_group, small_schema,
                                            small_initiator_input):
        """Feed the framework's β values to the SS sort (exactly what the
        paper's evaluation does) and compare rankings."""
        framework, result = run_small_framework(
            small_dl_group, small_schema, small_initiator_input, n=5
        )
        betas = [result.betas[j] for j in sorted(result.betas)]
        field = next_prime(4 * max(betas) + 17)
        context = SSContext(parties=5, prime=field, rng=SeededRNG(8))
        ss_result = ss_sort_with_ranks(context, betas)
        assert ss_result.ranks == result.ranks

    def test_ss_baseline_leaks_what_framework_hides(self, small_dl_group,
                                                    small_schema,
                                                    small_initiator_input):
        """The SS sort opens the full permutation (every party's rank is
        public); the framework's transcript never carries a plaintext
        rank for a non-submitting participant."""
        framework, result = run_small_framework(
            small_dl_group, small_schema, small_initiator_input, n=5
        )
        betas = [result.betas[j] for j in sorted(result.betas)]
        field = next_prime(4 * max(betas) + 17)
        ss_result = ss_sort_with_ranks(
            SSContext(parties=5, prime=field, rng=SeededRNG(9)), betas
        )
        # SS baseline: all 5 ranks visible.
        assert len(ss_result.ranks) == 5
        # Framework: only top-k (k=2) ranks travel to the initiator.
        submissions = [e for e in result.transcript if e.tag == "submission"]
        assert len(submissions) == 5  # everyone answers ...
        assert len(result.initiator_output.selected) == 2  # ... but only 2 reveal


class TestFrameworkOverNetwork:
    def test_transcript_replays_end_to_end(self, small_dl_group, small_schema,
                                           small_initiator_input):
        framework, result = run_small_framework(
            small_dl_group, small_schema, small_initiator_input, n=4
        )
        topology = random_connected_topology(20, 32, SeededRNG(10))
        topology.place_parties([0, 1, 2, 3, 4], SeededRNG(11))
        replay = replay_transcript(result.transcript, topology)
        assert replay.rounds == result.rounds
        assert replay.total_bits == result.transcript.total_bits
        assert replay.total_time_s > 0

    def test_network_time_grows_with_group_size(self, small_schema,
                                                small_initiator_input):
        """Bigger ciphertexts (larger group) → more bits → more network
        time, protocol structure unchanged."""
        from repro.groups.dl import DLGroup

        topology = random_connected_topology(20, 32, SeededRNG(12))
        topology.place_parties([0, 1, 2, 3], SeededRNG(13))
        times = {}
        for bits in (32, 64):
            group = DLGroup.random(bits, rng=SeededRNG(bits))
            _, result = run_small_framework(
                group, small_schema, small_initiator_input, n=3
            )
            times[bits] = replay_transcript(result.transcript, topology).total_time_s
        assert times[64] > times[32]


class TestMeasuredVersusModel:
    def test_operation_counts_track_the_model(self, small_dl_group, small_schema,
                                              small_initiator_input):
        """Measured per-participant multiplications should scale with n
        the way the Section VI-B model says (quadratically, dominated by
        the shuffle chain)."""
        measured = {}
        for n in (3, 6):
            _, result = run_small_framework(
                small_dl_group, small_schema, small_initiator_input, n=n
            )
            measured[n] = result.max_participant_multiplications()
        lam = small_dl_group.order.bit_length()
        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema, num_participants=3,
            k=2, rho_bits=6,
        )
        l = config.beta_bits
        model_ratio = (
            framework_participant_cost(6, l, lam).total
            / framework_participant_cost(3, l, lam).total
        )
        measured_ratio = measured[6] / measured[3]
        assert measured_ratio == pytest.approx(model_ratio, rel=0.35)

    def test_round_count_matches_model(self, small_dl_group, small_schema,
                                       small_initiator_input):
        for n in (3, 5):
            _, result = run_small_framework(
                small_dl_group, small_schema, small_initiator_input, n=n
            )
            assert result.rounds == framework_round_count(n)


class TestRealCrypto:
    def test_framework_over_secp160r1(self, small_schema, small_initiator_input):
        """The full protocol at genuine 80-bit security (paper's ECC
        tier): two participants so the run stays seconds-scale."""
        from repro.groups.curves import get_curve

        group = get_curve("secp160r1")
        participants = make_participants(small_schema, 2, seed=31)
        config = FrameworkConfig(
            group=group, schema=small_schema, num_participants=2, k=1,
            rho_bits=5, zkp_mode="fiat-shamir",
        )
        framework = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(32)
        )
        result = framework.run()
        assert framework.check_result(result) == []
        # Measured wire sizes reflect compressed 161-bit points: 2·l
        # element bodies of a marker byte plus 21 point bytes, and less
        # than 64 bytes of framing (tags, headers, the AEAD envelope).
        assert group.wire_bytes == 21
        body_bits = config.beta_bits * 2 * 8 * (1 + group.wire_bytes)
        beta_entries = [e for e in result.transcript if e.tag == "beta-bits"]
        assert body_bits < beta_entries[0].size_bits < body_bits + 8 * 64

    def test_framework_over_dl1024(self, small_schema, small_initiator_input):
        """And at the paper's DL tier (1024-bit safe-prime group)."""
        from repro.groups.dl import DLGroup

        group = DLGroup.standard(1024)
        participants = make_participants(small_schema, 2, seed=33)
        config = FrameworkConfig(
            group=group, schema=small_schema, num_participants=2, k=1,
            rho_bits=5, zkp_mode="fiat-shamir",
        )
        framework = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(34)
        )
        result = framework.run()
        assert framework.check_result(result) == []


class TestFullStackVariants:
    def test_paper_parameter_shape_small_n(self, small_dl_group):
        """The paper's m=10 questionnaire shape (scaled-down bit widths)."""
        schema = AttributeSchema(
            names=tuple(f"q{i}" for i in range(10)), num_equal=4,
            value_bits=5, weight_bits=4,
        )
        initiator = InitiatorInput.create(
            schema, [7] * 10, [3] * 10
        )
        participants = make_participants(schema, 4, seed=21)
        config = FrameworkConfig(
            group=small_dl_group, schema=schema, num_participants=4, k=2,
            rho_bits=5,
        )
        framework = GroupRankingFramework(config, initiator, participants,
                                          rng=SeededRNG(22))
        result = framework.run()
        assert framework.check_result(result) == []

    def test_paper_beta_mode(self, small_dl_group, small_schema,
                             small_initiator_input):
        """mode='paper' uses the paper's (typo'd but larger-h) formula —
        for these small widths it still bounds β, so the run is exact."""
        framework, result = run_small_framework(
            small_dl_group, small_schema, small_initiator_input,
            n=3, beta_mode="paper",
        )
        assert framework.check_result(result) == []

    def test_naive_suffix_variant_correct_but_costlier(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        _, fast = run_small_framework(
            small_dl_group, small_schema, small_initiator_input, n=3
        )
        framework, slow = run_small_framework(
            small_dl_group, small_schema, small_initiator_input,
            n=3, naive_suffix=True,
        )
        assert framework.check_result(slow) == []
        assert (
            slow.max_participant_multiplications()
            > fast.max_participant_multiplications()
        )
