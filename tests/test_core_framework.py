"""End-to-end tests of the full three-phase framework."""

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.core.parties import INITIATOR_ID
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from tests.conftest import make_participants


def run_framework(group, schema, initiator_input, participants, k=2, seed=1, **config_kwargs):
    config = FrameworkConfig(
        group=group,
        schema=schema,
        num_participants=len(participants),
        k=k,
        rho_bits=6,
        **config_kwargs,
    )
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run()


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_ranks_match_reference(self, small_dl_group, small_schema,
                                   small_initiator_input, n):
        participants = make_participants(small_schema, n, seed=n)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert framework.check_result(result) == []

    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_multiple_seeds(self, small_dl_group, small_schema,
                            small_initiator_input, seed):
        participants = make_participants(small_schema, 4, seed=seed)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, seed=seed,
        )
        assert framework.check_result(result) == []

    def test_ranks_are_expected_exactly_when_gains_distinct(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 5, seed=7)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        gains = framework.expected_partial_gains()
        if len(set(gains.values())) == len(gains):
            assert result.ranks == framework.expected_ranks()

    def test_tied_gains_get_adjacent_ranks(self, small_dl_group, small_schema,
                                           small_initiator_input):
        """Equal partial gains are tie-broken by the masks ρ_j (the paper:
        "if p_i = p_j, it does not matter if P_i ranks higher or lower");
        the tied pair must land on the two top ranks in some order."""
        clone = ParticipantInput.create(small_schema, [30, 20, 40, 50])
        other = ParticipantInput.create(small_schema, [1, 1, 1, 1])
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            [clone, clone, other], k=2,
        )
        assert {result.ranks[1], result.ranks[2]} == {1, 2}
        assert result.ranks[3] == 3
        assert sorted(result.selected_ids()) == [1, 2]
        assert framework.check_result(result) == []

    def test_k_equals_n_everyone_selected(self, small_dl_group, small_schema,
                                          small_initiator_input):
        participants = make_participants(small_schema, 3, seed=9)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, k=3,
        )
        assert sorted(result.selected_ids()) == [1, 2, 3]

    def test_k_equals_one(self, small_dl_group, small_schema, small_initiator_input):
        participants = make_participants(small_schema, 4, seed=10)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            participants, k=1,
        )
        (winner,) = result.selected_ids()
        gains = framework.expected_partial_gains()
        assert gains[winner] == max(gains.values())

    def test_initiator_verifies_submissions(self, small_dl_group, small_schema,
                                            small_initiator_input):
        participants = make_participants(small_schema, 4, seed=12)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert result.initiator_output.verified
        assert result.initiator_output.anomalies == []

    def test_betas_preserve_gain_order(self, small_dl_group, small_schema,
                                       small_initiator_input):
        participants = make_participants(small_schema, 5, seed=13)
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        gains = framework.expected_partial_gains()
        ids = sorted(gains)
        for a in ids:
            for b in ids:
                if gains[a] < gains[b]:
                    assert result.betas[a] < result.betas[b]


class TestStructure:
    def test_consecutive_runs_on_one_group_tally_alike(
        self, small_schema, small_initiator_input
    ):
        """A run starts with the group's memos empty: a second run of
        the same instance on the same group object checks and hits the
        membership memo exactly as the first did."""
        group = DLGroup.random(48, rng=SeededRNG(101))
        participants = make_participants(small_schema, 4, seed=13)
        tallies = [
            {
                pid: (m.ops.membership_checks, m.ops.membership_cache_hits)
                for pid, m in run_framework(
                    group, small_schema, small_initiator_input, participants
                )[1].metrics.items()
            }
            for _ in range(2)
        ]
        assert tallies[0] == tallies[1]

    def test_rounds_grow_linearly(self, small_dl_group, small_schema,
                                  small_initiator_input):
        rounds = {}
        for n in (3, 5, 7):
            participants = make_participants(small_schema, n, seed=n)
            _, result = run_framework(
                small_dl_group, small_schema, small_initiator_input, participants
            )
            rounds[n] = result.rounds
        # The chain adds one round per participant.
        assert rounds[5] - rounds[3] == 2
        assert rounds[7] - rounds[5] == 2

    def test_transcript_has_expected_phases(self, small_dl_group, small_schema,
                                            small_initiator_input):
        participants = make_participants(small_schema, 3, seed=14)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        tags = set(entry.tag for entry in result.transcript)
        assert {
            "dp-request", "dp-response", "pk-share", "zkp-commit",
            "zkp-challenge", "zkp-response", "beta-bits", "tau-sets",
            "chain", "final-set", "submission",
        } <= tags

    def test_shuffle_chain_dominates_communication(self, small_dl_group,
                                                   small_schema,
                                                   small_initiator_input):
        participants = make_participants(small_schema, 5, seed=15)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        bits_by_tag = {}
        for entry in result.transcript:
            bits_by_tag[entry.tag] = bits_by_tag.get(entry.tag, 0) + entry.size_bits
        assert bits_by_tag["chain"] == max(bits_by_tag.values())

    def test_metrics_cover_all_parties(self, small_dl_group, small_schema,
                                       small_initiator_input):
        participants = make_participants(small_schema, 3, seed=16)
        _, result = run_framework(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        assert set(result.metrics) == {0, 1, 2, 3}
        for pid in (1, 2, 3):
            assert result.metrics[pid].ops.exponentiations > 0
        # The initiator only verifies ZKPs; her group work is a small
        # constant per participant, far below any participant's load.
        initiator_exps = result.metrics[INITIATOR_ID].ops.exponentiations
        assert 0 < initiator_exps < min(
            result.metrics[pid].ops.exponentiations for pid in (1, 2, 3)
        )

    def test_works_on_elliptic_curve_group(self, tiny_curve, small_schema,
                                           small_initiator_input):
        participants = make_participants(small_schema, 3, seed=18)
        framework, result = run_framework(
            tiny_curve, small_schema, small_initiator_input, participants
        )
        assert framework.check_result(result) == []


class TestConfigValidation:
    def test_too_few_participants(self, small_dl_group, small_schema):
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=1, k=1)

    def test_k_out_of_range(self, small_dl_group, small_schema):
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=3, k=4)
        with pytest.raises(ValueError):
            FrameworkConfig(group=small_dl_group, schema=small_schema,
                            num_participants=3, k=0)

    def test_input_count_mismatch(self, small_dl_group, small_schema,
                                  small_initiator_input):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=3, k=1)
        with pytest.raises(ValueError):
            GroupRankingFramework(
                config, small_initiator_input,
                make_participants(small_schema, 2),
            )

    def test_beta_bits_derived(self, small_dl_group, small_schema):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=3, k=1, rho_bits=8)
        assert config.beta_bits > 8
        assert config.dp_field_prime > (1 << config.beta_bits)

    def test_participant_ids(self, small_dl_group, small_schema):
        config = FrameworkConfig(group=small_dl_group, schema=small_schema,
                                 num_participants=4, k=1)
        assert config.participant_ids == [1, 2, 3, 4]
