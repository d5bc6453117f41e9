"""End-to-end tests of the measured-bytes wire path.

Covers the transport-level guarantees the codec unit tests cannot:
measured per-participant traffic against the paper's closed form
(Section VI-B), and digest determinism and equal protocol outcomes
between the fault-free framing (one batch per sender, receiver and
round) and the faulted-run framing (each message alone).
"""

import pytest

from repro.analysis.complexity import framework_participant_bits
from repro.analysis.counting import CountingGroup
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput
from repro.math.rng import SeededRNG
from repro.runtime.faults import FaultSpec
from repro.runtime.metrics import PartyMetrics, merge_max
from tests.conftest import make_participants


#: A one-spec plan that never fires: it makes the run frame every
#: message alone, as any faulted run does, and changes nothing else.
NEVER_FIRES = [FaultSpec(kind="drop", party=1, tag="never-sent")]


def run_wired(group, schema, initiator_input, participants, seed=21,
              faults=None, **config_kwargs):
    config = FrameworkConfig(
        group=group,
        schema=schema,
        num_participants=len(participants),
        k=2,
        rho_bits=6,
        **config_kwargs,
    )
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run(faults)


def _module_schema():
    schema = AttributeSchema(
        names=("age", "pressure", "friends", "income"),
        num_equal=2,
        value_bits=6,
        weight_bits=4,
    )
    initiator = InitiatorInput.create(
        schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7]
    )
    return schema, initiator


@pytest.fixture(scope="module")
def wired_runs(small_dl_group):
    """One n=4 instance, batched and under a plan that never fires."""
    small_schema, small_initiator_input = _module_schema()
    participants = make_participants(small_schema, 4, seed=41)
    return {
        key: run_wired(
            small_dl_group, small_schema, small_initiator_input,
            participants, faults=faults,
        )
        for key, faults in (("measured", None), ("framed_alone", NEVER_FIRES))
    }


class TestOutcomeEquality:
    def test_all_modes_rank_identically(self, wired_runs):
        ranks = [result.ranks for _, result in wired_runs.values()]
        assert all(r == ranks[0] for r in ranks)

    def test_all_modes_pass_reference_check(self, wired_runs):
        for framework, result in wired_runs.values():
            assert framework.check_result(result) == []


class TestClosedForm:
    @pytest.mark.parametrize("n", [4, 8])
    def test_participant_bits_within_closed_form(self, n):
        """Each participant's measured traffic stays within 20 % of the
        paper's per-participant closed form ``O(l·S_c·n²)`` (Section
        VI-B).  A 1024-bit counting group gives paper-size ciphertexts,
        so envelopes and framing are second-order; at 48 bits they are
        not (1.25–1.53× there)."""
        schema, initiator_input = _module_schema()
        config = FrameworkConfig(
            group=CountingGroup(element_bits=1024, order_bits=1023),
            schema=schema, num_participants=n, k=2, rho_bits=6,
        )
        framework = GroupRankingFramework(
            config, initiator_input, make_participants(schema, n, seed=23),
            rng=SeededRNG(29),
        )
        result = framework.run()
        closed = framework_participant_bits(
            n, config.beta_bits, config.ciphertext_bits()
        )
        for metrics in result.participant_metrics():
            assert 0.8 <= metrics.bits_sent / closed <= 1.2, metrics.party_id


class TestDeterminismDigest:
    def test_digest_identical_coalesce_on_off(self, wired_runs):
        """Acceptance criterion: the serialized payload stream is
        byte-identical whether or not messages are batched."""
        _, on = wired_runs["measured"]
        _, off = wired_runs["framed_alone"]
        assert on.ranks == off.ranks
        assert on.wire_stats.digest == off.wire_stats.digest
        assert on.wire_stats.canonical_digest == off.wire_stats.canonical_digest

    def test_digest_stable_across_repeat_runs(self, small_dl_group,
                                              small_schema,
                                              small_initiator_input):
        participants = make_participants(small_schema, 3, seed=5)
        digests = set()
        for _ in range(2):
            _, result = run_wired(
                small_dl_group, small_schema, small_initiator_input,
                participants,
            )
            digests.add(result.wire_stats.digest)
        assert len(digests) == 1


class TestCoalescingAccounting:
    def test_coalescing_cuts_wire_messages(self, wired_runs):
        _, on = wired_runs["measured"]
        _, off = wired_runs["framed_alone"]
        assert on.wire_stats.wire_messages < off.wire_stats.wire_messages / 3
        assert on.wire_stats.wire_bits < off.wire_stats.wire_bits

    def test_transcript_totals_match_wire_stats(self, wired_runs):
        for key in ("measured", "framed_alone"):
            _, result = wired_runs[key]
            assert result.transcript.total_bits == result.wire_stats.wire_bits
            assert result.transcript.total_frames == result.wire_stats.wire_messages

    def test_metrics_consistent_with_transcript(self, wired_runs):
        _, result = wired_runs["measured"]
        per_party = result.transcript.bits_per_party()
        for pid, metrics in result.metrics.items():
            sent, received = per_party.get(pid, (0, 0))
            assert metrics.bits_sent == sent
            assert metrics.bits_received == received


class TestFaultInterplay:
    def test_lost_message_under_measured_wire_recovers(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """Retransmit path: batching is bypassed under injection, and
        the supervisor's retry still completes the run."""
        participants = make_participants(small_schema, 3, seed=9)
        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema,
            num_participants=3, k=2, rho_bits=6,
        )
        framework = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(2)
        )
        result = framework.run(
            faults=[FaultSpec(kind="drop", party=1, count=1)]
        )
        assert framework.check_result(result) == []
        assert result.wire_stats.wire_messages > 0

    def test_empty_fault_plan_is_no_plan(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """``faults=[]`` must not reach the engine as an injector: one
        would frame every message alone and change the accounting of a
        fault-free run."""
        participants = make_participants(small_schema, 3, seed=9)
        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema,
            num_participants=3, k=2, rho_bits=6,
        )
        stats = [
            GroupRankingFramework(
                config, small_initiator_input, participants, rng=SeededRNG(2)
            ).run(faults=faults).wire_stats
            for faults in (None, [])
        ]
        assert stats[0] == stats[1]


class TestAnonmsgWire:
    def test_collection_is_measured(self, small_dl_group):
        from repro.anonmsg.collection import run_anonymous_collection

        messages = [9, 2, 14]
        result = run_anonymous_collection(
            small_dl_group, messages, SeededRNG(31)
        )
        assert result.messages == sorted(messages)
        stats = result.wire_stats
        assert stats.logical_messages == len(result.transcript) > 0
        assert stats.wire_bits == result.transcript.total_bits


class TestMergeMaxReceiveSide:
    def test_receive_dimensions_included(self):
        """Satellite fix: a receive-dominated party must surface in the
        worst-case report."""
        sender = PartyMetrics(party_id=1)
        receiver = PartyMetrics(party_id=2)
        sender.record_send(1000)
        receiver.record_receive(1000)
        receiver.record_receive(2000)
        merged = merge_max({1: sender, 2: receiver})
        assert merged["bits_received"] == 3000
        assert merged["messages_received"] == 2
        assert merged["bits_sent"] == 1000
        assert merged["messages_sent"] == 1
