"""Fault injection: misbehaving parties and what the framework does.

The HBC model assumes parties follow the protocol; these tests check the
framework *fails loudly* (or detects, where the paper says detection is
possible) when they do not:

* a participant who cannot prove knowledge of her key share is rejected
  by her peers (interactive and Fiat-Shamir modes);
* malformed bitwise ciphertexts are rejected structurally;
* a participant who over-claims her rank is flagged by the initiator's
  gain re-verification (paper Section V, last paragraphs);
* a chain member who drops ciphertexts is caught by the size check.
"""

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.core.parties import InitiatorParty, ParticipantParty
from repro.crypto.bitenc import BitwiseCiphertext
from repro.math.rng import SeededRNG
from repro.runtime.engine import Engine
from repro.runtime.errors import ProtocolAbort, ProtocolError
from tests.conftest import make_participants


class CheatingProver(ParticipantParty):
    """Publishes a key share she cannot prove knowledge of."""

    def _proof_secret(self, secret):
        return (secret + 1) % self.config.group.order


class MalformedBitsSender(ParticipantParty):
    """Publishes a truncated bitwise ciphertext."""

    def _published_beta_bits(self, bitwise, beta, joint_key):
        honest = super()._published_beta_bits(bitwise, beta, joint_key)
        return BitwiseCiphertext(bits=honest.bits[:-2])


class RankOverclaimer(ParticipantParty):
    """Always claims rank 1, whatever her true rank."""

    def _claimed_rank(self, rank):
        return 1


def build_engine(schema, initiator_input, participant_classes, group,
                 k=1, seed=5, **config_kwargs):
    n = len(participant_classes)
    config = FrameworkConfig(
        group=group, schema=schema, num_participants=n, k=k, rho_bits=6,
        **config_kwargs,
    )
    inputs = make_participants(schema, n, seed=seed)
    engine = Engine(metered_groups=[group])
    base = SeededRNG(seed)
    engine.add_party(InitiatorParty(config, initiator_input, base.fork("init")))
    parties = []
    for j, cls in enumerate(participant_classes, start=1):
        party = cls(config, j, inputs[j - 1], base.fork(f"P{j}"))
        engine.add_party(party)
        parties.append(party)
    return engine, parties


class TestKeyKnowledgeEnforcement:
    def test_cheating_prover_rejected_interactive(self, small_dl_group,
                                                  small_schema,
                                                  small_initiator_input):
        engine, _ = build_engine(
            small_schema, small_initiator_input,
            [ParticipantParty, CheatingProver, ParticipantParty],
            small_dl_group,
        )
        with pytest.raises(ProtocolAbort, match="proof failed"):
            engine.run()

    def test_cheating_prover_rejected_fiat_shamir(self, small_dl_group,
                                                  small_schema,
                                                  small_initiator_input):
        engine, _ = build_engine(
            small_schema, small_initiator_input,
            [ParticipantParty, CheatingProver, ParticipantParty],
            small_dl_group, zkp_mode="fiat-shamir",
        )
        with pytest.raises(ProtocolAbort, match="NIZK failed"):
            engine.run()


class TestStructuralValidation:
    def test_malformed_beta_bits_rejected(self, small_dl_group, small_schema,
                                          small_initiator_input):
        engine, _ = build_engine(
            small_schema, small_initiator_input,
            [ParticipantParty, MalformedBitsSender, ParticipantParty],
            small_dl_group,
        )
        with pytest.raises(ProtocolError, match="malformed bitwise"):
            engine.run()


class TestRankOverclaimDetection:
    def test_initiator_flags_gain_inversion(self, small_dl_group, small_schema,
                                            small_initiator_input):
        """The paper: an over-claimed ranking 'can be detected because
        the selected participant has to submit her information vector
        and the initiator will then be able to recalculate its gain'."""
        # k=2 so both the cheater and the true best submit; find a seed
        # where the over-claimer is NOT genuinely top-2 so the claimed
        # order inverts the recomputed gains.
        for seed in range(3, 30):
            engine, parties = build_engine(
                small_schema, small_initiator_input,
                [ParticipantParty, ParticipantParty, RankOverclaimer,
                 ParticipantParty],
                small_dl_group, k=2, seed=seed,
            )
            outputs = engine.run()
            initiator_output = outputs[0]
            cheater_true_rank = parties[2].rank
            if cheater_true_rank > 2:
                assert not initiator_output.verified
                assert any(
                    "lower gain" in anomaly
                    for anomaly in initiator_output.anomalies
                )
                return
        pytest.fail("no seed produced a low-ranking over-claimer")

    def test_honest_run_not_flagged(self, small_dl_group, small_schema,
                                    small_initiator_input):
        engine, _ = build_engine(
            small_schema, small_initiator_input,
            [ParticipantParty] * 4, small_dl_group, k=2,
        )
        outputs = engine.run()
        assert outputs[0].verified


class TestChainIntegrity:
    def test_dropped_ciphertexts_detected_by_honest_peer(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """A member shipping a truncated comparison set is caught by the
        honest chain head's size check, not by her own code."""

        class DroppingSender(ParticipantParty):
            def _outgoing_tau_set(self, my_set):
                return my_set[:-1]

        engine, _ = build_engine(
            small_schema, small_initiator_input,
            [ParticipantParty, ParticipantParty, DroppingSender],
            small_dl_group,
        )
        with pytest.raises(ProtocolError, match="tampered"):
            engine.run()
