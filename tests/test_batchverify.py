"""Batched proof verification and the streamed shuffle chain.

Covers the PR's acceptance properties directly:

* a batch with one forged proof is rejected AND the per-proof fallback
  blames exactly the forging party;
* batching on/off produces identical transcripts, β values, and ranks
  (the coefficients are hash-derived, so no verifier randomness moves);
* the streamed shuffle chain pipelines (a middle hop forwards its first
  chunk while the head is still emitting later chunks) and yields the
  same ranks;
* the chain under sustained delays completes within the configured
  deadline.
"""

import pytest

from repro.core.comparison import verify_bit_proofs_or_abort
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.parties import TAG_CHAIN
from repro.crypto.bitenc import BitValidityProof, BitwiseElGamal
from repro.crypto.distkey import DistributedKey, ShareProofBatch
from repro.crypto.zkp import (
    NonInteractiveSchnorrProof,
    SchnorrBatchItem,
    SchnorrProof,
    batch_verify_nizk_or_abort,
    batch_verify_schnorr,
    batch_verify_schnorr_or_abort,
    derive_batch_coefficients,
)
from repro.math.rng import SeededRNG
from repro.runtime.errors import ProtocolAbort
from tests.conftest import make_participants


def make_schnorr_items(group, count, seed=1):
    """Honest (prover, public, commitment, challenge, response) batch."""
    rng = SeededRNG(seed)
    prover = SchnorrProof(group)
    items = []
    for k in range(count):
        secret = group.random_exponent(rng)
        public = group.exp_generator(secret)
        commitment, nonce = prover.commit(rng)
        challenge = rng.randrange(group.order)
        response = prover.respond(nonce, secret, challenge)
        items.append(
            SchnorrBatchItem(
                prover=k + 1, public=public, commitment=commitment,
                challenge=challenge, response=response,
            )
        )
    return items


class TestCoefficients:
    def test_deterministic_and_nonzero(self):
        materials = [b"a", b"b", b"c"]
        first = derive_batch_coefficients(materials)
        assert first == derive_batch_coefficients(materials)
        assert all(c % 2 == 1 for c in first)  # low bit forced: never zero

    def test_every_material_matters(self):
        base = derive_batch_coefficients([b"a", b"b"])
        assert base != derive_batch_coefficients([b"a", b"B"])
        # ... including for coefficients of *other* positions: the seed
        # hashes the whole batch, so a cheater cannot fix its own
        # coefficient by leaving its proof unchanged.
        assert base[0] != derive_batch_coefficients([b"a", b"B"])[0]

    def test_context_separates_domains(self):
        materials = [b"a", b"b"]
        assert derive_batch_coefficients(
            materials
        ) != derive_batch_coefficients(materials, context=b"other")


class TestSchnorrBatch:
    def test_honest_batch_accepts(self, small_dl_group):
        items = make_schnorr_items(small_dl_group, 8)
        assert batch_verify_schnorr(small_dl_group, items)
        batch_verify_schnorr_or_abort(small_dl_group, items)  # no raise

    def test_empty_batch_accepts(self, small_dl_group):
        assert batch_verify_schnorr(small_dl_group, [])

    @pytest.mark.parametrize("forged_index", [0, 3, 7])
    def test_forged_proof_rejected_and_blamed(self, small_dl_group,
                                              forged_index):
        items = make_schnorr_items(small_dl_group, 8)
        bad = items[forged_index]
        items[forged_index] = SchnorrBatchItem(
            prover=bad.prover, public=bad.public, commitment=bad.commitment,
            challenge=bad.challenge,
            response=(bad.response + 1) % small_dl_group.order,
        )
        assert not batch_verify_schnorr(small_dl_group, items)
        with pytest.raises(ProtocolAbort) as excinfo:
            batch_verify_schnorr_or_abort(small_dl_group, items)
        assert excinfo.value.blamed == bad.prover

    def test_malformed_item_takes_fallback_path(self, small_dl_group):
        items = make_schnorr_items(small_dl_group, 3)
        bad = items[1]
        items[1] = SchnorrBatchItem(
            prover=bad.prover, public="not-an-element",
            commitment=bad.commitment, challenge=bad.challenge,
            response=bad.response,
        )
        assert not batch_verify_schnorr(small_dl_group, items)
        with pytest.raises(ProtocolAbort) as excinfo:
            batch_verify_schnorr_or_abort(small_dl_group, items)
        assert excinfo.value.blamed == bad.prover


class TestNIZKBatch:
    def make_claims(self, group, count, seed=2):
        rng = SeededRNG(seed)
        nizk = NonInteractiveSchnorrProof(group)
        claims = []
        for k in range(count):
            secret = group.random_exponent(rng)
            public = group.exp_generator(secret)
            claims.append((k + 1, public, nizk.prove(secret, rng)))
        return nizk, claims

    def test_honest_claims_accept(self, small_dl_group):
        nizk, claims = self.make_claims(small_dl_group, 6)
        batch_verify_nizk_or_abort(nizk, claims)  # no raise

    def test_forged_nizk_blamed(self, small_dl_group):
        nizk, claims = self.make_claims(small_dl_group, 6)
        prover, public, proof = claims[4]
        rng = SeededRNG(99)
        other = nizk.prove(small_dl_group.random_exponent(rng), rng)
        claims[4] = (prover, public, other)  # proof for a different key
        with pytest.raises(ProtocolAbort) as excinfo:
            batch_verify_nizk_or_abort(nizk, claims)
        assert excinfo.value.blamed == prover


class TestShareProofBatch:
    def publics_via_batch(self, group, batch_on, seed=3, forge=None):
        rng = SeededRNG(seed)
        nizk = NonInteractiveSchnorrProof(group)
        distkey = DistributedKey(group)
        proof_batch = ShareProofBatch(group, distkey, batch=batch_on)
        for j in range(1, 5):
            secret = group.random_exponent(rng)
            public = group.exp_generator(secret)
            proof = nizk.prove(secret, rng)
            if forge == j:
                forged_rng = SeededRNG(1000 + j)
                proof = nizk.prove(
                    group.random_exponent(forged_rng), forged_rng
                )
            proof_batch.add_nizk_claim(j, public, proof, nizk)
        return proof_batch.verify_and_register(), distkey

    def test_batched_equals_unbatched(self, small_dl_group):
        batched, dk_batched = self.publics_via_batch(small_dl_group, True)
        plain, dk_plain = self.publics_via_batch(small_dl_group, False)
        assert batched == plain
        assert small_dl_group.eq(
            dk_batched.joint_public_key(), dk_plain.joint_public_key()
        )

    @pytest.mark.parametrize("batch_on", [False, True])
    def test_forged_claim_blamed_either_way(self, small_dl_group, batch_on):
        with pytest.raises(ProtocolAbort) as excinfo:
            self.publics_via_batch(small_dl_group, batch_on, forge=2)
        assert excinfo.value.blamed == 2


class TestBitProofs:
    WIDTH = 6

    def setup_bitwise(self, group, seed=4):
        rng = SeededRNG(seed)
        secret = group.random_exponent(rng)
        public = group.exp_generator(secret)
        return BitwiseElGamal(group), secret, public, rng

    def test_encrypt_with_proofs_roundtrips(self, small_dl_group):
        bitwise, secret, public, rng = self.setup_bitwise(small_dl_group)
        ct, proofs = bitwise.encrypt_with_proofs(45, self.WIDTH, public, rng)
        assert len(proofs) == self.WIDTH
        assert bitwise.decrypt(ct, secret) == 45
        prover = BitValidityProof(small_dl_group, public)
        assert all(
            prover.verify(ct[i], proofs[i]) for i in range(self.WIDTH)
        )

    def test_proof_rejects_wrong_ciphertext(self, small_dl_group):
        bitwise, _, public, rng = self.setup_bitwise(small_dl_group)
        ct, proofs = bitwise.encrypt_with_proofs(45, self.WIDTH, public, rng)
        prover = BitValidityProof(small_dl_group, public)
        # A proof is bound to its ciphertext: swapping bits breaks it.
        assert not prover.verify(ct[1], proofs[0])

    def test_non_bit_plaintext_has_no_proof(self, small_dl_group):
        _, _, public, rng = self.setup_bitwise(small_dl_group)
        prover = BitValidityProof(small_dl_group, public)
        from repro.crypto.elgamal import ExponentialElGamal

        scheme = ExponentialElGamal(small_dl_group)
        ct = scheme.encrypt(2, public, rng)
        with pytest.raises(ValueError):
            prover.prove(ct, 2, 1, rng)

    @pytest.mark.parametrize("batch_on", [False, True])
    def test_claim_matrix_accepts_honest(self, small_dl_group, batch_on):
        bitwise, _, public, rng = self.setup_bitwise(small_dl_group)
        claims = []
        for sender, value in ((1, 45), (2, 0), (3, 63)):
            ct, proofs = bitwise.encrypt_with_proofs(
                value, self.WIDTH, public, rng
            )
            claims.append((sender, ct, proofs))
        verify_bit_proofs_or_abort(
            small_dl_group, public, claims, batch=batch_on
        )  # no raise

    @pytest.mark.parametrize("batch_on", [False, True])
    def test_out_of_range_encryption_blamed(self, small_dl_group, batch_on):
        """The attack bit proofs exist to stop: a 'bit' ciphertext that
        actually encrypts 2 shifts the comparison circuit silently."""
        bitwise, _, public, rng = self.setup_bitwise(small_dl_group)
        honest_ct, honest_proofs = bitwise.encrypt_with_proofs(
            45, self.WIDTH, public, rng
        )
        cheat_ct, cheat_proofs = bitwise.encrypt_with_proofs(
            21, self.WIDTH, public, rng
        )
        from repro.crypto.bitenc import BitwiseCiphertext
        from repro.crypto.elgamal import ExponentialElGamal

        scheme = ExponentialElGamal(small_dl_group)
        bits = list(cheat_ct.bits)
        bits[3] = scheme.encrypt(2, public, rng)  # not a bit
        forged = BitwiseCiphertext(bits=tuple(bits))
        claims = [
            (1, honest_ct, honest_proofs),
            (2, forged, cheat_proofs),
        ]
        with pytest.raises(ProtocolAbort) as excinfo:
            verify_bit_proofs_or_abort(
                small_dl_group, public, claims, batch=batch_on
            )
        assert excinfo.value.blamed == 2


def run_framework(group, schema, initiator_input, n=4, seed=9, **overrides):
    config_kwargs = dict(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6,
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    participants = make_participants(schema, n, seed=21)
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run()


def fingerprint(result):
    return (
        result.ranks,
        result.betas,
        tuple(
            (e.round, e.src, e.dst, e.tag, e.size_bits)
            for e in result.transcript
        ),
    )


class TestFrameworkFlagEquivalence:
    @pytest.mark.parametrize("seed", [9, 31])
    @pytest.mark.parametrize("zkp_mode", ["fiat-shamir", "interactive"])
    def test_batching_is_transcript_invisible(
        self, small_dl_group, small_schema, small_initiator_input, seed,
        zkp_mode,
    ):
        """batch_verify changes verifier cost only: same messages, same
        sizes, same β draws, same ranks."""
        _, off = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            seed=seed, zkp_mode=zkp_mode, batch_verify=False,
        )
        _, on = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            seed=seed, zkp_mode=zkp_mode, batch_verify=True,
        )
        assert fingerprint(off) == fingerprint(on)

    def test_bit_proofs_with_and_without_batching_agree(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework, plain = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            bit_proofs=True, batch_verify=False,
        )
        _, batched = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            bit_proofs=True, batch_verify=True,
        )
        assert fingerprint(plain) == fingerprint(batched)
        assert framework.check_result(plain) == []

    @pytest.mark.parametrize("chunk_sets", [1, 2])
    def test_streaming_preserves_ranks_and_betas(
        self, small_dl_group, small_schema, small_initiator_input, chunk_sets
    ):
        framework, serial = run_framework(
            small_dl_group, small_schema, small_initiator_input,
        )
        _, streamed = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            stream_chunk_sets=chunk_sets,
        )
        assert streamed.ranks == serial.ranks
        assert streamed.betas == serial.betas
        assert framework.check_result(streamed) == []

    @pytest.mark.parametrize("chunk_sets", [4, 7])
    def test_one_chunk_is_the_whole_vector(
        self, small_dl_group, small_schema, small_initiator_input, chunk_sets
    ):
        """A chunk at least as wide as the active set (n = 4) is the
        whole vector: the default run's messages, rounds and bytes."""
        _, whole = run_framework(
            small_dl_group, small_schema, small_initiator_input,
        )
        _, one_chunk = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            stream_chunk_sets=chunk_sets,
        )
        assert fingerprint(one_chunk) == fingerprint(whole)
        assert one_chunk.wire_stats == whole.wire_stats

    def test_streaming_chain_pipelines(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """Pipeline overlap, read off the transcript: the first chain
        member forwards its first processed chunk while the head is
        still emitting later chunks."""
        _, streamed = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            stream_chunk_sets=1,
        )
        sends_by_src = {}
        for entry in streamed.transcript:
            if entry.tag == TAG_CHAIN:
                sends_by_src.setdefault(entry.src, []).append(entry.round)
        head, first_hop = sorted(sends_by_src)[:2]
        assert len(sends_by_src[head]) > 1          # chunked emission
        assert min(sends_by_src[first_hop]) < max(sends_by_src[head])

    def test_all_flags_together(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework, result = run_framework(
            small_dl_group, small_schema, small_initiator_input,
            batch_verify=True, bit_proofs=True, stream_chunk_sets=2,
        )
        assert framework.check_result(result) == []


class TestFixedDeadlines:
    def test_sustained_delay_within_the_deadline(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """Inject repeated 2-round delays under a 3-round deadline: no
        deadline expires, nothing is retransmitted, and the run still
        completes correctly."""
        from repro.runtime.faults import FaultSpec

        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema, num_participants=3,
            k=2, rho_bits=6, timeout_rounds=3,
        )
        participants = make_participants(small_schema, 3, seed=21)
        framework = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(9)
        )
        specs = [
            FaultSpec(kind="delay", party=party, tag=tag, count=8,
                      delay_rounds=2)
            for party in (1, 2)
            for tag in ("beta-bits", "tau-sets")
        ]
        result = framework.run(faults=specs)
        supervisor = framework.last_supervisor
        assert supervisor.timeout_rounds == 3
        assert (supervisor.timeouts, supervisor.retransmits) == (0, 0)
        assert result.attempts == 1
        assert framework.check_result(result) == []
