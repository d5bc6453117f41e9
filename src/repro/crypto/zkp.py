"""Schnorr zero-knowledge proofs of discrete-log knowledge (Section IV-E).

Implements the three-move HVZK Schnorr identification protocol, the
paper's n-verifier extension (the challenge becomes ``Σ_j c_j``), the
special-soundness *knowledge extractor* that the security proofs (and
our security-game tests) use to pull a prover's secret out of two
accepting transcripts sharing a commitment, and a **Fiat-Shamir
non-interactive variant** (an extension beyond the paper: the challenge
is derived by hashing the statement and commitment, collapsing the
keying phase's challenge round-trips — the round saving is measured in
``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.groups.base import Element, Group
from repro.math.modular import mod_inverse
from repro.math.multiexp import multi_exp
from repro.math.rng import RNG
from repro.runtime.errors import ProtocolAbort


@dataclass(frozen=True)
class SchnorrTranscript:
    """One accepting conversation ``(h, challenges, z)``."""

    commitment: Element
    challenges: Sequence[int]
    response: int

    @property
    def total_challenge(self) -> int:
        return sum(self.challenges)


class SchnorrProof:
    """Interactive Schnorr proof that the prover knows ``x = log_g y``.

    Usage (prover side)::

        proof = SchnorrProof(group)
        commitment, state = proof.commit(rng)
        ...  # send commitment, receive challenge c
        z = proof.respond(state, secret, c)

    Verifier side::

        proof.verify(public, commitment, c, z)
    """

    def __init__(self, group: Group):
        self.group = group

    # -- prover ----------------------------------------------------------------
    def commit(self, rng: RNG):
        """First move: pick ``r``, send ``h = g^r``.  Returns ``(h, r)``."""
        r = self.group.random_exponent(rng)
        return self.group.exp_generator(r), r

    def respond(self, nonce: int, secret: int, challenge: int) -> int:
        """Third move: ``z = r + x·c mod q``."""
        return (nonce + secret * challenge) % self.group.order

    # -- verifier ----------------------------------------------------------------
    def challenge(self, rng: RNG) -> int:
        return self.group.random_exponent(rng)

    def verify(
        self, public: Element, commitment: Element, challenge: int, response: int
    ) -> bool:
        """Check ``g^z == h·y^c``."""
        lhs = self.group.exp_generator(response)
        rhs = self.group.mul(commitment, self.group.exp(public, challenge))
        return self.group.eq(lhs, rhs)

    # -- one-shot convenience -----------------------------------------------------
    def prove(self, secret: int, prover_rng: RNG, verifier_rng: RNG) -> SchnorrTranscript:
        commitment, nonce = self.commit(prover_rng)
        c = self.challenge(verifier_rng)
        z = self.respond(nonce, secret, c)
        return SchnorrTranscript(commitment=commitment, challenges=(c,), response=z)

    def verify_transcript(self, public: Element, transcript: SchnorrTranscript) -> bool:
        return self.verify(
            public,
            transcript.commitment,
            transcript.total_challenge % self.group.order,
            transcript.response,
        )


class MultiVerifierSchnorrProof(SchnorrProof):
    """The paper's extension to ``n`` verifiers.

    Every verifier ``j`` publishes ``c_j``; the prover answers the summed
    challenge ``z = r + x·Σ_j c_j mod q`` and each verifier checks
    ``g^z == h·y^{Σ c_j}``.
    """

    def respond_multi(self, nonce: int, secret: int, challenges: Sequence[int]) -> int:
        total = sum(challenges) % self.group.order
        return self.respond(nonce, secret, total)

    def verify_multi(
        self,
        public: Element,
        commitment: Element,
        challenges: Sequence[int],
        response: int,
    ) -> bool:
        total = sum(challenges) % self.group.order
        return self.verify(public, commitment, total, response)

    def verify_multi_or_abort(
        self,
        public: Element,
        commitment: Element,
        challenges: Sequence[int],
        response: int,
        *,
        blamed: int,
        phase: str = "keying",
    ) -> None:
        """Validated-abort wrapper: a failing proof names the prover."""
        if not self.verify_multi(public, commitment, challenges, response):
            raise ProtocolAbort(
                f"P{blamed}'s key-knowledge proof failed",
                blamed=blamed, phase=phase,
            )

    def prove_multi(
        self, secret: int, prover_rng: RNG, verifier_rngs: List[RNG]
    ) -> SchnorrTranscript:
        commitment, nonce = self.commit(prover_rng)
        challenges = [self.challenge(rng) for rng in verifier_rngs]
        response = self.respond_multi(nonce, secret, challenges)
        return SchnorrTranscript(
            commitment=commitment, challenges=tuple(challenges), response=response
        )


@dataclass(frozen=True)
class NIZKProof:
    """A Fiat-Shamir-transformed Schnorr proof: ``(h, z)``.

    The challenge is recomputed by the verifier from the transcript
    hash, so the proof is publicly verifiable and needs no interaction.
    """

    commitment: Element
    response: int


class NonInteractiveSchnorrProof:
    """Fiat-Shamir Schnorr NIZK of ``x = log_g y``.

    ``context`` domain-separates proofs (here: the framework session id
    and the prover's party id), preventing replay of one party's proof
    as another's.  Secure in the random-oracle model.
    """

    def __init__(self, group: Group, context: bytes = b"repro-nizk-v1"):
        self.group = group
        self.context = context

    def _challenge(self, public: Element, commitment: Element) -> int:
        digest = hashlib.sha256()
        digest.update(self.context)
        digest.update(self.group.serialize(self.group.generator()))
        digest.update(self.group.serialize(public))
        digest.update(self.group.serialize(commitment))
        return int.from_bytes(digest.digest(), "big") % self.group.order

    def challenge_for(self, public: Element, commitment: Element) -> int:
        """The Fiat-Shamir challenge this verifier would derive — public
        so the batch verifier can rebuild each proof's equation."""
        return self._challenge(public, commitment)

    def prove(self, secret: int, rng: RNG) -> NIZKProof:
        nonce = self.group.random_exponent(rng)
        commitment = self.group.exp_generator(nonce)
        challenge = self._challenge(self.group.exp_generator(secret), commitment)
        response = (nonce + secret * challenge) % self.group.order
        return NIZKProof(commitment=commitment, response=response)

    def verify(self, public: Element, proof: NIZKProof) -> bool:
        """Check ``g^z == h · y^{H(...)}``."""
        if not self.group.is_element(proof.commitment):
            return False
        challenge = self._challenge(public, proof.commitment)
        lhs = self.group.exp_generator(proof.response)
        rhs = self.group.mul(
            proof.commitment, self.group.exp(public, challenge)
        )
        return self.group.eq(lhs, rhs)

    def verify_or_abort(
        self, public: Element, proof: NIZKProof, *, blamed: int,
        phase: str = "keying",
    ) -> None:
        """Validated-abort wrapper: a failing NIZK names the prover."""
        if not self.verify(public, proof):
            raise ProtocolAbort(
                f"P{blamed}'s key-knowledge NIZK failed",
                blamed=blamed, phase=phase,
            )


# -- batch verification (random linear combination) ---------------------------
#
# A verifier holding k accepting-looking Schnorr conversations
# ``g^{z_k} == h_k · y_k^{c_k}`` rewrites each as the product relation
# ``g^{z_k} · h_k^{-1} · y_k^{-c_k} == 1``, raises relation k to a short
# random coefficient ``s_k``, and multiplies everything together.  Shared
# bases (the generator, and any base appearing in several relations)
# merge into a single accumulated exponent, and the whole product is one
# Straus multi-exponentiation instead of 2k full-width exponentiations.
# If every relation holds the product is trivially 1; if any relation
# fails, the product only lands on 1 when the s_k hit a specific linear
# combination — probability at most ``2^-BATCH_COEFFICIENT_BITS`` (or
# ``1/q`` for small groups).  The coefficients are derived by hashing the
# *whole* batch (random-oracle style, as in the classic small-exponent
# test), so no party RNG is consumed and a prover cannot choose its proof
# after seeing its coefficient.

#: Bit length of the random linear-combination coefficients ``s_k``; the
#: batch forgery bound is ``2^-min(BATCH_COEFFICIENT_BITS, log2 q)``.
BATCH_COEFFICIENT_BITS = 64


def derive_batch_coefficients(
    materials: Sequence[bytes], *, context: bytes = b"repro-batch-v1"
) -> List[int]:
    """Hash-derived nonzero ``BATCH_COEFFICIENT_BITS``-bit coefficients.

    Every coefficient depends on every proof in the batch: the material
    strings are hashed into one seed first, then expanded per index.
    Deterministic on purpose — batching must not consume verifier
    randomness, or enabling it would shift every later protocol draw.
    """
    seed_digest = hashlib.sha256()
    seed_digest.update(context)
    for material in materials:
        seed_digest.update(hashlib.sha256(material).digest())
    seed = seed_digest.digest()
    coefficients: List[int] = []
    for index in range(len(materials)):
        expanded = hashlib.sha256(seed + index.to_bytes(4, "big")).digest()
        # Forcing the low bit keeps every coefficient nonzero (a zero
        # coefficient would silently drop its relation from the batch).
        coefficients.append(
            int.from_bytes(expanded[: BATCH_COEFFICIENT_BITS // 8], "big") | 1
        )
    return coefficients


class RelationBatcher:
    """Accumulates product relations ``Π base^e == 1`` and checks them all
    with one multi-exponentiation.

    Terms are merged by base (via the group's canonical serialization),
    so the generator — which appears in every Schnorr relation — costs
    one table regardless of batch size."""

    def __init__(self, group: Group, *, window_bits: int = 4):
        self.group = group
        self.window_bits = window_bits
        self._index_of: Dict[bytes, int] = {}
        self._bases: List[Element] = []
        self._exponents: List[int] = []

    def add_term(self, base: Element, exponent: int) -> None:
        key = self.group.serialize(base)
        index = self._index_of.get(key)
        if index is None:
            self._index_of[key] = len(self._bases)
            self._bases.append(base)
            self._exponents.append(exponent % self.group.order)
        else:
            self._exponents[index] = (
                self._exponents[index] + exponent
            ) % self.group.order

    def holds(self) -> bool:
        """True iff the accumulated product is the identity."""
        if not self._bases:
            return True
        product = multi_exp(
            self.group, self._bases, self._exponents, window_bits=self.window_bits
        )
        return self.group.is_identity(product)


@dataclass(frozen=True)
class SchnorrBatchItem:
    """One verification equation ``g^z == h · y^c``, tagged with the
    prover to blame if the per-proof fallback pins a failure on it."""

    prover: int
    public: Element
    commitment: Element
    challenge: int
    response: int


def _item_well_formed(group: Group, item: SchnorrBatchItem) -> bool:
    return (
        isinstance(item.challenge, int)
        and isinstance(item.response, int)
        and group.is_element(item.public)
        and group.is_element(item.commitment)
    )


def _item_material(group: Group, item: SchnorrBatchItem) -> bytes:
    width = (group.order.bit_length() + 7) // 8
    return (
        item.prover.to_bytes(4, "big")
        + group.serialize(item.public)
        + group.serialize(item.commitment)
        + (item.challenge % group.order).to_bytes(width, "big")
        + (item.response % group.order).to_bytes(width, "big")
    )


def batch_verify_schnorr(
    group: Group,
    items: Sequence[SchnorrBatchItem],
    *,
    context: bytes = b"repro-batch-v1",
) -> bool:
    """Verify k Schnorr equations with ONE multi-exponentiation.

    Sound up to ``2^-min(BATCH_COEFFICIENT_BITS, log2 q)``: see the
    module-level notes.  Returns False on any structural defect (callers
    fall back to per-proof verification for exact blame)."""
    if not items:
        return True
    if not all(_item_well_formed(group, item) for item in items):
        return False
    materials = [_item_material(group, item) for item in items]
    coefficients = derive_batch_coefficients(materials, context=context)
    q = group.order
    batcher = RelationBatcher(group)
    generator = group.generator()
    for item, s in zip(items, coefficients):
        # g^{z} · h^{-1} · y^{-c} == 1, raised to the coefficient s.
        batcher.add_term(generator, s * item.response)
        batcher.add_term(item.commitment, -s)
        batcher.add_term(item.public, -s * (item.challenge % q))
    return batcher.holds()


def batch_verify_schnorr_or_abort(
    group: Group,
    items: Sequence[SchnorrBatchItem],
    *,
    phase: str = "keying",
    describe: Optional[str] = None,
    context: bytes = b"repro-batch-v1",
) -> None:
    """Batch-verify; on failure fall back to per-proof checks so the
    abort blames the exact cheater, exactly as unbatched verification
    would have."""
    if batch_verify_schnorr(group, items, context=context):
        return
    verifier = SchnorrProof(group)
    template = describe or "P{prover}'s key-knowledge proof failed"
    for item in items:
        if _item_well_formed(group, item) and verifier.verify(
            item.public, item.commitment, item.challenge % group.order, item.response
        ):
            continue
        raise ProtocolAbort(
            template.format(prover=item.prover), blamed=item.prover, phase=phase
        )
    # Unreachable for honest math: if every relation holds individually,
    # their random linear combination holds too.  Kept as a hard stop so
    # a batching bug can never let a run continue past a failed check.
    raise ProtocolAbort(
        "batch verification failed but no single proof did", phase=phase
    )


def nizk_batch_items(
    nizk: "NonInteractiveSchnorrProof",
    claims: Sequence[Tuple[int, Element, NIZKProof]],
) -> Optional[List[SchnorrBatchItem]]:
    """Recompute each claim's Fiat-Shamir challenge and package it for
    the batch verifier.  Returns None when any claim is too malformed to
    hash (non-element commitment, non-integer response) — the caller
    then takes the per-proof path, which produces the blamed abort."""
    items: List[SchnorrBatchItem] = []
    group = nizk.group
    for prover, public, proof in claims:
        if not (
            isinstance(proof, NIZKProof)
            and isinstance(proof.response, int)
            and group.is_element(public)
            and group.is_element(proof.commitment)
        ):
            return None
        items.append(
            SchnorrBatchItem(
                prover=prover,
                public=public,
                commitment=proof.commitment,
                challenge=nizk.challenge_for(public, proof.commitment),
                response=proof.response,
            )
        )
    return items


def batch_verify_nizk_or_abort(
    nizk: "NonInteractiveSchnorrProof",
    claims: Sequence[Tuple[int, Element, NIZKProof]],
    *,
    phase: str = "keying",
) -> None:
    """Batched drop-in for a loop of :meth:`NonInteractiveSchnorrProof
    .verify_or_abort` calls: one multi-exponentiation when everything
    checks out, per-proof blame when anything does not."""
    items = nizk_batch_items(nizk, claims)
    if items is not None and batch_verify_schnorr(
        nizk.group, items, context=b"repro-batch-nizk|" + nizk.context
    ):
        return
    for prover, public, proof in claims:
        nizk.verify_or_abort(public, proof, blamed=prover, phase=phase)
    raise ProtocolAbort(
        "batch verification failed but no single NIZK did", phase=phase
    )


def extract_witness(
    group: Group, first: SchnorrTranscript, second: SchnorrTranscript
) -> int:
    """Special-soundness extractor (paper Section IV-E).

    Given two accepting transcripts with the *same commitment* but
    different total challenges, recover ``x = (z - z') / (Σc - Σc') mod q``.
    """
    if not group.eq(first.commitment, second.commitment):
        raise ValueError("transcripts must share a commitment")
    q = group.order
    challenge_gap = (first.total_challenge - second.total_challenge) % q
    if challenge_gap == 0:
        raise ValueError("total challenges must differ modulo the group order")
    response_gap = (first.response - second.response) % q
    return response_gap * mod_inverse(challenge_gap, q) % q
