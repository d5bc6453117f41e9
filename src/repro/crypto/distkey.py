"""Distributed ElGamal keying (paper Section IV-D, last paragraph).

Each party ``P_i`` picks ``x_i`` and publishes ``y_i = g^{x_i}``.  The
joint public key is ``y = Π y_i`` (so the joint secret ``Σ x_i`` is known
to nobody), and a ciphertext ``(c, c')`` under ``y`` is decrypted in
layers: each party replaces ``c`` by ``c / c'^{x_i}``.  Once every
share-holder has peeled her layer the residue is the plaintext (for the
exponential scheme, ``g^M``).

Keying and layered decryption are written entirely over the abstract
``group`` operations, so they inherit whatever arithmetic backend
(:mod:`repro.math.backend`) the group dispatches to — no direct
big-integer arithmetic lives in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Element, Group, require_pairs
from repro.math.rng import RNG


@dataclass(frozen=True)
class KeyShare:
    """One party's share: secret exponent + published commitment."""

    party_id: int
    secret: int = field(repr=False)  # repro: secret
    public: Element


class DistributedKey:
    """Bookkeeping for an n-party joint ElGamal key over ``group``."""

    def __init__(self, group: Group):
        self.group = group
        self._publics: Dict[int, Element] = {}

    # -- key establishment ----------------------------------------------------
    def make_share(self, party_id: int, rng: RNG) -> KeyShare:
        x = self.group.random_exponent(rng)
        return KeyShare(party_id=party_id, secret=x, public=self.group.exp_generator(x))

    def register_public(self, party_id: int, public: Element) -> None:
        if not self.group.is_element(public):
            raise ValueError(f"party {party_id} published a non-element public key")
        if party_id in self._publics:
            raise ValueError(f"party {party_id} already registered a public key")
        self._publics[party_id] = public

    def joint_public_key(self) -> Element:
        """``y = Π y_i`` over all registered shares."""
        if not self._publics:
            raise ValueError("no public key shares registered")
        joint = self.group.identity()
        for party_id in sorted(self._publics):
            joint = self.group.mul(joint, self._publics[party_id])
        return joint

    def partial_public_key(self, party_ids: Iterable[int]) -> Element:
        """``Π y_i`` over a subset — the key a ciphertext is under after
        the complementary parties have peeled their layers."""
        joint = self.group.identity()
        for party_id in sorted(set(party_ids)):
            joint = self.group.mul(joint, self._publics[party_id])
        return joint

    # -- layered decryption -----------------------------------------------------
    def _require_valid(self, ciphertext: Ciphertext, operation: str) -> None:
        """Membership check before touching a ciphertext with secret/keyed
        material — an adversarial non-element could otherwise coerce the
        operation into a small subgroup and leak bits of the exponent."""
        if not (
            self.group.is_element(ciphertext.c1)
            and self.group.is_element(ciphertext.c2)
        ):
            raise ValueError(f"refusing to {operation} a non-group ciphertext")

    def peel_layer(self, ciphertext: Ciphertext, secret: int) -> Ciphertext:
        """Remove one share's layer: ``c -> c / c'^{x_i}`` (step 8, bullet 1).

        A one-element :meth:`peel_layers`, on the same group kernels.
        """
        group = self.group
        (c1,) = group.div_each(
            (ciphertext.c1,), group.exp_each((ciphertext.c2,), (secret,))
        )
        return Ciphertext(c1=c1, c2=ciphertext.c2)

    def peel_layers(
        self, ciphertexts: Sequence[Ciphertext], secret: int
    ) -> List[Ciphertext]:
        """:meth:`peel_layer` of every ciphertext in a set: one
        ``exp_each`` for the masks ``c'^{x_i}`` and one ``div_each``.

        Hot primitive: callers validate ciphertexts at receipt (see
        ``ShuffleProcessor``/``DecryptionMixnet``), so no per-call check.
        """
        group = self.group
        c2s = [ciphertext.c2 for ciphertext in ciphertexts]
        masks = group.exp_each(c2s, [secret] * len(c2s))
        c1s = group.div_each([ciphertext.c1 for ciphertext in ciphertexts], masks)
        return [Ciphertext(c1, c2) for c1, c2 in zip(c1s, c2s)]

    def rerandomize_exponent(
        self, ciphertext: Ciphertext, rng: RNG
    ) -> Ciphertext:
        """Step 8, bullet 2: ``(c, c') -> (c^r, c'^r)`` for random ``r ≠ 0``.

        This scales the plaintext ``M -> r·M``, which preserves exactly the
        predicate the framework cares about (``M == 0``) while destroying
        the value of every non-zero plaintext.
        """
        self._require_valid(ciphertext, "rerandomize")
        r = self.group.random_nonzero_exponent(rng)
        return self.rerandomize_with_exponent(ciphertext, r)

    def rerandomize_with_exponent(self, ciphertext: Ciphertext, r: int) -> Ciphertext:
        """Deterministic half of :meth:`rerandomize_exponent`: a one-element
        :meth:`rerandomize_with_exponents`, on the same group kernel."""
        c1, c2 = self.group.exp_each((ciphertext.c1, ciphertext.c2), (r, r))
        return Ciphertext(c1=c1, c2=c2)

    def rerandomize_with_exponents(
        self, ciphertexts: Sequence[Ciphertext], exponents: Sequence[int]
    ) -> List[Ciphertext]:
        """``(c, c') -> (c^r, c'^r)`` for each ciphertext and its pre-drawn
        ``r`` (the chain draws them in serial order, possibly for a
        worker), as one ``exp_each`` over both components."""
        require_pairs(ciphertexts, exponents)
        count = len(ciphertexts)
        exponents = list(exponents)
        powers = self.group.exp_each(
            [ciphertext.c1 for ciphertext in ciphertexts]
            + [ciphertext.c2 for ciphertext in ciphertexts],
            exponents + exponents,
        )
        return [Ciphertext(c1, c2) for c1, c2 in zip(powers, powers[count:])]

    def full_decrypt(self, ciphertext: Ciphertext, secrets: Iterable[int]) -> Element:
        """Peel all layers at once (test helper; real parties decrypt in turn)."""
        self._require_valid(ciphertext, "decrypt")
        current = ciphertext
        for secret in secrets:
            current = self.peel_layer(current, secret)
        return current.c1


class ShareProofBatch:
    """Deferred keying verification: collect every peer's key-share claim
    (public key + knowledge proof), verify them all, then register.

    With ``batch=True`` the k proofs collapse into ONE random-linear-
    combination multi-exponentiation (see :mod:`repro.crypto.zkp`); when
    the combined check fails — or when ``batch=False`` — each proof is
    verified individually in claim order, so the resulting
    :class:`~repro.runtime.errors.ProtocolAbort` blames the exact party
    whose proof is bad, identically to the unbatched protocol.

    NIZK and interactive (multi-verifier) claims may be mixed freely:
    both reduce to the same ``g^z == h·y^c`` equation, so one batch
    covers a whole keying round regardless of ``zkp_mode``.
    """

    def __init__(
        self,
        group: Group,
        distkey: Optional[DistributedKey] = None,
        *,
        batch: bool = False,
        phase: str = "keying",
    ):
        self.group = group
        self.distkey = distkey
        self.batch = batch
        self.phase = phase
        # (party_id, public, verify_callable, batch_item_or_None)
        self._claims: List[Tuple[int, Element, object, object]] = []

    def add_nizk_claim(self, party_id: int, public: Element, proof, nizk) -> None:
        """One peer's Fiat-Shamir claim, verified under *its* context."""
        from repro.crypto.zkp import NIZKProof, SchnorrBatchItem

        item = None
        if (
            isinstance(proof, NIZKProof)
            and isinstance(proof.response, int)
            and self.group.is_element(public)
            and self.group.is_element(proof.commitment)
        ):
            item = SchnorrBatchItem(
                prover=party_id,
                public=public,
                commitment=proof.commitment,
                challenge=nizk.challenge_for(public, proof.commitment),
                response=proof.response,
            )

        def check():
            nizk.verify_or_abort(public, proof, blamed=party_id, phase=self.phase)

        self._claims.append((party_id, public, check, item))

    def add_transcript_claim(
        self,
        party_id: int,
        public: Element,
        commitment: Element,
        challenges: Sequence[int],
        response,
    ) -> None:
        """One peer's interactive (multi-verifier summed-challenge) claim."""
        from repro.crypto.zkp import MultiVerifierSchnorrProof, SchnorrBatchItem

        verifier = MultiVerifierSchnorrProof(self.group)
        item = None
        if (
            isinstance(response, int)
            and isinstance(challenges, (list, tuple))
            and all(isinstance(c, int) for c in challenges)
            and self.group.is_element(public)
            and self.group.is_element(commitment)
        ):
            item = SchnorrBatchItem(
                prover=party_id,
                public=public,
                commitment=commitment,
                challenge=sum(challenges) % self.group.order,
                response=response,
            )

        def check():
            verifier.verify_multi_or_abort(
                public, commitment, challenges, response,
                blamed=party_id, phase=self.phase,
            )

        self._claims.append((party_id, public, check, item))

    def verify_and_register(self) -> Dict[int, Element]:
        """Verify every collected claim, then register the shares.

        Returns ``{party_id: public}`` in claim order; raises a blamed
        :class:`~repro.runtime.errors.ProtocolAbort` on the first bad
        proof (per-proof fallback pins it even when batching).
        """
        from repro.crypto.zkp import batch_verify_schnorr
        from repro.runtime.errors import ProtocolAbort

        items = [item for _, _, _, item in self._claims]
        batched_ok = (
            self.batch
            and all(item is not None for item in items)
            and batch_verify_schnorr(self.group, items)
        )
        if not batched_ok:
            for _, _, check, _ in self._claims:
                check()
            if self.batch and self._claims and all(
                item is not None for item in items
            ):
                # Every proof passed individually yet the combined check
                # failed — impossible for a correct batcher; stop hard.
                raise ProtocolAbort(
                    "batch verification failed but no single proof did",
                    phase=self.phase,
                )
        publics: Dict[int, Element] = {}
        for party_id, public, _, _ in self._claims:
            publics[party_id] = public
            if self.distkey is not None:
                self.distkey.register_public(party_id, public)
        return publics
