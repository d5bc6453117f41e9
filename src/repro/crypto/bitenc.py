"""Bit-wise encryption of integers (framework step 6).

A participant's masked gain ``β`` is published as ``l`` independent
exponential-ElGamal encryptions, one per bit, so other participants can
evaluate the comparison circuit homomorphically.  Lemma 2 of the paper
shows this composition stays IND-CPA secure.

Bit order: index ``t`` of :attr:`BitwiseCiphertext.bits` holds the
encryption of the paper's bit ``β^{t+1}`` (little-endian, as in
:func:`repro.math.modular.int_to_bits`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import Ciphertext, ExponentialElGamal
from repro.groups.base import Element, Group
from repro.math.modular import int_from_bits, int_to_bits
from repro.math.rng import RNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.precompute import RandomnessPool
    from repro.crypto.zkp import RelationBatcher


@dataclass(frozen=True)
class BitwiseCiphertext:
    """``l`` ciphertexts, one per bit of an ``l``-bit unsigned integer."""

    bits: Sequence[Ciphertext]

    @property
    def bit_length(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, index: int) -> Ciphertext:
        return self.bits[index]


class BitwiseElGamal:
    """Encrypt/decrypt integers bit by bit under exponential ElGamal.

    ``pool``/``multiexp`` flow straight into the underlying scheme: with
    an offline :class:`~repro.crypto.precompute.RandomnessPool` the ``l``
    per-value encryptions cost ``l`` pooled pairs plus ``l``
    multiplications online instead of ``2l`` exponentiations.
    """

    def __init__(
        self,
        group: Group,
        *,
        pool: Optional["RandomnessPool"] = None,
        multiexp: bool = False,
    ):
        self.group = group
        self.scheme = ExponentialElGamal(group, pool=pool, multiexp=multiexp)

    def encrypt(
        self, value: int, width: int, public_key: Element, rng: RNG
    ) -> BitwiseCiphertext:
        """Encrypt an unsigned ``width``-bit ``value`` bit by bit."""
        bits = int_to_bits(value, width)
        return BitwiseCiphertext(
            bits=tuple(self.scheme.encrypt(bit, public_key, rng) for bit in bits)
        )

    def decrypt(self, ciphertext: BitwiseCiphertext, secret_key: int) -> int:
        """Recover the integer (each bit is 0 or 1, so no discrete log needed)."""
        bits: List[int] = []
        for bit_ct in ciphertext:
            plain = self.scheme.decrypt(bit_ct, secret_key)
            if self.group.is_identity(plain):
                bits.append(0)
            elif self.group.eq(plain, self.group.generator()):
                bits.append(1)
            else:
                raise ValueError("bitwise ciphertext decrypted to a non-bit")
        return int_from_bits(bits)

    def validate(self, ciphertext: BitwiseCiphertext, expected_width: int) -> bool:
        """Structural check on a received bitwise ciphertext.

        Covers both shape (exactly ``expected_width`` ciphertexts) and
        group membership of every component, so a corrupted or truncated
        broadcast is caught before any homomorphic operation touches it.
        """
        return (
            isinstance(ciphertext, BitwiseCiphertext)
            and ciphertext.bit_length == expected_width
            and all(self.scheme.validate(bit_ct) for bit_ct in ciphertext)
        )

    def validate_or_abort(
        self, ciphertext: BitwiseCiphertext, expected_width: int, *,
        blamed: int, phase: str = "comparison",
    ) -> None:
        """Validated-abort wrapper: a malformed broadcast names its sender."""
        from repro.runtime.errors import ProtocolAbort

        if not self.validate(ciphertext, expected_width):
            raise ProtocolAbort(
                f"P{blamed} sent a malformed bitwise ciphertext",
                blamed=blamed, phase=phase,
            )

    def ciphertext_bits(self, width: int) -> int:
        """Wire size of one bitwise ciphertext."""
        return width * self.scheme.ciphertext_bits()

    def encrypt_with_proofs(
        self, value: int, width: int, public_key: Element, rng: RNG
    ) -> Tuple[BitwiseCiphertext, Tuple["BitProof", ...]]:
        """Encrypt bit by bit AND attach a validity proof per bit.

        The encryption randomness is drawn (or taken from the pool)
        explicitly so the prover knows each ``r`` — the resulting
        ciphertexts are element-identical to :meth:`encrypt` under the
        same pool state.
        """
        bits = int_to_bits(value, width)
        prover = BitValidityProof(self.group, public_key)
        ciphertexts: List[Ciphertext] = []
        proofs: List[BitProof] = []
        for bit in bits:
            pair = self.scheme._pooled_pair(public_key)
            if pair is not None:
                r, g_r, y_r = pair.r, pair.g_r, pair.y_r
            else:
                r = self.group.random_exponent(rng)
                g_r = self.group.exp_generator(r)
                y_r = self.scheme._key_power(public_key, r)
            c1 = self.group.mul(self.group.generator(), y_r) if bit else y_r
            ciphertext = Ciphertext(c1=c1, c2=g_r)
            ciphertexts.append(ciphertext)
            proofs.append(prover.prove(ciphertext, bit, r, rng))
        return BitwiseCiphertext(bits=tuple(ciphertexts)), tuple(proofs)


# -- bit-validity proofs -------------------------------------------------------
#
# ``BitwiseElGamal.validate`` is a *structural* check only: shape plus
# group membership.  Nothing stops a cheating participant broadcasting
# E(7) where a bit belongs — the comparison circuit would then compute
# garbage τ values without anyone being blamable.  The OR-proof below
# (Cramer–Damgård–Schoenmakers composition of two Chaum–Pedersen proofs,
# made non-interactive with Fiat-Shamir) lets the sender prove each bit
# ciphertext ``(c1, c2) = (g^b·y^r, g^r)`` really has ``b ∈ {0, 1}``:
# with ``u_b = c1/g^b`` the claim is ``log_g c2 = log_y u_0  OR
# log_g c2 = log_y u_1``.  Verification is four group equations per bit
#
#     g^{z0} == A0·c2^{e0}        y^{z0} == B0·c1^{e0}
#     g^{z1} == A1·c2^{e1}        y^{z1} == B1·(c1/g)^{e1}
#
# plus the (cheap) hash binding ``e0 + e1 == H(statement, commitments)``
# — and group equations are exactly what the random-linear-combination
# batcher in :mod:`repro.crypto.zkp` collapses into one
# multi-exponentiation across every sender and every bit position.


@dataclass(frozen=True)
class BitProof:
    """A CDS OR-proof that one exponential-ElGamal ciphertext encrypts a
    bit: commitments for both branches, split challenges, responses."""

    a0: Element
    b0: Element
    a1: Element
    b1: Element
    e0: int
    e1: int
    z0: int
    z1: int


class BitValidityProof:
    """Prover/verifier for :class:`BitProof` under one public key."""

    def __init__(
        self, group: Group, public_key: Element,
        context: bytes = b"repro-bitproof-v1",
    ):
        self.group = group
        self.public_key = public_key
        self.context = context

    def _challenge_total(self, ciphertext: Ciphertext, proof_commitments) -> int:
        digest = hashlib.sha256()
        digest.update(self.context)
        serialize = self.group.serialize
        digest.update(serialize(self.group.generator()))
        digest.update(serialize(self.public_key))
        digest.update(serialize(ciphertext.c1))
        digest.update(serialize(ciphertext.c2))
        for commitment in proof_commitments:
            digest.update(serialize(commitment))
        return int.from_bytes(digest.digest(), "big") % self.group.order

    def prove(
        self, ciphertext: Ciphertext, bit: int, randomness: int, rng: RNG
    ) -> BitProof:
        """Prove ``ciphertext = E(bit; randomness)`` without revealing
        which branch is real: the false branch is simulated with a free
        challenge, the real branch answers whatever challenge remains."""
        if bit not in (0, 1):
            raise ValueError("bit proofs cover plaintexts 0 and 1 only")
        group = self.group
        q = group.order
        y = self.public_key
        # Simulate the branch for the OTHER bit value.
        other = 1 - bit
        e_sim = group.random_exponent(rng)
        z_sim = group.random_exponent(rng)
        u_other = (
            ciphertext.c1 if other == 0
            else group.div(ciphertext.c1, group.generator())
        )
        a_sim = group.div(group.exp_generator(z_sim), group.exp(ciphertext.c2, e_sim))
        b_sim = group.div(group.exp(y, z_sim), group.exp(u_other, e_sim))
        # Commit honestly for the real branch.
        w = group.random_exponent(rng)
        a_real = group.exp_generator(w)
        b_real = group.exp(y, w)
        if bit == 0:
            commitments = (a_real, b_real, a_sim, b_sim)
        else:
            commitments = (a_sim, b_sim, a_real, b_real)
        e_total = self._challenge_total(ciphertext, commitments)
        e_real = (e_total - e_sim) % q
        z_real = (w + randomness * e_real) % q
        if bit == 0:
            e0, e1, z0, z1 = e_real, e_sim, z_real, z_sim
        else:
            e0, e1, z0, z1 = e_sim, e_real, z_sim, z_real
        a0, b0, a1, b1 = commitments
        return BitProof(a0=a0, b0=b0, a1=a1, b1=b1, e0=e0, e1=e1, z0=z0, z1=z1)

    # -- verification ---------------------------------------------------------
    def structurally_sound(self, ciphertext: Ciphertext, proof) -> bool:
        group = self.group
        return (
            isinstance(proof, BitProof)
            and all(isinstance(v, int) for v in (proof.e0, proof.e1, proof.z0, proof.z1))
            and isinstance(ciphertext, Ciphertext)
            and group.is_element(ciphertext.c1)
            and group.is_element(ciphertext.c2)
            and all(group.is_element(c) for c in (proof.a0, proof.b0, proof.a1, proof.b1))
        )

    def binding_holds(self, ciphertext: Ciphertext, proof: BitProof) -> bool:
        """The Fiat-Shamir binding ``e0 + e1 == H(...)`` — checked per
        proof even when the group equations are batched (it is one hash,
        not an exponentiation)."""
        total = self._challenge_total(
            ciphertext, (proof.a0, proof.b0, proof.a1, proof.b1)
        )
        return (proof.e0 + proof.e1) % self.group.order == total

    def verify(self, ciphertext: Ciphertext, proof) -> bool:
        group = self.group
        if not self.structurally_sound(ciphertext, proof):
            return False
        if not self.binding_holds(ciphertext, proof):
            return False
        y = self.public_key
        u1 = group.div(ciphertext.c1, group.generator())
        return (
            group.eq(group.exp_generator(proof.z0),
                     group.mul(proof.a0, group.exp(ciphertext.c2, proof.e0)))
            and group.eq(group.exp(y, proof.z0),
                         group.mul(proof.b0, group.exp(ciphertext.c1, proof.e0)))
            and group.eq(group.exp_generator(proof.z1),
                         group.mul(proof.a1, group.exp(ciphertext.c2, proof.e1)))
            and group.eq(group.exp(y, proof.z1),
                         group.mul(proof.b1, group.exp(u1, proof.e1)))
        )

    def add_relations(
        self, batcher: "RelationBatcher", ciphertext: Ciphertext,
        proof: BitProof, coefficient: int,
    ) -> None:
        """Fold this proof's four equations into a running batch.

        ``c1``/``c2`` each appear once with the *summed* challenge
        ``-s·(e0+e1)``; the generator and public key merge across every
        proof in the batch, and the four commitments enter with the
        short exponent ``-s`` — so each extra proof costs two full-width
        and four 64-bit window scans instead of eight exponentiations."""
        group = self.group
        g = group.generator()
        y = self.public_key
        s = coefficient
        # g^{z0}·A0^{-1}·c2^{-e0} == 1 and g^{z1}·A1^{-1}·c2^{-e1} == 1
        batcher.add_term(g, s * (proof.z0 + proof.z1))
        batcher.add_term(proof.a0, -s)
        batcher.add_term(proof.a1, -s)
        batcher.add_term(ciphertext.c2, -s * (proof.e0 + proof.e1))
        # y^{z0}·B0^{-1}·c1^{-e0} == 1 and
        # y^{z1}·B1^{-1}·c1^{-e1}·g^{e1} == 1   (u1 = c1/g)
        batcher.add_term(y, s * (proof.z0 + proof.z1))
        batcher.add_term(proof.b0, -s)
        batcher.add_term(proof.b1, -s)
        batcher.add_term(ciphertext.c1, -s * (proof.e0 + proof.e1))
        batcher.add_term(g, s * proof.e1)

    def material(self, ciphertext: Ciphertext, proof: BitProof) -> bytes:
        """Bytes binding this proof into the batch-coefficient hash."""
        group = self.group
        width = (group.order.bit_length() + 7) // 8
        serialize = group.serialize
        parts = [
            serialize(ciphertext.c1), serialize(ciphertext.c2),
            serialize(proof.a0), serialize(proof.b0),
            serialize(proof.a1), serialize(proof.b1),
        ]
        for value in (proof.e0, proof.e1, proof.z0, proof.z1):
            parts.append((value % group.order).to_bytes(width, "big"))
        return b"".join(parts)
