"""The homomorphic bit-comparison circuit (framework step 7).

Given P_j's *plaintext* bits of ``β_j`` and P_i's *encrypted* bits of
``β_i``, P_j computes, for every bit position ``t`` (1-indexed from the
least significant bit, as in the paper):

    γ^t = β_j^t ⊕ β_i^t
    ω^t = (l − t + 1) − Σ_{v=t+1}^{l} (γ^t − γ^v) − γ^t
    τ^t = ω^t + β_j^t

Key property (proved in ``tests/test_core_comparison.py`` exhaustively
and by hypothesis): among ``τ^1 .. τ^l`` there is **exactly one zero iff
β_j < β_i, and no zero otherwise**.  Intuition: let ``t*`` be the most
significant differing bit.  At ``t = t*`` the bracket ``(l−t+1)·(1−γ^t)
+ Σ_{v>t} γ^v`` vanishes, leaving ``τ = β_j^{t*}``, which is 0 exactly
when ``β_j`` loses; at every other position something positive remains.

All of this is affine in the encrypted bits, so it runs under
exponential ElGamal: XOR with a known bit is negation-or-identity, and
the suffix sums are ciphertext additions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.crypto.bitenc import BitProof, BitValidityProof, BitwiseCiphertext
from repro.crypto.elgamal import Ciphertext, ExponentialElGamal
from repro.groups.base import Element, Group
from repro.math.modular import int_to_bits
from repro.runtime.errors import ProtocolAbort, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.groups.fixed_base import PrecomputedBase


def tau_values_plain(beta_j: int, beta_i: int, width: int) -> List[int]:
    """Reference plaintext evaluation of the circuit (little-endian list:
    entry ``t-1`` is the paper's ``τ^t``)."""
    bits_j = int_to_bits(beta_j, width)
    bits_i = int_to_bits(beta_i, width)
    gammas = [bj ^ bi for bj, bi in zip(bits_j, bits_i)]
    taus = []
    for t in range(1, width + 1):
        suffix = sum(gammas[v - 1] for v in range(t + 1, width + 1))
        omega = (width - t + 1) - ((width - t + 1) * gammas[t - 1] - suffix)
        taus.append(omega + bits_j[t - 1])
    return taus


def compare_bits_plain(beta_j: int, beta_i: int, width: int) -> bool:
    """True iff the circuit reports ``β_j < β_i`` (i.e. a zero τ exists)."""
    return 0 in tau_values_plain(beta_j, beta_i, width)


def verify_bit_proofs_or_abort(
    group: Group,
    public_key: Element,
    claims: Sequence[Tuple[int, BitwiseCiphertext, Sequence[BitProof]]],
    *,
    batch: bool = False,
    phase: str = "comparison",
) -> None:
    """Check every sender's per-bit validity proofs before the circuit
    touches their operand.

    ``claims`` holds ``(sender, bitwise ciphertext, per-bit proofs)`` for
    every peer.  With ``batch=True`` all senders' proof equations fold
    into ONE random-linear-combination multi-exponentiation (the hash
    bindings stay per-proof — they cost a hash, not an exponentiation);
    on batch failure, or with ``batch=False``, proofs are re-checked one
    by one so the abort blames the exact sender, just as the unbatched
    protocol would.
    """
    verifier = BitValidityProof(group, public_key)
    for sender, operand, proofs in claims:
        if not isinstance(proofs, (list, tuple)) or len(proofs) != operand.bit_length:
            raise ProtocolAbort(
                f"P{sender} sent malformed bit-encryption proofs",
                blamed=sender, phase=phase,
            )

    if batch:
        from repro.crypto.zkp import RelationBatcher, derive_batch_coefficients

        flat = [
            (sender, bit_ct, proof)
            for sender, operand, proofs in claims
            for bit_ct, proof in zip(operand, proofs)
        ]
        if all(
            verifier.structurally_sound(bit_ct, proof)
            and verifier.binding_holds(bit_ct, proof)
            for _, bit_ct, proof in flat
        ):
            materials = [
                verifier.material(bit_ct, proof) for _, bit_ct, proof in flat
            ]
            coefficients = derive_batch_coefficients(
                materials, context=b"repro-batch-bitproof-v1"
            )
            batcher = RelationBatcher(group)
            for (_, bit_ct, proof), s in zip(flat, coefficients):
                verifier.add_relations(batcher, bit_ct, proof, s)
            if batcher.holds():
                return

    for sender, operand, proofs in claims:
        for bit_ct, proof in zip(operand, proofs):
            if not verifier.verify(bit_ct, proof):
                raise ProtocolAbort(
                    f"P{sender} sent an invalid bit-encryption proof",
                    blamed=sender, phase=phase,
                )
    if batch:
        raise ProtocolAbort(
            "batch verification failed but no single bit proof did", phase=phase
        )


class HomomorphicComparator:
    """Evaluates the circuit over exponential-ElGamal ciphertexts.

    ``naive_suffix=True`` recomputes every suffix sum from scratch
    (``O(l²)`` ciphertext additions, matching the paper's step-7 cost
    accounting); the default reuses a running suffix sum (``O(l)``).
    The outputs are identical; the ablation bench contrasts the costs.

    ``multiexp`` routes the circuit's short scalars (``±weight``, the
    plaintext shifts) through :mod:`repro.math.multiexp` kernels;
    ``generator_table`` (under ``precompute``, the randomness pool's
    public table) additionally serves generator powers from a fixed-base
    table.  Both produce element-identical τ sets — only the operation
    counts (and wall-clock) change.
    """

    def __init__(
        self,
        group: Group,
        naive_suffix: bool = False,
        *,
        multiexp: bool = False,
        generator_table: Optional["PrecomputedBase"] = None,
    ):
        self.group = group
        self.scheme = ExponentialElGamal(
            group, multiexp=multiexp, generator_table=generator_table
        )
        self.naive_suffix = naive_suffix
        # Set by every encrypted_taus call: homomorphic additions spent on
        # suffix sums.  The default path is asserted O(l); the naive path
        # is the paper's O(l²) accounting, kept for the ablation benches.
        self.last_suffix_adds = 0

    def encrypted_taus(
        self, my_beta: int, other_bits: BitwiseCiphertext
    ) -> List[Ciphertext]:
        """``[E(τ^1), …, E(τ^l)]`` comparing ``my_beta`` against the
        encrypted ``β_i``.  A zero plaintext will exist iff
        ``my_beta < β_i``."""
        width = other_bits.bit_length
        if width <= 0:
            raise ProtocolError("cannot compare against an empty bitwise operand")
        if my_beta < 0 or my_beta >= (1 << width):
            raise ProtocolError(
                f"own beta does not fit the operand's {width}-bit width"
            )
        my_bits = int_to_bits(my_beta, width)
        gammas = [
            self._encrypted_xor_with_plain(bit_ct, my_bit)
            for bit_ct, my_bit in zip(other_bits, my_bits)
        ]
        self.last_suffix_adds = 0
        if self.naive_suffix:
            suffix_sums = [
                self._sum_ciphertexts(gammas[t:]) for t in range(1, width + 1)
            ]
        else:
            suffix_sums = self._running_suffix_sums(gammas)
            # Regression guard: the running-suffix pass must stay linear in
            # the bit width — at most one addition per position, never the
            # O(l²) recomputation the naive path pays.
            assert self.last_suffix_adds <= width, (
                "running suffix pass exceeded its O(l) budget"
            )
        taus: List[Ciphertext] = []
        for t in range(1, width + 1):
            weight = width - t + 1
            # ω^t = weight − weight·γ^t + Σ_{v>t} γ^v
            omega = self.scheme.scalar_mul(gammas[t - 1], -weight)
            omega = self.scheme.add(omega, suffix_sums[t - 1])
            omega = self.scheme.add_plain(omega, weight)
            taus.append(self.scheme.add_plain(omega, my_bits[t - 1]))
        return taus

    # -- helpers ---------------------------------------------------------------
    def _encrypted_xor_with_plain(self, bit_ct: Ciphertext, plain_bit: int) -> Ciphertext:
        """``E(b) -> E(b ⊕ p)`` for a known bit ``p``: identity or ``E(1-b)``."""
        if plain_bit == 0:
            return bit_ct
        return self.scheme.add_plain(self.scheme.negate(bit_ct), 1)

    def _running_suffix_sums(self, gammas: Sequence[Ciphertext]) -> List[Ciphertext]:
        """``sums[t-1] = E(Σ_{v>t} γ^v)`` with one pass from the top bit."""
        width = len(gammas)
        zero = Ciphertext(c1=self.group.identity(), c2=self.group.identity())
        sums = [zero] * width
        running = zero
        for t in range(width - 1, 0, -1):
            running = self.scheme.add(running, gammas[t])
            self.last_suffix_adds += 1
            sums[t - 1] = running
        return sums

    def _sum_ciphertexts(self, items: Sequence[Ciphertext]) -> Ciphertext:
        total = Ciphertext(c1=self.group.identity(), c2=self.group.identity())
        for item in items:
            total = self.scheme.add(total, item)
            self.last_suffix_adds += 1
        return total
