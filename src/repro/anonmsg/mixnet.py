"""A decryption mix-net over distributed (multiplicative) ElGamal.

Ciphertexts encrypted under the joint key ``y = Π y_i`` pass through
the members in turn; member ``i``:

1. peels her layer (``c → c / c'^{x_i}``);
2. re-randomizes under the *remaining* joint key ``Π_{j>i} y_j``
   (multiply in a fresh encryption of 1), so her output ciphertexts are
   statistically unlinkable to her input ciphertexts;
3. permutes the batch.

After the last member the plaintexts emerge — a uniformly shuffled
multiset.  Unlinkability holds against any coalition missing at least
one honest mix hop (the Brickell-Shmatikov property the paper's
framework inherits: n−2 colluders tolerated).

Unlike the framework's shuffle (exponent re-randomization, preserving
only the zero predicate), a mix-net must deliver the *exact* plaintexts,
hence re-randomization by multiplying in ``E(1)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.crypto.distkey import DistributedKey
from repro.crypto.elgamal import Ciphertext, ElGamal
from repro.groups.base import Element, Group
from repro.math.rng import RNG
from repro.runtime.errors import ProtocolAbort

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.precompute import RandomnessPool


class DecryptionMixnet:
    """Hop-by-hop machinery; the parties drive it via :meth:`mix_hop`."""

    def __init__(self, group: Group, member_publics: Dict[int, Element]):
        """``member_publics`` maps member id -> published key share."""
        self.group = group
        self.scheme = ElGamal(group)
        self._distkey = DistributedKey(group)
        for member_id, public in sorted(member_publics.items()):
            self._distkey.register_public(member_id, public)
        self.member_ids = sorted(member_publics)

    def joint_public_key(self) -> Element:
        return self._distkey.joint_public_key()

    def submit(self, plaintext_element: Element, rng: RNG) -> Ciphertext:
        """Encrypt a group-encoded message under the joint key."""
        return self.scheme.encrypt(plaintext_element, self.joint_public_key(), rng)

    def remaining_key_after(self, member_id: int) -> Element:
        """``Π y_j`` over members ordered after ``member_id``."""
        later = [m for m in self.member_ids if m > member_id]
        return self._distkey.partial_public_key(later)

    def validate_batch(
        self, ciphertexts: Sequence[Ciphertext], src: int, *,
        expected_size: Optional[int] = None,
    ) -> None:
        """Validated-abort check on a batch arriving from mix member ``src``.

        A hop that drops, adds, or corrupts ciphertexts (components
        outside the group) is blamed by id; downstream members never
        touch an invalid batch.
        """
        if expected_size is not None and len(ciphertexts) != expected_size:
            raise ProtocolAbort(
                f"mix batch from P{src} has {len(ciphertexts)} ciphertexts, "
                f"expected {expected_size}",
                blamed=src, phase="mixing",
            )
        for ciphertext in ciphertexts:
            if not (
                isinstance(ciphertext, Ciphertext)
                and self.group.is_element(ciphertext.c1)
                and self.group.is_element(ciphertext.c2)
            ):
                raise ProtocolAbort(
                    f"mix batch from P{src} contains a ciphertext with "
                    "components outside the group",
                    blamed=src, phase="mixing",
                )

    def mix_hop(
        self,
        ciphertexts: Sequence[Ciphertext],
        member_id: int,
        secret: int,
        rng: RNG,
        *,
        pool: Optional["RandomnessPool"] = None,
        validate_from: Optional[int] = None,
    ) -> List[Ciphertext]:
        """One member's peel + re-randomize + permute.

        ``pool`` (keyed to this hop's *remaining* joint key) serves the
        re-randomization pairs offline.  ``validate_from`` (the previous
        hop's id) turns on the validated-abort batch check before any
        peeling happens.
        """
        if validate_from is not None:
            self.validate_batch(ciphertexts, validate_from)
        processed = self.peel_and_rerandomize(
            ciphertexts, member_id, secret, rng, pool=pool
        )
        rng.shuffle(processed)
        return processed

    def peel_and_rerandomize(
        self,
        ciphertexts: Sequence[Ciphertext],
        member_id: int,
        secret: int,
        rng: RNG,
        *,
        pool: Optional["RandomnessPool"] = None,
    ) -> List[Ciphertext]:
        """The exponentiation-heavy part of a hop, without the permutation.

        Safe to call incrementally on consecutive chunks of one batch
        (:class:`StreamingMixHop` does exactly that): randomness is drawn
        in ciphertext order, so chunked and whole-batch processing
        consume the pool/RNG identically.
        """
        remaining = self.remaining_key_after(member_id)
        is_last = member_id == self.member_ids[-1]
        scheme = (
            ElGamal(self.group, pool=pool) if pool is not None else self.scheme
        )
        # repro-lint: ignore[R-GUARD] -- hot hop path; batches are
        # membership-checked at receipt (mix_hop validate_from /
        # StreamingMixHop.absorb) before any peeling
        processed = self._distkey.peel_layers(ciphertexts, secret)
        if is_last:
            return processed
        return [scheme.rerandomize(peeled, remaining, rng) for peeled in processed]

    def open_outputs(self, ciphertexts: Sequence[Ciphertext]) -> List[Element]:
        """After every hop ran, the c1 components are the plaintexts."""
        return [ciphertext.c1 for ciphertext in ciphertexts]

    # -- one-process reference (tests, examples) ------------------------------
    def mix_all(
        self,
        ciphertexts: Sequence[Ciphertext],
        secrets: Dict[int, int],
        rng: RNG,
    ) -> List[Element]:
        current = list(ciphertexts)
        for member_id in self.member_ids:
            current = self.mix_hop(current, member_id, secrets[member_id], rng)
        return self.open_outputs(current)


class StreamingMixHop:
    """One member's hop, fed chunk by chunk as the upstream hop emits.

    The exponentiation-heavy peel + re-randomize runs per chunk in
    :meth:`absorb`, so it overlaps the upstream member's (staggered)
    emission; the permutation is a whole-batch barrier in :meth:`emit` —
    shuffling chunk-locally would let an observer bound every output's
    source to one chunk, gutting the unlinkability the hop exists for.

    Randomness is consumed in global ciphertext order across chunks,
    so a streamed hop produces exactly the ciphertexts (and the same
    permutation) the one-shot :meth:`DecryptionMixnet.mix_hop` would.
    """

    def __init__(
        self,
        mixnet: DecryptionMixnet,
        member_id: int,
        secret: int,
        *,
        validate_from: Optional[int] = None,
    ):
        self.mixnet = mixnet
        self.member_id = member_id
        self.secret = secret
        self.validate_from = validate_from
        self.absorbed = 0
        self._processed: List[Ciphertext] = []
        self._emitted = False

    def absorb(self, chunk: Sequence[Ciphertext], rng: RNG) -> None:
        """Peel + re-randomize one arriving chunk (order-preserving)."""
        if self._emitted:
            raise ValueError("cannot absorb after emit")
        if self.validate_from is not None:
            self.mixnet.validate_batch(chunk, self.validate_from)
        self._processed.extend(
            self.mixnet.peel_and_rerandomize(
                chunk, self.member_id, self.secret, rng
            )
        )
        self.absorbed += len(chunk)

    def emit(self, rng: RNG) -> List[Ciphertext]:
        """Whole-batch permutation barrier; returns the hop's output."""
        self._emitted = True
        processed = self._processed
        rng.shuffle(processed)
        return processed
