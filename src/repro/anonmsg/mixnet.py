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
        remaining = self.remaining_key_after(member_id)
        scheme = (
            ElGamal(self.group, pool=pool) if pool is not None else self.scheme
        )
        # A batch is membership-checked before any peeling: the wire
        # decoder checks every element it reads, and validate_from
        # checks a batch handed over directly.
        processed = self._distkey.peel_layers(ciphertexts, secret)
        if member_id != self.member_ids[-1]:
            processed = [
                scheme.rerandomize(peeled, remaining, rng) for peeled in processed
            ]
        rng.shuffle(processed)
        return processed

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
