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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.crypto.distkey import DistributedKey
from repro.crypto.elgamal import Ciphertext, ElGamal
from repro.groups.base import Element, Group
from repro.math.rng import RNG
from repro.runtime.errors import ProtocolAbort

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.precompute import RandomnessPool
    from repro.runtime.parallel import WorkerPool


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

    def without_member(self, member_id: int) -> "DecryptionMixnet":
        """A fresh mix-net over the surviving members (dropout recovery).

        The dead member's key share is gone, so the survivors must
        re-key and the senders re-submit under the new joint key — the
        same restart the ranking framework performs when a chain member
        crashes mid-shuffle.
        """
        survivors = {
            m: self._distkey.public_share(m)
            for m in self.member_ids
            if m != member_id
        }
        if len(survivors) < 1:
            raise ValueError("cannot drop the last mix member")
        return DecryptionMixnet(self.group, survivors)

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
        executor: Optional["WorkerPool"] = None,
        validate_from: Optional[int] = None,
    ) -> List[Ciphertext]:
        """One member's peel + re-randomize + permute.

        ``pool`` (keyed to this hop's *remaining* joint key) serves the
        re-randomization pairs offline; ``executor`` fans the peel +
        re-randomize work out across worker slices with pre-drawn
        randomness, keeping the permutation draw on this side so the RNG
        consumption — and hence the transcript — matches the serial hop
        byte for byte.  ``validate_from`` (the previous hop's id) turns
        on the validated-abort batch check before any peeling happens.
        """
        if validate_from is not None:
            self.validate_batch(ciphertexts, validate_from)
        processed = self.peel_and_rerandomize(
            ciphertexts, member_id, secret, rng, pool=pool, executor=executor
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
        executor: Optional["WorkerPool"] = None,
    ) -> List[Ciphertext]:
        """The exponentiation-heavy part of a hop, without the permutation.

        Safe to call incrementally on consecutive chunks of one batch
        (:class:`StreamingMixHop` does exactly that): randomness is drawn
        in ciphertext order, so chunked and whole-batch processing
        consume the pool/RNG identically.
        """
        remaining = self.remaining_key_after(member_id)
        is_last = member_id == self.member_ids[-1]
        if executor is not None and executor.parallel:
            return self._mix_hop_parallel(
                ciphertexts, secret, remaining, is_last, rng, pool, executor
            )
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

    def _mix_hop_parallel(
        self,
        ciphertexts: Sequence[Ciphertext],
        secret: int,
        remaining: Element,
        is_last: bool,
        rng: RNG,
        pool: Optional["RandomnessPool"],
        executor: "WorkerPool",
    ) -> List[Ciphertext]:
        from repro.runtime.parallel import MixHopJob, evaluate_mix_hop_job

        # Pre-draw every re-randomizer in serial order.  A pool keyed to
        # the remaining joint key already holds the (g^r, y^r) *elements*,
        # so the jobs ship those and workers re-encrypt with two
        # multiplications per ciphertext; without a pool the jobs carry
        # the bare exponents and workers recompute the powers.  Either
        # way the elements match the serial hop's exactly.
        rerandomizers: Optional[List[int]] = None
        pairs: Optional[List[Tuple[Element, Element]]] = None
        if not is_last:
            if pool is not None and pool.matches_key(remaining):
                pairs = [
                    (pair.g_r, pair.y_r)
                    for pair in (pool.take() for _ in ciphertexts)
                ]
            else:
                rerandomizers = [
                    self.group.random_exponent(rng) for _ in ciphertexts
                ]
        slice_count = min(executor.workers, max(1, len(ciphertexts)))
        bounds = [
            (len(ciphertexts) * k // slice_count,
             len(ciphertexts) * (k + 1) // slice_count)
            for k in range(slice_count)
        ]
        jobs = [
            MixHopJob(
                group=self.group,
                ciphertexts=tuple(ciphertexts[lo:hi]),
                secret=secret,
                remaining_key=remaining,
                rerandomizers=(
                    tuple(rerandomizers[lo:hi]) if rerandomizers is not None else None
                ),
                rerandomizer_pairs=(
                    tuple(pairs[lo:hi]) if pairs is not None else None
                ),
            )
            for lo, hi in bounds
            if hi > lo
        ]
        processed: List[Ciphertext] = []
        for chunk, counter in executor.map(evaluate_mix_hop_job, jobs):
            processed.extend(chunk)
            self.group.counter.merge(counter)
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
        pool: Optional["RandomnessPool"] = None,
        executor: Optional["WorkerPool"] = None,
        validate_from: Optional[int] = None,
    ):
        self.mixnet = mixnet
        self.member_id = member_id
        self.secret = secret
        self.pool = pool
        self.executor = executor
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
                chunk, self.member_id, self.secret, rng,
                pool=self.pool, executor=self.executor,
            )
        )
        self.absorbed += len(chunk)

    def emit(self, rng: RNG) -> List[Ciphertext]:
        """Whole-batch permutation barrier; returns the hop's output."""
        self._emitted = True
        processed = self._processed
        rng.shuffle(processed)
        return processed
