"""Abstract prime-order group interface with operation metering.

The paper's efficiency analysis (Section VI-B) counts *group
multiplications*; every concrete group routes its operations through an
:class:`OperationCounter` so protocol runs report exact counts, which the
benchmark harness converts to time with calibrated per-operation costs.

Elements are opaque values owned by their group (integers for DL groups,
point tuples for elliptic curves).  Protocol code never touches the
representation; it calls the group's methods.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.math.rng import RNG

Element = Any


@dataclass
class OperationCounter:
    """Tally of group operations, attachable to one or more groups.

    Membership checks are tallied separately (``membership_checks`` /
    ``membership_cache_hits``) and deliberately excluded from
    :attr:`equivalent_multiplications`: validation is unmetered in the
    paper's cost model, and the counters exist to quantify how much the
    per-group membership memo saves.
    """

    multiplications: int = 0
    exponentiations: int = 0
    exponent_bits: int = 0
    inversions: int = 0
    membership_checks: int = 0
    membership_cache_hits: int = 0

    def record_mul(self, count: int = 1) -> None:
        self.multiplications += count

    def record_exp(self, bits: int, count: int = 1) -> None:
        self.exponentiations += count
        self.exponent_bits += bits * count

    def record_inv(self, count: int = 1) -> None:
        self.inversions += count

    @property
    def equivalent_multiplications(self) -> int:
        """Total cost in the paper's unit (group multiplications).

        Square-and-multiply accounting: an exponentiation with a k-bit
        exponent is ~1.5k multiplications.
        """
        return self.multiplications + (3 * self.exponent_bits) // 2

    def snapshot(self) -> "OperationCounter":
        return OperationCounter(
            multiplications=self.multiplications,
            exponentiations=self.exponentiations,
            exponent_bits=self.exponent_bits,
            inversions=self.inversions,
            membership_checks=self.membership_checks,
            membership_cache_hits=self.membership_cache_hits,
        )

    def merge(self, other: "OperationCounter") -> None:
        """Fold another counter into this one (in place).

        The parallel engine meters each worker-side job on a private
        counter shipped back with the result; the owning party merges
        them so per-party metrics stay exact regardless of how the work
        was distributed across processes.
        """
        self.multiplications += other.multiplications
        self.exponentiations += other.exponentiations
        self.exponent_bits += other.exponent_bits
        self.inversions += other.inversions
        self.membership_checks += other.membership_checks
        self.membership_cache_hits += other.membership_cache_hits

    def diff(self, earlier: "OperationCounter") -> "OperationCounter":
        return OperationCounter(
            multiplications=self.multiplications - earlier.multiplications,
            exponentiations=self.exponentiations - earlier.exponentiations,
            exponent_bits=self.exponent_bits - earlier.exponent_bits,
            inversions=self.inversions - earlier.inversions,
            membership_checks=self.membership_checks - earlier.membership_checks,
            membership_cache_hits=(
                self.membership_cache_hits - earlier.membership_cache_hits
            ),
        )

    def reset(self) -> None:
        self.multiplications = 0
        self.exponentiations = 0
        self.exponent_bits = 0
        self.inversions = 0
        self.membership_checks = 0
        self.membership_cache_hits = 0


@dataclass
class Group:
    """A cyclic group of prime order ``order`` in which DDH is assumed hard.

    Concrete subclasses: :class:`repro.groups.dl.DLGroup` and
    :class:`repro.groups.elliptic.EllipticCurveGroup`.
    """

    counter: OperationCounter = field(default_factory=OperationCounter)

    #: Cap on the memoized serialize/deserialize caches.  Once full the
    #: caches stop growing and further elements are encoded directly.
    SERIALIZE_CACHE_MAX = 4096

    #: Cap on the membership-check memo (LRU; see
    #: :meth:`_membership_cached`).
    MEMBERSHIP_CACHE_MAX = 4096

    #: Per-process memos :meth:`__post_init__` creates.  They are never
    #: pickled: jobs and tcp SPEC frames ship the group to other
    #: processes, which rebuild their own on demand.
    _TRANSIENT = ("_serialize_cache", "_deserialize_cache", "_membership_cache")

    def __post_init__(self) -> None:
        self._serialize_cache: dict = {}
        self._deserialize_cache: dict = {}
        self._membership_cache: "OrderedDict" = OrderedDict()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._TRANSIENT:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # -- facts subclasses must provide ------------------------------------
    @property
    def order(self) -> int:
        """Prime order q of the group."""
        raise NotImplementedError

    @property
    def element_bits(self) -> int:
        """Wire size of one serialized element, in bits."""
        raise NotImplementedError

    @property
    def security_bits(self) -> int:
        """Equivalent symmetric security level (80/112/128...)."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError

    def generator(self) -> Element:
        raise NotImplementedError

    def identity(self) -> Element:
        raise NotImplementedError

    # -- operations --------------------------------------------------------
    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def exp(self, a: Element, k: int) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def eq(self, a: Element, b: Element) -> bool:
        raise NotImplementedError

    def is_element(self, a: Element) -> bool:
        """Membership test (used to validate incoming protocol messages)."""
        raise NotImplementedError

    # -- derived helpers ----------------------------------------------------
    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    # -- set kernels ---------------------------------------------------------
    # One call per ciphertext set: the decrypt-rerandomize chain raises
    # and divides whole sets at a time.  The defaults are the
    # per-element loops; a group may compute the same elements, with
    # the same metering, in fewer Python calls (DLGroup does).
    def exp_each(
        self, bases: Sequence[Element], exponents: Sequence[int]
    ) -> List[Element]:
        """:meth:`exp` of each ``(base, exponent)`` pair."""
        require_pairs(bases, exponents)
        exp = self.exp
        return [exp(a, k) for a, k in zip(bases, exponents)]

    def div_each(
        self, numerators: Sequence[Element], denominators: Sequence[Element]
    ) -> List[Element]:
        """:meth:`div` of each ``(numerator, denominator)`` pair."""
        require_pairs(numerators, denominators)
        div = self.div
        return [div(a, b) for a, b in zip(numerators, denominators)]

    def exp_generator(self, k: int) -> Element:
        return self.exp(self.generator(), k)

    def exp_fixed(self, base: Element, k: int) -> Element:
        """:meth:`exp` of a base the caller will exponentiate again.

        Same element, same metering; a group may keep a fixed-base
        table for ``base`` (:class:`repro.groups.dl.DLGroup` does).
        """
        return self.exp(base, k)

    def is_identity(self, a: Element) -> bool:
        return self.eq(a, self.identity())

    def random_exponent(self, rng: RNG) -> int:
        """Uniform exponent in ``Z_q``."""
        return rng.randrange(self.order)

    def random_nonzero_exponent(self, rng: RNG) -> int:
        """Uniform exponent in ``Z_q \\ {0}`` (for rerandomization)."""
        return rng.rand_nonzero(self.order)

    def random_element(self, rng: RNG) -> Element:
        return self.exp_generator(self.random_exponent(rng))

    def serialize(self, a: Element) -> bytes:
        """Canonical byte encoding; length matches ``element_bits``."""
        raise NotImplementedError

    def deserialize(self, data: bytes) -> Element:
        """Inverse of :meth:`serialize` with membership validation."""
        raise NotImplementedError

    # -- wire facts ---------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Exact length of one canonical element encoding, in bytes.

        The wire codec relies on this being constant per group so element
        bodies need no length prefix.
        """
        return (self.element_bits + 7) // 8

    @property
    def wire_faithful(self) -> bool:
        """Whether serialize/deserialize round-trips distinct elements.

        The analysis-only :class:`CountingGroup` collapses every element
        to the constant 1, so interning and transcoding over it would
        fraudulently dedupe all traffic; it reports ``False``.
        """
        return True

    # -- memoized canonical encodings ---------------------------------------
    def serialize_cached(self, a: Element) -> bytes:
        """:meth:`serialize` with a bounded per-group memo.

        Hot protocol paths serialize the same elements repeatedly (``g``,
        ``y``, pooled ``(g^r, y^r)`` pairs, rerandomized chain entries);
        the memo makes each element's canonical bytes a one-time cost.
        """
        cache = self._serialize_cache
        data = cache.get(a)
        if data is None:
            data = self.serialize(a)
            if len(cache) < self.SERIALIZE_CACHE_MAX:
                cache[a] = data
        return data

    def _membership_cached(self, key: Element) -> bool:
        """Bounded LRU memo over :meth:`_check_membership` verdicts.

        Groups are immutable, so a membership verdict never changes —
        the memo needs no invalidation.  Protocol runs re-validate the
        same elements constantly (the chain checks every received
        ciphertext component, and hot elements like ``g``,
        ``y`` and pooled pairs recur across rounds), so the residue /
        scalar-multiplication test is paid once per distinct element.
        Hits and misses are tallied on the attached
        :class:`OperationCounter` (``membership_*`` fields); the check
        itself stays unmetered, matching the paper's cost model.  The
        wire decoder calls this once per element it reads, so it stays
        one frame plus the check.
        """
        cache = self._membership_cache
        verdict = cache.get(key)
        if verdict is not None:
            cache.move_to_end(key)
            counter = self.counter
            counter.membership_checks += 1
            counter.membership_cache_hits += 1
            return verdict
        verdict = cache[key] = self._check_membership(key)
        self.counter.membership_checks += 1
        if len(cache) > self.MEMBERSHIP_CACHE_MAX:
            cache.popitem(last=False)
        return verdict

    def _check_membership(self, a: Element) -> bool:
        """The uncached membership test behind :meth:`_membership_cached`,
        for a value already known to be well formed."""
        raise NotImplementedError

    def deserialize_cached(self, data: bytes) -> Element:
        """:meth:`deserialize` with a bounded per-group memo.

        Caching the inverse direction matters most for curves, where
        decompression pays a modular square root per point.
        """
        cache = self._deserialize_cache
        a = cache.get(data)
        if a is None:
            a = self.deserialize(data)
            if len(cache) < self.SERIALIZE_CACHE_MAX:
                cache[data] = a
        return a

    def attach_counter(self, counter: Optional[OperationCounter]) -> None:
        """Redirect this group's operation metering to ``counter``."""
        self.counter = counter if counter is not None else OperationCounter()


def require_pairs(first: Sequence[Any], second: Sequence[Any]) -> None:
    """Reject a set-kernel call whose two sequences differ in length."""
    if len(first) != len(second):
        raise ValueError("a set kernel needs two sequences of one length")
