"""The DL group: quadratic residues modulo a safe prime.

With ``p = 2q + 1`` (both prime), the quadratic residues modulo ``p``
form a cyclic subgroup of prime order ``q`` in which DDH is believed
hard — the paper's "DL" instantiation.  ``g = 4 = 2^2`` is always a
residue and, because ``q`` is prime, any residue other than 1 generates
the whole subgroup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence

from repro.groups.base import Element, Group, OperationCounter, require_pairs
from repro.groups.fixed_base import PrecomputedBase
from repro.math import backend
from repro.math.modular import jacobi_symbol, mod_inverse
from repro.math.multiexp import SMALL_EXPONENT_BITS
from repro.math.primes import is_safe_prime, modp_safe_prime, random_safe_prime
from repro.math.rng import RNG

_SHORT_EXPONENT = 1 << SMALL_EXPONENT_BITS


class DLGroup(Group):
    """Subgroup of quadratic residues modulo the safe prime ``p``.

    Elements are plain integers in ``[1, p-1]`` with Jacobi symbol 1.
    """

    #: Cap on the fixed-base tables one group keeps (LRU).  A window-4
    #: table holds ``15·|q|/4`` elements, about 0.7 MB at 1024 bits.
    FIXED_BASE_TABLES_MAX = 4

    _TRANSIENT = Group._TRANSIENT + (
        "_tables", "_plan_backend", "_native", "_short_from", "_q_bits",
    )

    def __init__(
        self,
        p: int,
        generator: int = 4,
        security_bits: Optional[int] = None,
        verify: bool = True,
        counter: Optional[OperationCounter] = None,
    ):
        super().__init__(counter=counter or OperationCounter())
        if verify and not is_safe_prime(p):
            raise ValueError("p must be a safe prime")
        self._p = p
        self._q = (p - 1) // 2
        generator %= p
        if generator in (0, 1) or jacobi_symbol(generator, p) != 1:
            raise ValueError("generator must be a non-trivial quadratic residue")
        self._g = generator
        self._wire_width = (p.bit_length() + 7) // 8
        self._security_bits = security_bits or _nist_equivalent_security(p.bit_length())

    # -- class constructors --------------------------------------------------
    @classmethod
    def standard(cls, bits: int, counter: Optional[OperationCounter] = None) -> "DLGroup":
        """The standardized MODP group of the given modulus size."""
        return cls(modp_safe_prime(bits), verify=False, counter=counter)

    @classmethod
    def random(
        cls, bits: int, rng: Optional[RNG] = None, counter: Optional[OperationCounter] = None
    ) -> "DLGroup":
        """A fresh (small) group for tests; ``bits`` should stay modest."""
        return cls(random_safe_prime(bits, rng), verify=False, counter=counter)

    # -- facts ----------------------------------------------------------------
    @property
    def modulus(self) -> int:
        return self._p

    @property
    def order(self) -> int:
        return self._q

    @property
    def element_bits(self) -> int:
        return self._p.bit_length()

    @property
    def security_bits(self) -> int:
        return self._security_bits

    @property
    def name(self) -> str:
        return f"DL-{self._p.bit_length()}"

    def generator(self) -> Element:
        return self._g

    def identity(self) -> Element:
        return 1

    def __post_init__(self) -> None:
        super().__post_init__()
        self._tables: "OrderedDict[int, PrecomputedBase]" = OrderedDict()
        # exp's kernel plan (_plan), made again under each active backend.
        self._plan_backend: Optional[backend.ArithmeticBackend] = None
        self._native = False
        self._short_from = self._q_bits = 0

    # -- operations -------------------------------------------------------------
    # Arithmetic dispatches through repro.math.backend at call time, so
    # the active backend (pure python, gmp or gmpy2) accelerates every
    # group operation; the counter is recorded above the seam, keeping
    # the paper's operation accounting backend-independent.
    def mul(self, a: int, b: int) -> int:
        self.counter.record_mul()
        return backend.mulmod(a, b, self._p)

    def exp(self, a: int, k: int) -> int:
        """``a^(k mod q)``, metered as one |q|-bit exponentiation.

        Below the meter the element comes from the cheapest exact route:

        * a residue ``e = k mod q`` just below ``q`` (``q - e < 2^16``
          and ``e > q/2``), i.e. a short centered exponent ``e - q`` like
          the comparison circuit's ``-weight`` scalars, costs one inverse
          and a short power instead of a ladder over ``e``; Euler's
          criterion ``a^q = (a/p)`` fixes the sign for any integer ``a``;
        * where the backend's ``powmod`` is native at this modulus
          (:func:`backend.native_powmod`), anything else is one
          ``backend.powmod``: one native power beats a Python-level table
          walk (about 2x at 48 bits and 3x at 1024, ABL-fixedbase), so no
          table is built or walked;
        * otherwise a base with a fixed-base table (the generator once it
          is raised to a long exponent, keys passed to :meth:`exp_fixed`)
          walks the table with ``backend.mulmod``, and anything else is
          one ``backend.powmod``.
        """
        # The plan is checked inline against the module's active backend,
        # not through get_backend(): at 48 bits a native power costs
        # about 2.7 us and each Python call here a few percent of it,
        # which ABL-fixedbase's default/best gate sees.  The native
        # power, the common case, is inlined too.
        if self._plan_backend is not backend._active:
            self._plan()
        self.counter.record_exp(self._q_bits)
        e = k % self._q
        if self._native and e <= self._short_from:
            return backend.powmod(a, e, self._p)
        return self._exp_reduced(a, e)

    def exp_each(self, bases: Sequence[int], exponents: Sequence[int]) -> List[int]:
        """:meth:`exp` of each pair, metered in bulk as one |q|-bit
        exponentiation per element.  Where ``powmod`` is native and no
        reduced exponent takes the short centered route, the whole set
        is one :func:`backend.powmod_each` call; otherwise each element
        takes :meth:`exp`'s route."""
        if self._plan_backend is not backend._active:
            self._plan()
        require_pairs(bases, exponents)
        q = self._q
        reduced = [k % q for k in exponents]
        self.counter.record_exp(self._q_bits, len(reduced))
        if self._native and (not reduced or max(reduced) <= self._short_from):
            return backend.powmod_each(bases, reduced, self._p)
        kernel = self._exp_reduced
        return [kernel(a, e) for a, e in zip(bases, reduced)]

    def _exp_reduced(self, a: int, e: int) -> int:
        """:meth:`exp`'s routes for a reduced exponent ``0 <= e < q``,
        unmetered."""
        p = self._p
        if e > self._short_from:
            symbol = backend.jacobi(a, p)
            if not symbol:
                return 0  # a ≡ 0 (mod p) has no inverse; 0^k = 0
            power = backend.powmod(a, e - self._q, p)
            return power if symbol == 1 else p - power
        if self._native:
            return backend.powmod(a, e, p)
        table = self._tables.get(a)
        if table is None:
            if a != self._g or e.bit_length() <= SMALL_EXPONENT_BITS:
                return backend.powmod(a, e, p)
            table = self._table_for(a)
        else:
            self._tables.move_to_end(a)
        return table.exp(e)

    def exp_fixed(self, base: int, k: int) -> int:
        if self._plan_backend is not backend._active:
            self._plan()
        if base not in self._tables and not self._native:
            self._table_for(base)
        return self.exp(base, k)

    def _plan(self) -> None:
        """Plan :meth:`exp`'s kernels under the active backend, once per
        (group, backend): whether its ``powmod`` is native here, the
        residues ``e = k mod q`` above which ``e - q`` is a short
        centered exponent, and the metered exponent width.  All live in
        transient fields, so a pickled group carries none of them."""
        self._plan_backend = active = backend.get_backend()
        self._native = active.native_powmod(self._p)
        q = self._q
        self._short_from = max(q // 2, q - _SHORT_EXPONENT)
        self._q_bits = q.bit_length()

    def _table_for(self, base: int) -> PrecomputedBase:
        """A new fixed-base table for ``base``, evicting the least
        recently used one at the cap; built and walked unmetered."""
        tables = self._tables
        if len(tables) >= self.FIXED_BASE_TABLES_MAX:
            tables.popitem(last=False)
        table = tables[base] = PrecomputedBase(self, base, mul=self._mulmod)
        return table

    def _mulmod(self, a: int, b: int) -> int:
        return backend.mulmod(a, b, self._p)

    def inv(self, a: int) -> int:
        self.counter.record_inv()
        return mod_inverse(a, self._p)

    def div_each(
        self, numerators: Sequence[int], denominators: Sequence[int]
    ) -> List[int]:
        """:meth:`div` of each pair through one inverse for the whole set
        (Montgomery's batch inversion), metered as :meth:`div` is: one
        inversion and one multiplication per element.  A denominator
        ``≡ 0 (mod p)`` raises :meth:`inv`'s ``ValueError`` with the
        counts the per-element loop reaches before it."""
        require_pairs(numerators, denominators)
        count = len(denominators)
        if not count:
            return []
        p, mulmod = self._p, backend.get_backend().mulmod
        # prefix[i] = b_0 ... b_i; one inverse of the whole product, then
        # walk back: b_i^-1 = prefix[i-1] * (b_0 ... b_i)^-1.
        prefix = []
        running = 1
        for b in denominators:
            running = mulmod(running, b, p)
            prefix.append(running)
        counter = self.counter
        if not running:
            # As the per-element loop: the divisions before the first
            # zero, then inv's metered ValueError.
            zero = next(i for i, b in enumerate(denominators) if not b % p)
            counter.record_inv(zero)
            counter.record_mul(zero)
            self.inv(denominators[zero])
        counter.record_inv(count)
        counter.record_mul(count)
        inverse = mod_inverse(running, p)
        quotients = [0] * count
        for i in range(count - 1, 0, -1):
            quotients[i] = mulmod(numerators[i], mulmod(inverse, prefix[i - 1], p), p)
            inverse = mulmod(inverse, denominators[i], p)
        quotients[0] = mulmod(numerators[0], inverse, p)
        return quotients

    def eq(self, a: int, b: int) -> bool:
        return a % self._p == b % self._p

    def is_element(self, a: Element) -> bool:
        # The residue test costs a full-width Jacobi evaluation per
        # call and protocol runs re-check the same elements constantly,
        # so verdicts are memoized (bounded LRU; groups are immutable,
        # hence no invalidation — hit counts land in the counter's
        # membership_* fields).
        if not isinstance(a, int) or not 0 < a < self._p:
            return False
        if a == 1:
            return True
        return self._membership_cached(a)

    def _check_membership(self, a: int) -> bool:
        # p is an odd prime, so the symbol needs no argument checks.
        return backend.jacobi(a, self._p) == 1

    def serialize(self, a: int) -> bytes:
        return int(a).to_bytes(self._wire_width, "big")

    # One to_bytes call costs less than a lookup in the serialize memo
    # (about 0.3 against 0.6 us per fresh element at 48 bits, and most
    # elements a run sends are fresh), so DL elements skip it.
    serialize_cached = serialize

    def deserialize(self, data: bytes) -> int:
        # The wire format ships fixed-width element bodies, so a length
        # mismatch means framing corruption — reject it before the
        # residue check can misread a short/long buffer as some other
        # (valid) element.
        if len(data) != self._wire_width:
            raise self._width_error(data)
        a = int.from_bytes(data, "big")
        if not self.is_element(a):
            raise ValueError("decoded value is not a group element")
        return a

    def deserialize_cached(self, data: bytes) -> int:
        # Group.deserialize_cached with deserialize inlined: the wire
        # decoder calls this once per raw element body it reads.
        cache = self._deserialize_cache
        a = cache.get(data)
        if a is None:
            if len(data) != self._wire_width:
                raise self._width_error(data)
            a = int.from_bytes(data, "big")
            if not self.is_element(a):
                raise ValueError("decoded value is not a group element")
            if len(cache) < self.SERIALIZE_CACHE_MAX:
                cache[data] = a
        return a

    def _width_error(self, data: bytes) -> ValueError:
        return ValueError(
            f"{self.name}: element body must be {self._wire_width} bytes, "
            f"got {len(data)}"
        )

    def __repr__(self) -> str:
        return f"DLGroup(bits={self._p.bit_length()}, security={self._security_bits})"


class TextbookDLGroup(DLGroup):
    """:class:`DLGroup` whose ``exp`` is one full-width ``powmod``.

    The reference the exact kernels of :meth:`DLGroup.exp` are tested
    and benchmarked against: it meters exactly as :class:`DLGroup`, so
    a run over either group has the same counts, elements and transcript.
    """

    def exp(self, a: int, k: int) -> int:
        k %= self._q
        self.counter.record_exp(self._q.bit_length())
        return backend.powmod(a, k, self._p)

    def exp_fixed(self, base: int, k: int) -> int:
        return self.exp(base, k)

    # The per-element loops: the reference for DLGroup's set kernels.
    exp_each = Group.exp_each
    div_each = Group.div_each


def _nist_equivalent_security(modulus_bits: int) -> int:
    """NIST SP 800-57 equivalences used by the paper (FIPS 140-2 IG)."""
    if modulus_bits >= 3072:
        return 128
    if modulus_bits >= 2048:
        return 112
    if modulus_bits >= 1024:
        return 80
    # Toy/test groups: report something honest and clearly sub-standard.
    return max(8, modulus_bits // 16)
