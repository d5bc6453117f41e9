"""Offline precomputation: randomness pools for the online critical path.

Every ElGamal encryption and re-randomization spends two full-width
exponentiations — ``g^r`` and ``y^r`` — on randomness that has *nothing
to do with the message*.  Splitting the protocol into an offline and an
online phase (as Wang & Chau 2023 and Tueno et al. 2019 do to make
rank-based MPC practical) moves exactly that work off the latency
path: a :class:`RandomnessPool` mass-produces ``(r, g^r, y^r)`` triples
ahead of time with batched fixed-base tables, and the online phase
assembles each ciphertext from a pooled pair with plain multiplications.

Consumers:

* :class:`repro.crypto.elgamal.ElGamal` / ``ExponentialElGamal`` —
  pooled ``encrypt`` / ``rerandomize`` / ``encrypt_zero``;
* :class:`repro.crypto.bitenc.BitwiseElGamal` — step-6 bitwise gain
  encryption (``l`` pooled pairs per participant);
* :class:`repro.core.comparison.HomomorphicComparator` — fixed-base
  generator powers for the circuit's plaintext shifts;
* :class:`repro.anonmsg.mixnet.DecryptionMixnet` hops — re-randomization
  under the remaining joint key from a pool keyed to that hop.

The pool stores secret exponents, so it must be treated exactly like
the randomness it replaces: per party, never shared, never serialized.
A pool is bound to one ``(group, public_key)`` pair; schemes verify the
key before consuming from it and fall back to fresh randomness on a
mismatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Element, Group
from repro.groups.fixed_base import PrecomputedBase
from repro.math.rng import RNG


@dataclass(frozen=True)
class RandomPair:
    """One precomputed encryption randomness: ``(r, g^r, y^r)``."""

    r: int = field(repr=False)  # repro: secret
    g_r: Element
    y_r: Element


class RandomnessPool:
    """Precomputed ``(g^r, y^r)`` pairs plus fixed-base tables for one key.

    ``size`` pairs are generated eagerly at construction (the *offline*
    phase).  :meth:`take` pops in FIFO order; an empty pool generates on
    demand through the fixed-base tables, which is still several times
    cheaper than two native exponentiations, so running dry degrades
    gracefully instead of failing.
    """

    def __init__(
        self,
        group: Group,
        public_key: Element,
        rng: RNG,
        size: int = 0,
        window_bits: int = 4,
    ):
        if size < 0:
            raise ValueError("pool size must be non-negative")
        self.group = group
        self.public_key = public_key
        self.rng = rng
        #: Public: the comparison circuit's plaintext shifts walk it too,
        #: in process or in a worker (``repro.runtime.parallel.TauJob``).
        self.generator_table = PrecomputedBase(
            group, group.generator(), window_bits=window_bits
        )
        self._y_table = PrecomputedBase(group, public_key, window_bits=window_bits)
        self._pairs: Deque[RandomPair] = deque()
        # Instrumentation for the perf benches and pool-sizing decisions.
        self.served = 0
        self.precomputed = 0
        self.generated_online = 0
        if size:
            self.refill(size)

    # -- offline phase ---------------------------------------------------------
    def refill(self, count: int) -> None:
        """Precompute ``count`` more pairs (batched fixed-base evaluation)."""
        if count < 0:
            raise ValueError("refill count must be non-negative")
        exponents = [self.group.random_exponent(self.rng) for _ in range(count)]
        for r in exponents:
            self._pairs.append(RandomPair(r=r, g_r=self.g_pow(r), y_r=self.y_pow(r)))
        self.precomputed += count

    @property
    def remaining(self) -> int:
        return len(self._pairs)

    # -- online phase -----------------------------------------------------------
    def take(self) -> RandomPair:
        """Pop one pair; generate through the tables if the pool ran dry."""
        self.served += 1
        if self._pairs:
            return self._pairs.popleft()
        self.generated_online += 1
        r = self.group.random_exponent(self.rng)
        return RandomPair(r=r, g_r=self.g_pow(r), y_r=self.y_pow(r))

    def encryption_of_zero(self) -> Ciphertext:
        """A fresh exponential-ElGamal encryption of 0: ``(y^r, g^r)``."""
        pair = self.take()
        return Ciphertext(c1=pair.y_r, c2=pair.g_r)

    def g_pow(self, exponent: int) -> Element:
        """``g^exponent`` through the fixed-base generator table."""
        return self.generator_table.exp(exponent)

    def y_pow(self, exponent: int) -> Element:
        """``y^exponent`` through the fixed-base public-key table."""
        return self._y_table.exp(exponent)

    def matches_key(self, public_key: Element) -> bool:
        """Does this pool serve randomness for ``public_key``?"""
        return self.group.eq(self.public_key, public_key)
