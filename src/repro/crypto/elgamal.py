"""ElGamal over an abstract prime-order group (paper Section IV-D).

Two variants:

* :class:`ElGamal` — the textbook multiplicative scheme
  ``E(M) = (M·y^r, g^r)``.
* :class:`ExponentialElGamal` — the paper's *modified* scheme
  ``E(M) = (g^M·y^r, g^r)``, which is additively homomorphic:
  ``E(M1) ∘ E(M2) = E(M1 + M2)``.  Decryption recovers ``g^M``; the
  framework only ever needs the predicate ``M == 0`` (``g^M`` is the
  identity), though :meth:`ExponentialElGamal.decrypt_small` solves the
  discrete log for small plaintext ranges when tests want the value.

Both are IND-CPA secure when DDH is hard in the group.

Performance wiring (all opt-in; the defaults reproduce the textbook
operation pattern exactly):

* ``pool`` — a :class:`repro.crypto.precompute.RandomnessPool` keyed to
  one public key.  ``encrypt``/``rerandomize`` then consume precomputed
  ``(g^r, y^r)`` pairs and cost plain multiplications online.
* ``generator_table`` — a fixed-base table of ``g`` (a pool's own, when
  a pool is given) that serves the plaintext powers ``g^M``; a worker
  evaluating comparison circuits gets the table without the pool.
* ``multiexp`` — route ``g^M·y^r`` through one Straus-interleaved pass
  (:func:`repro.math.multiexp.multi_exp`) and short scalars through the
  :func:`repro.math.multiexp.small_exp` ladder instead of a full-width
  native exponentiation.

Either switch changes *cost only*: the produced group elements are
identical to the plain path for the same randomness.  The plain path is
not slow either: a key encrypted under twice in a row is raised through
``group.exp_fixed``, which a DL group serves from a fixed-base table
below its meter, so the counts stay the textbook ones.

All arithmetic here goes through ``group.mul``/``group.exp``, which
concrete groups route through :mod:`repro.math.backend` — selecting the
gmpy2 backend accelerates every ElGamal operation without any change in
this module, and without perturbing ciphertexts or transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.groups.base import Element, Group
from repro.math.multiexp import (
    SMALL_EXPONENT_BITS,
    centered_exponent,
    multi_exp,
    small_exp,
)
from repro.math.rng import RNG
from repro.runtime.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (precompute imports us)
    from repro.crypto.precompute import RandomnessPool, RandomPair
    from repro.groups.fixed_base import PrecomputedBase


@dataclass(frozen=True)
class Ciphertext:
    """An ElGamal pair ``(c1, c2) = (M·y^r or g^M·y^r, g^r)``."""

    c1: Element
    c2: Element


@dataclass(frozen=True)
class KeyPair:
    """Secret exponent and the matching public element ``y = g^x``."""

    secret: int = field(repr=False)  # repro: secret
    public: Element


class ElGamal:
    """Textbook multiplicative ElGamal over ``group``."""

    def __init__(
        self,
        group: Group,
        *,
        pool: Optional["RandomnessPool"] = None,
        multiexp: bool = False,
        generator_table: Optional["PrecomputedBase"] = None,
    ):
        self.group = group
        self.pool = pool
        self.multiexp = multiexp
        # Where g^m comes from: the given table, else the pool's.
        if generator_table is None and pool is not None:
            generator_table = pool.generator_table
        self.generator_table = generator_table
        self._last_key: Optional[Element] = None

    def generate_keypair(self, rng: RNG) -> KeyPair:
        x = self.group.random_exponent(rng)
        return KeyPair(secret=x, public=self.group.exp_generator(x))

    def _pooled_pair(self, public_key: Element) -> Optional["RandomPair"]:
        """A precomputed ``(r, g^r, y^r)`` if the pool serves this key."""
        if self.pool is None or not self.pool.matches_key(public_key):
            return None
        return self.pool.take()

    def _key_power(self, public_key: Element, r: int) -> Element:
        """``public_key^r``.  A key this scheme encrypted under last time
        is being reused, so it goes through :meth:`Group.exp_fixed` (a
        fixed-base table on DL groups); a one-off encryption builds none."""
        if public_key == self._last_key:
            return self.group.exp_fixed(public_key, r)
        self._last_key = public_key
        return self.group.exp(public_key, r)

    def encrypt(self, message: Element, public_key: Element, rng: RNG) -> Ciphertext:
        if not self.group.is_element(message):
            raise ValueError("message must be a group element")
        pair = self._pooled_pair(public_key)
        if pair is not None:
            return Ciphertext(
                c1=self.group.mul(message, pair.y_r), c2=pair.g_r
            )
        r = self.group.random_exponent(rng)
        return Ciphertext(
            c1=self.group.mul(message, self._key_power(public_key, r)),
            c2=self.group.exp_generator(r),
        )

    def validate(self, ciphertext: Any) -> bool:
        """Structural check on an incoming ciphertext."""
        return (
            isinstance(ciphertext, Ciphertext)
            and self.group.is_element(ciphertext.c1)
            and self.group.is_element(ciphertext.c2)
        )

    def _require_valid(self, ciphertext: Ciphertext, operation: str) -> None:
        """Group-membership guard on ciphertexts crossing a trust boundary.

        An element outside the prime-order subgroup would not make
        decryption fail — it would silently produce a garbage plaintext
        (and can leak key bits via small-subgroup confinement), so both
        :meth:`decrypt` and :meth:`rerandomize` reject it loudly.  The
        membership test is unmetered (no group ops are recorded), so
        operation counts stay comparable with the paper's accounting.
        """
        if not self.validate(ciphertext):
            raise ProtocolError(
                f"refusing to {operation} a ciphertext with components "
                "outside the group"
            )

    def decrypt(self, ciphertext: Ciphertext, secret_key: int) -> Element:
        self._require_valid(ciphertext, "decrypt")
        mask = self.group.exp(ciphertext.c2, secret_key)
        return self.group.div(ciphertext.c1, mask)

    def rerandomize(
        self, ciphertext: Ciphertext, public_key: Element, rng: RNG
    ) -> Ciphertext:
        """A fresh encryption of the same plaintext (multiply in E(1))."""
        self._require_valid(ciphertext, "rerandomize")
        pair = self._pooled_pair(public_key)
        if pair is not None:
            return Ciphertext(
                c1=self.group.mul(ciphertext.c1, pair.y_r),
                c2=self.group.mul(ciphertext.c2, pair.g_r),
            )
        r = self.group.random_exponent(rng)
        return Ciphertext(
            c1=self.group.mul(ciphertext.c1, self._key_power(public_key, r)),
            c2=self.group.mul(ciphertext.c2, self.group.exp_generator(r)),
        )

    def ciphertext_bits(self) -> int:
        """Wire size of a ciphertext (two group elements)."""
        return 2 * self.group.element_bits


class ExponentialElGamal(ElGamal):
    """The paper's modified, additively homomorphic ElGamal."""

    def encrypt(self, message: int, public_key: Element, rng: RNG) -> Ciphertext:
        """Encrypt the *integer* ``message`` as ``(g^M·y^r, g^r)``."""
        pair = self._pooled_pair(public_key)
        if pair is not None:
            # Offline/online split: both exponentiations were precomputed;
            # online cost is one fixed-base table evaluation and one mul.
            return Ciphertext(
                c1=self.group.mul(self.pool.g_pow(message), pair.y_r),
                c2=pair.g_r,
            )
        r = self.group.random_exponent(rng)
        if self.multiexp:
            # g^M·y^r in ONE interleaved pass instead of two exponentiations.
            return Ciphertext(
                c1=multi_exp(self.group, [self.group.generator(), public_key], [message, r]),
                c2=self.group.exp_generator(r),
            )
        return Ciphertext(
            c1=self.group.mul(
                self.group.exp_generator(message), self._key_power(public_key, r)
            ),
            c2=self.group.exp_generator(r),
        )

    def decrypt(self, ciphertext: Ciphertext, secret_key: int) -> Element:
        """Return ``g^M`` (recovering ``M`` itself is a discrete log)."""
        return super().decrypt(ciphertext, secret_key)

    def decrypt_is_zero(self, ciphertext: Ciphertext, secret_key: int) -> bool:
        """The only decryption the framework needs: is the plaintext 0?"""
        return self.group.is_identity(self.decrypt(ciphertext, secret_key))

    def decrypt_small(
        self, ciphertext: Ciphertext, secret_key: int, max_plaintext: int
    ) -> Optional[int]:
        """Brute-force the discrete log for plaintexts in ``[0, max_plaintext]``.

        Returns ``None`` if the plaintext is outside the range.  Test/debug
        helper only — the protocols never call this.
        """
        value = self.decrypt(ciphertext, secret_key)
        probe = self.group.identity()
        g = self.group.generator()
        for m in range(max_plaintext + 1):
            if self.group.eq(probe, value):
                return m
            probe = self.group.mul(probe, g)
        return None

    # -- additive homomorphism ------------------------------------------------
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """``E(M1) ∘ E(M2) = E(M1 + M2)``."""
        return Ciphertext(
            c1=self.group.mul(a.c1, b.c1), c2=self.group.mul(a.c2, b.c2)
        )

    def negate(self, a: Ciphertext) -> Ciphertext:
        """``E(M) -> E(-M)``."""
        return Ciphertext(c1=self.group.inv(a.c1), c2=self.group.inv(a.c2))

    def subtract(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def scalar_mul(self, a: Ciphertext, k: int) -> Ciphertext:
        """``E(M) -> E(k·M)`` by exponentiation of both components.

        With ``multiexp`` enabled, short scalars (the comparison circuit
        only ever multiplies by ``±weight`` with ``weight ≤ l``) run on
        the :func:`small_exp` ladder — a handful of group
        multiplications instead of two λ-bit exponentiations, because
        native ``exp`` first reduces ``-w`` to the enormous ``q - w``.
        """
        if self.multiexp:
            e = centered_exponent(k, self.group.order)
            if abs(e) < (1 << SMALL_EXPONENT_BITS):
                return Ciphertext(
                    c1=small_exp(self.group, a.c1, e),
                    c2=small_exp(self.group, a.c2, e),
                )
        return Ciphertext(c1=self.group.exp(a.c1, k), c2=self.group.exp(a.c2, k))

    def _generator_power(self, m: int) -> Element:
        """``g^m`` through the cheapest wired-in path."""
        if self.generator_table is not None:
            return self.generator_table.exp(m)
        if self.multiexp:
            e = centered_exponent(m, self.group.order)
            if abs(e) < (1 << SMALL_EXPONENT_BITS):
                return small_exp(self.group, self.group.generator(), e)
        return self.group.exp_generator(m)

    def add_plain(self, a: Ciphertext, m: int) -> Ciphertext:
        """``E(M) -> E(M + m)`` without randomness (deterministic shift)."""
        return Ciphertext(
            c1=self.group.mul(a.c1, self._generator_power(m)), c2=a.c2
        )

    def encrypt_zero(self, public_key: Element, rng: RNG) -> Ciphertext:
        if self.pool is not None and self.pool.matches_key(public_key):
            return self.pool.encryption_of_zero()
        return self.encrypt(0, public_key, rng)
