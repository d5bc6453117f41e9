"""Primality testing and (safe) prime generation.

Miller-Rabin with *deterministic* witness schedules throughout: the
Jaeschke/Sorenson-Webster fixed set below ~3.3e24, and hash-derived
witnesses (SHA-256 counter stream keyed to the candidate) above it.
``is_prime`` is therefore a pure function of its input — no draw from
any RNG — so prime generation (and everything derived from it, e.g.
``FrameworkConfig.dp_field_prime``) is bit-reproducible across runs
*and* across arithmetic backends; the witness exponentiations
themselves dispatch through :mod:`repro.math.backend`, which is where
a native backend makes testing large candidates fast (under ``gmp``
each witness power runs in libgmp; the squarings after it stay on
CPython's ``mulmod``).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Optional

from repro.math import backend
from repro.math.pi import pi_times_power_of_two
from repro.math.rng import RNG, SystemRNG

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
)

# Jaeschke/Sorenson-Webster witness set: deterministic for all n < 3.3e24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """True iff ``a`` witnesses the compositeness of ``n = d*2^r + 1``."""
    x = backend.powmod(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = backend.mulmod(x, x, n)
        if x == n - 1:
            return False
    return True


def _derived_witnesses(n: int, rounds: int) -> List[int]:
    """``rounds`` witnesses derived from SHA-256(n ‖ counter).

    Deterministic in ``n`` alone, so large-candidate testing gives one
    answer everywhere — no RNG, no backend dependence — while keeping
    the error bound of ``rounds`` independent pseudo-random bases
    (an adversarial candidate would have to be crafted against SHA-256
    itself to survive the schedule).
    """
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    witnesses: List[int] = []
    for counter in range(rounds):
        digest = hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        witnesses.append(2 + int.from_bytes(digest, "big") % (n - 3))
    return witnesses


def is_prime(n: int, rng: Optional[RNG] = None, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with deterministic witness schedules.

    Below ~3.3e24 the fixed Jaeschke/Sorenson-Webster set decides
    exactly; above it, ``rounds`` hash-derived witnesses keyed to ``n``
    are used.  ``rng`` is accepted for backward compatibility but no
    longer consulted — the verdict is a pure function of ``n``.
    """
    del rng  # kept for API compatibility; the schedule is deterministic
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_LIMIT:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
    else:
        witnesses = _derived_witnesses(n, rounds)
    return not any(_miller_rabin_witness(n, a, d, r) for a in witnesses)


def is_safe_prime(p: int, rng: Optional[RNG] = None) -> bool:
    """True iff both ``p`` and ``(p-1)/2`` are prime."""
    return p > 4 and p % 2 == 1 and is_prime(p, rng) and is_prime((p - 1) // 2, rng)


def next_prime(n: int, rng: Optional[RNG] = None) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate, rng):
        candidate += 2
    return candidate


def random_prime(bits: int, rng: Optional[RNG] = None) -> int:
    """A uniform ``bits``-bit prime (top bit set)."""
    if bits < 2:
        raise ValueError("need at least 2 bits for a prime")
    rng = rng or SystemRNG()
    while True:
        candidate = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate, rng):
            return candidate


def random_safe_prime(bits: int, rng: Optional[RNG] = None) -> int:
    """A random ``bits``-bit safe prime ``p = 2q + 1``.

    Practical up to a few hundred bits in pure Python; the standardized
    MODP primes below cover the 1024/2048/3072-bit sizes the paper uses.
    """
    if bits < 4:
        raise ValueError("need at least 4 bits for a safe prime")
    rng = rng or SystemRNG()
    while True:
        q = rng.randbits(bits - 1) | (1 << (bits - 2)) | 1
        # Cheap pre-sieve on p = 2q+1 before the expensive q test.
        p = 2 * q + 1
        if any(p % s == 0 for s in _SMALL_PRIMES if p != s):
            continue
        if is_prime(q, rng) and is_prime(p, rng):
            return p


# ---------------------------------------------------------------------------
# Standardized safe primes (RFC 2409 group 2, RFC 3526 groups 14 and 15).
#
# Rather than embedding 3000-bit hex blobs, we *derive* each prime from its
# published definition  p = 2^n - 2^(n-64) - 1 + 2^64*(floor(2^(n-130)*π)+c)
# and then verify safe-primality once per process.  The (n, c) pairs are the
# only constants.
# ---------------------------------------------------------------------------

_MODP_DEFINITIONS = {
    1024: 129093,       # RFC 2409, Second Oakley Group
    2048: 124476,       # RFC 3526, group 14
    3072: 1690314,      # RFC 3526, group 15
}


@lru_cache(maxsize=None)
def modp_safe_prime(bits: int) -> int:
    """The standardized ``bits``-bit MODP safe prime, derived and verified.

    Supported sizes: 1024, 2048, 3072 (the ones the paper evaluates).
    """
    if bits not in _MODP_DEFINITIONS:
        raise ValueError(
            f"no standardized MODP prime of {bits} bits; "
            f"supported: {sorted(_MODP_DEFINITIONS)}"
        )
    offset = _MODP_DEFINITIONS[bits]
    pi_part = pi_times_power_of_two(bits - 130)
    p = (1 << bits) - (1 << (bits - 64)) - 1 + (1 << 64) * (pi_part + offset)
    if not is_safe_prime(p):
        raise ArithmeticError(f"derived {bits}-bit MODP prime failed verification")
    return p
