"""Modular arithmetic helpers used throughout the crypto substrate.

All functions operate on plain Python integers (arbitrary precision) and
raise :class:`ValueError` on mathematically invalid inputs rather than
returning sentinel values.

The heavy primitives (inversion, exponentiation, Jacobi) dispatch
through :mod:`repro.math.backend`, so a native backend (libgmp through
ctypes, or gmpy2) accelerates every caller without any of them
changing; results are identical whichever backend is active.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.math import backend


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``.

    Iterative to stay safe for multi-thousand-bit inputs.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def mod_inverse(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Dispatches through the active arithmetic backend (CPython's
    ``pow(a, -1, m)`` on the reference path, ``mpz_invert`` or
    ``gmpy2.invert`` on a native one).  The non-invertible case raises
    with a message that names only the modulus — ``a`` may be a secret
    exponent; every backend honours that contract.

    Raises
    ------
    ValueError
        If ``a`` is not invertible modulo ``m``.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    return backend.invert(a % m, m)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd positive ``n``.

    For prime ``n`` this is the Legendre symbol: 1 if ``a`` is a nonzero
    quadratic residue, -1 if a non-residue, 0 if ``n`` divides ``a``.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    return backend.jacobi(a, n)


def is_quadratic_residue(a: int, p: int) -> bool:
    """True iff ``a`` is a nonzero quadratic residue modulo the odd prime ``p``."""
    return jacobi_symbol(a, p) == 1


def mod_sqrt(a: int, p: int) -> int:
    """Square root of ``a`` modulo an odd prime ``p`` (Tonelli-Shanks).

    Returns the root ``r`` with ``r <= p - r``; the other root is ``p - r``.

    Raises
    ------
    ValueError
        If ``a`` is a quadratic non-residue modulo ``p``.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if jacobi_symbol(a, p) != 1:
        raise ValueError(f"value is not a quadratic residue modulo {p}")
    if p % 4 == 3:
        root = backend.powmod(a, (p + 1) // 4, p)
        return min(root, p - root)
    # Tonelli-Shanks for p ≡ 1 (mod 4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Any non-residue works as the seed; scan small integers deterministically.
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    m = s
    c = backend.powmod(z, q, p)
    t = backend.powmod(a, q, p)
    root = backend.powmod(a, (q + 1) // 2, p)
    while t != 1:
        # Find the least i with t^(2^i) == 1.
        i = 0
        t2i = t
        while t2i != 1:
            t2i = backend.mulmod(t2i, t2i, p)
            i += 1
        b = backend.powmod(c, 1 << (m - i - 1), p)
        m = i
        c = backend.mulmod(b, b, p)
        t = backend.mulmod(t, c, p)
        root = backend.mulmod(root, b, p)
    return min(root, p - root)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    """Chinese remaindering for two coprime moduli.

    Returns ``(r, m1*m2)`` with ``r ≡ r1 (mod m1)`` and ``r ≡ r2 (mod m2)``.
    """
    g, x, _ = egcd(m1, m2)
    if g != 1:
        raise ValueError("moduli must be coprime")
    lcm = m1 * m2
    r = (r1 + (r2 - r1) * x % m2 * m1) % lcm
    return r, lcm


def int_to_bits(value: int, width: int) -> List[int]:
    """Little-endian bit decomposition: ``bits[0]`` is the least significant bit.

    The paper writes ``[β]_B = [β^l, …, β^1]`` with ``β^1`` the low bit;
    we store index ``t-1`` of the returned list as the paper's bit ``β^t``.

    Raises
    ------
    ValueError
        If ``value`` is negative or does not fit in ``width`` bits.
    """
    if value < 0:
        raise ValueError("int_to_bits expects a non-negative integer")
    if value >> width:
        # Gains/masked values are decomposed here; report size only.
        raise ValueError(f"value does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def int_from_bits(bits: List[int]) -> int:
    """Inverse of :func:`int_to_bits` (little-endian)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit at index {i} is not 0 or 1")
        value |= bit << i
    return value
