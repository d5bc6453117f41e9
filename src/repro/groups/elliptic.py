"""Short-Weierstrass elliptic curve groups: y² = x³ + ax + b over F_p.

Implements affine point arithmetic with a Jacobian-coordinate scalar
multiplication ladder (the dominant cost), parameterized curve domain
verification, and the :class:`repro.groups.base.Group` interface over a
prime-order (sub)group — the paper's "ECC" instantiation.

Points are represented as ``(x, y)`` tuples; the point at infinity is
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.groups.base import Element, Group, OperationCounter
from repro.math import backend
from repro.math.modular import is_quadratic_residue, mod_inverse, mod_sqrt
from repro.math.primes import is_prime

Point = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters of a curve with a prime-order base-point subgroup."""

    name: str
    p: int          # field prime
    a: int          # curve coefficient a
    b: int          # curve coefficient b
    gx: int         # base point x
    gy: int         # base point y
    n: int          # order of the base point (prime)
    h: int          # cofactor
    security_bits: int

    def verify(self) -> None:
        """Check internal consistency; raises ``ValueError`` on any failure.

        Verifies: field primality, non-singularity, base point on curve,
        subgroup order primality, and ``n·G = O``.
        """
        if not is_prime(self.p):
            raise ValueError(f"{self.name}: field modulus is not prime")
        if (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p)) % self.p == 0:
            raise ValueError(f"{self.name}: curve is singular")
        if (self.gy * self.gy - (self.gx**3 + self.a * self.gx + self.b)) % self.p:
            raise ValueError(f"{self.name}: base point is not on the curve")
        if not is_prime(self.n):
            raise ValueError(f"{self.name}: subgroup order is not prime")
        curve = _CurveArithmetic(self.p, self.a)
        if curve.scalar_mul((self.gx, self.gy), self.n) is not None:
            raise ValueError(f"{self.name}: n*G != O")


class _CurveArithmetic:
    """Raw point arithmetic over one curve (no metering, no subgroup logic)."""

    def __init__(self, p: int, a: int):
        self.p = p
        self.a = a % p

    def add(self, p1: Point, p2: Point) -> Point:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        p = self.p
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            return self.double(p1)
        slope = (y2 - y1) * mod_inverse(x2 - x1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return (x3, y3)

    def double(self, pt: Point) -> Point:
        if pt is None:
            return None
        x, y = pt
        p = self.p
        if y == 0:
            return None
        slope = (3 * x * x + self.a) * mod_inverse(2 * y, p) % p
        x3 = (slope * slope - 2 * x) % p
        y3 = (slope * (x - x3) - y) % p
        return (x3, y3)

    def negate(self, pt: Point) -> Point:
        if pt is None:
            return None
        x, y = pt
        return (x, (-y) % self.p)

    # -- Jacobian ladder for scalar multiplication ---------------------------
    # Affine addition costs a field inversion per step; Jacobian coordinates
    # defer the single inversion to the end, which is what makes pure-Python
    # scalar multiplication tolerable.

    def scalar_mul(self, pt: Point, k: int) -> Point:
        if pt is None or k == 0:
            return None
        if k < 0:
            return self.scalar_mul(self.negate(pt), -k)
        x, y = pt
        jx, jy, jz = self._jacobian_ladder((x, y, 1), k)
        return self._from_jacobian((jx, jy, jz))

    def _jacobian_ladder(
        self, pt: Tuple[int, int, int], k: int
    ) -> Tuple[int, int, int]:
        result = (0, 1, 0)  # Jacobian infinity
        addend = pt
        while k:
            if k & 1:
                result = self._jacobian_add(result, addend)
            addend = self._jacobian_double(addend)
            k >>= 1
        return result

    def _jacobian_double(self, pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
        x, y, z = pt
        p = self.p
        if z == 0 or y == 0:
            return (0, 1, 0)
        ysq = y * y % p
        s = 4 * x * ysq % p
        m = (3 * x * x + self.a * backend.powmod(z, 4, p)) % p
        nx = (m * m - 2 * s) % p
        ny = (m * (s - nx) - 8 * ysq * ysq) % p
        nz = 2 * y * z % p
        return (nx, ny, nz)

    def _jacobian_add(
        self, p1: Tuple[int, int, int], p2: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        p = self.p
        if z1 == 0:
            return p2
        if z2 == 0:
            return p1
        z1sq = z1 * z1 % p
        z2sq = z2 * z2 % p
        u1 = x1 * z2sq % p
        u2 = x2 * z1sq % p
        s1 = y1 * z2sq * z2 % p
        s2 = y2 * z1sq * z1 % p
        if u1 == u2:
            if s1 != s2:
                return (0, 1, 0)
            return self._jacobian_double(p1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        hsq = h * h % p
        hcu = hsq * h % p
        v = u1 * hsq % p
        nx = (r * r - hcu - 2 * v) % p
        ny = (r * (v - nx) - s1 * hcu) % p
        nz = h * z1 * z2 % p
        return (nx, ny, nz)

    def _from_jacobian(self, pt: Tuple[int, int, int]) -> Point:
        x, y, z = pt
        if z == 0:
            return None
        p = self.p
        zinv = mod_inverse(z, p)
        zinv_sq = zinv * zinv % p
        return (x * zinv_sq % p, y * zinv_sq * zinv % p)


class EllipticCurveGroup(Group):
    """Prime-order subgroup of an elliptic curve, as a :class:`Group`."""

    def __init__(
        self,
        params: CurveParams,
        verify: bool = True,
        counter: Optional[OperationCounter] = None,
    ):
        super().__init__(counter=counter or OperationCounter())
        if verify:
            params.verify()
        self._params = params
        self._curve = _CurveArithmetic(params.p, params.a)

    @property
    def params(self) -> CurveParams:
        return self._params

    @property
    def order(self) -> int:
        return self._params.n

    @property
    def element_bits(self) -> int:
        # Compressed point: x coordinate plus one sign bit.
        return self._params.p.bit_length() + 1

    @property
    def wire_bytes(self) -> int:
        # Compressed SEC-style encoding: 1 prefix byte + full x coordinate.
        # (element_bits rounds the *bit* count; the byte encoding pads x
        # to whole field bytes, so derive from the field size directly.)
        return (self._params.p.bit_length() + 7) // 8 + 1

    @property
    def security_bits(self) -> int:
        return self._params.security_bits

    @property
    def name(self) -> str:
        return self._params.name

    def generator(self) -> Element:
        return (self._params.gx, self._params.gy)

    def identity(self) -> Element:
        return None

    # In the multiplicative notation of the Group interface, "mul" is point
    # addition and "exp" is scalar multiplication.
    def mul(self, a: Point, b: Point) -> Point:
        self.counter.record_mul()
        return self._curve.add(a, b)

    def exp(self, a: Point, k: int) -> Point:
        k %= self._params.n
        self.counter.record_exp(self._params.n.bit_length())
        return self._curve.scalar_mul(a, k)

    def inv(self, a: Point) -> Point:
        self.counter.record_inv()
        return self._curve.negate(a)

    def eq(self, a: Point, b: Point) -> bool:
        return a == b

    def is_element(self, a: Element) -> bool:
        if a is None:
            return True
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        x, y = a
        p = self._params.p
        if not (
            isinstance(x, int) and isinstance(y, int)
            and 0 <= x < p and 0 <= y < p
        ):
            return False
        # Memoized: the on-curve test (and, for cofactor curves, a full
        # order-n scalar multiplication) is paid once per distinct point.
        return self._membership_cached(a)

    def _check_membership(self, a: Tuple[int, int]) -> bool:
        x, y = a
        p = self._params.p
        rhs = (
            backend.powmod(x, 3, p) + self._params.a * x + self._params.b
        ) % p
        if backend.mulmod(y, y, p) != rhs:
            return False
        if self._params.h == 1:
            return True
        return self._curve.scalar_mul(a, self._params.n) is None

    def serialize(self, a: Point) -> bytes:
        byte_len = (self._params.p.bit_length() + 7) // 8
        if a is None:
            return b"\x00" * (byte_len + 1)
        x, y = a
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(byte_len, "big")

    def deserialize(self, data: bytes) -> Point:
        byte_len = (self._params.p.bit_length() + 7) // 8
        if len(data) != byte_len + 1:
            raise ValueError("bad encoded point length")
        # A peer gets no second body for a point past the decoder: the
        # identity is all zero bytes, and x must be reduced.
        if data[0] == 0:
            if any(data):
                raise ValueError("identity encoding must be all zero bytes")
            return None
        if data[0] not in (2, 3):
            raise ValueError("bad point compression prefix")
        x = int.from_bytes(data[1:], "big")
        p = self._params.p
        if x >= p:
            raise ValueError("x coordinate is not reduced modulo p")
        rhs = (backend.powmod(x, 3, p) + self._params.a * x + self._params.b) % p
        if rhs != 0 and not is_quadratic_residue(rhs, p):
            raise ValueError("x is not on the curve")
        y = mod_sqrt(rhs, p)
        if (y & 1) != (data[0] & 1):
            y = p - y
        return (x, y)

    def __repr__(self) -> str:
        return f"EllipticCurveGroup({self._params.name})"
