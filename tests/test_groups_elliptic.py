"""Tests for elliptic curve groups: tiny brute-force curves and standards."""

import pytest

from repro.groups.curves import (
    CURVE_FOR_SECURITY,
    build_tiny_curve,
    curve_names,
    get_curve,
)
from repro.groups.elliptic import CurveParams, EllipticCurveGroup, _CurveArithmetic
from repro.math.rng import SeededRNG
from repro.runtime.wire import WireCodecV2


class TestTinyCurveArithmetic:
    def test_addition_matches_brute_force(self, tiny_curve):
        """Group law: repeated addition equals scalar multiplication."""
        g = tiny_curve
        base = g.generator()
        running = None  # infinity
        curve = _CurveArithmetic(g.params.p, g.params.a)
        for k in range(1, 40):
            running = curve.add(running, base)
            assert g.eq(running, g.exp(base, k)), k

    def test_order_annihilates(self, tiny_curve):
        g = tiny_curve
        assert g.exp(g.generator(), g.order) is None

    def test_inverse(self, tiny_curve):
        g = tiny_curve
        pt = g.random_element(SeededRNG(1))
        assert g.mul(pt, g.inv(pt)) is None

    def test_commutativity(self, tiny_curve):
        g = tiny_curve
        rng = SeededRNG(2)
        a, b = g.random_element(rng), g.random_element(rng)
        assert g.eq(g.mul(a, b), g.mul(b, a))

    def test_doubling_edge_cases(self, tiny_curve):
        g = tiny_curve
        curve = _CurveArithmetic(g.params.p, g.params.a)
        assert curve.double(None) is None
        pt = g.generator()
        assert curve.add(pt, curve.negate(pt)) is None

    def test_exponent_laws(self, tiny_curve):
        g = tiny_curve
        assert g.eq(
            g.mul(g.exp_generator(10), g.exp_generator(15)), g.exp_generator(25)
        )
        assert g.eq(g.exp(g.exp_generator(3), 7), g.exp_generator(21))

    def test_negative_scalar(self, tiny_curve):
        g = tiny_curve
        assert g.eq(g.exp_generator(-2), g.inv(g.exp_generator(2)))


class TestMembershipAndSerialization:
    def test_membership(self, tiny_curve):
        g = tiny_curve
        assert g.is_element(None)
        assert g.is_element(g.generator())
        x, y = g.generator()
        assert not g.is_element((x, (y + 1) % g.params.p))
        assert not g.is_element("junk")
        assert not g.is_element((x,))

    def test_serialize_roundtrip(self, tiny_curve):
        g = tiny_curve
        rng = SeededRNG(3)
        for _ in range(20):
            pt = g.random_element(rng)
            assert g.eq(g.deserialize(g.serialize(pt)), pt)

    def test_serialize_infinity(self, tiny_curve):
        g = tiny_curve
        assert g.deserialize(g.serialize(None)) is None

    def test_deserialize_rejects_garbage(self, tiny_curve):
        g = tiny_curve
        with pytest.raises(ValueError):
            g.deserialize(b"\xff" * len(g.serialize(None)))
        with pytest.raises(ValueError):
            g.deserialize(b"\x02")

    def test_only_canonical_bodies_decode(self, tiny_curve):
        # Two bodies that named a point without being its encoding: the
        # generator's x plus p, which decoded to a non-element, and an
        # identity prefix followed by non-zero bytes.
        g = tiny_curve
        p, (x, _) = g.params.p, g.generator()
        body = g.serialize(g.generator())
        width = len(body) - 1
        non_canonical = [
            body[:1] + (x + p).to_bytes(width, "big"),
            b"\x00" + b"\x01" * width,
            b"\x00" * width + b"\x01",
        ]
        for data in non_canonical:
            with pytest.raises(ValueError):
                g.deserialize(data)
            with pytest.raises(ValueError):
                WireCodecV2(g).decode(b"E\x00" + data)
        assert WireCodecV2(g).decode(b"E\x00" + body) == g.generator()
        assert WireCodecV2(g).decode(b"E\x00" + g.serialize(None)) is None

    def test_every_point_has_one_body(self, tiny_curve):
        # Over the whole field, the bodies that decode are exactly the
        # encodings of the points they decode to.
        g = tiny_curve
        width = len(g.serialize(None)) - 1
        for x in range(g.params.p + 16):
            for prefix in (b"\x02", b"\x03"):
                data = prefix + x.to_bytes(width, "big")
                try:
                    point = g.deserialize(data)
                except ValueError:
                    continue
                assert g.is_element(point)
                assert g.serialize(point) == data


class TestStandardCurves:
    def test_registry(self):
        assert set(curve_names()) == {
            "secp160r1", "secp192r1", "secp224r1", "secp256r1",
        }

    @pytest.mark.parametrize("name", ["secp160r1", "secp192r1", "secp224r1", "secp256r1"])
    def test_verified_and_functional(self, name):
        g = get_curve(name)
        a = g.exp_generator(0xABCDEF)
        b = g.exp_generator(0x123456)
        assert g.eq(g.mul(a, b), g.exp_generator(0xABCDEF + 0x123456))

    def test_security_tiers(self):
        assert CURVE_FOR_SECURITY[80] == "secp160r1"
        assert CURVE_FOR_SECURITY[112] == "secp224r1"
        assert CURVE_FOR_SECURITY[128] == "secp256r1"
        assert get_curve("secp160r1").security_bits == 80

    def test_unknown_curve_raises(self):
        with pytest.raises(ValueError):
            get_curve("secp521r1")

    def test_compressed_size(self):
        g = get_curve("secp160r1")
        assert g.element_bits == 161
        assert len(g.serialize(g.generator())) == 21


class TestDomainVerification:
    def test_bad_base_point_rejected(self):
        params = get_curve("secp192r1").params
        broken = CurveParams(
            name="broken", p=params.p, a=params.a, b=params.b,
            gx=params.gx, gy=(params.gy + 1) % params.p, n=params.n, h=1,
            security_bits=96,
        )
        with pytest.raises(ValueError, match="not on the curve"):
            EllipticCurveGroup(broken, verify=True)

    def test_composite_order_rejected(self):
        params = get_curve("secp192r1").params
        broken = CurveParams(
            name="broken", p=params.p, a=params.a, b=params.b,
            gx=params.gx, gy=params.gy, n=params.n - 1, h=1, security_bits=96,
        )
        with pytest.raises(ValueError):
            EllipticCurveGroup(broken, verify=True)

    def test_singular_curve_rejected(self):
        # y² = x³ over a small prime field is singular (4a³+27b² = 0).
        broken = CurveParams(
            name="singular", p=10007, a=0, b=0, gx=1, gy=1, n=7, h=1,
            security_bits=8,
        )
        with pytest.raises(ValueError, match="singular"):
            EllipticCurveGroup(broken, verify=True)


class TestTinyCurveBuilder:
    def test_deterministic(self):
        a = build_tiny_curve(field_bits=12, rng=SeededRNG(5))
        b = build_tiny_curve(field_bits=12, rng=SeededRNG(5))
        assert a.params == b.params

    def test_rejects_large_fields(self):
        with pytest.raises(ValueError):
            build_tiny_curve(field_bits=24)

    def test_counter_meters_exponentiations(self, tiny_curve):
        from repro.groups.base import OperationCounter

        counter = OperationCounter()
        tiny_curve.attach_counter(counter)
        try:
            tiny_curve.exp_generator(99)
            assert counter.exponentiations == 1
            assert counter.exponent_bits == tiny_curve.order.bit_length()
        finally:
            tiny_curve.attach_counter(None)
