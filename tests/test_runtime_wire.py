"""Tests for the canonical wire codec (v2: varint framing + interning)."""

import copy
import dataclasses
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.bitenc import BitwiseCiphertext, BitwiseElGamal
from repro.crypto.elgamal import Ciphertext, ExponentialElGamal
from repro.crypto.zkp import NIZKProof
from repro.groups.curves import build_tiny_curve
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from repro.runtime.wire import (
    MAX_NESTING,
    InternTable,
    WireCodecV2,
    decode_varint,
    encode_varint,
    fragment_count,
    unzigzag,
    zigzag,
)


@pytest.fixture
def codec(small_dl_group):
    return WireCodecV2(small_dl_group)


@pytest.fixture
def curve_codec(tiny_curve):
    return WireCodecV2(tiny_curve)


class TestIntegers:
    @given(st.integers(-(10**30), 10**30))
    @settings(max_examples=50)
    def test_roundtrip(self, value):
        from repro.groups.dl import DLGroup

        codec = WireCodecV2(DLGroup.random(32, rng=SeededRNG(99)))
        assert codec.decode(codec.encode(value)) == value

    def test_zero(self, codec):
        assert codec.decode(codec.encode(0)) == 0

    def test_sign_distinction(self, codec):
        assert codec.decode(codec.encode(-5)) == -5
        assert codec.decode(codec.encode(5)) == 5


class TestGroupValues:
    def test_element_roundtrip(self, codec, small_dl_group):
        element = small_dl_group.random_element(SeededRNG(1))
        decoded = codec.decode(codec.encode_element(element))
        assert small_dl_group.eq(decoded, element)

    def test_curve_element_roundtrip(self, curve_codec, tiny_curve):
        point = tiny_curve.random_element(SeededRNG(2))
        decoded = curve_codec.decode(curve_codec.encode_element(point))
        assert tiny_curve.eq(decoded, point)

    def test_encode_element_rejects_non_elements(self, codec, small_dl_group):
        with pytest.raises(TypeError):
            codec.encode_element(small_dl_group.modulus + 1)

    def test_ciphertext_roundtrip(self, codec, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(3)
        keypair = scheme.generate_keypair(rng)
        ciphertext = scheme.encrypt(7, keypair.public, rng)
        decoded = codec.decode(codec.encode(ciphertext))
        assert scheme.decrypt_small(decoded, keypair.secret, 10) == 7

    def test_bitwise_ciphertext_roundtrip(self, codec, small_dl_group):
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(4)
        keypair = bitenc.scheme.generate_keypair(rng)
        ciphertext = bitenc.encrypt(0b1011, 6, keypair.public, rng)
        decoded = codec.decode(codec.encode(ciphertext))
        assert isinstance(decoded, BitwiseCiphertext)
        assert bitenc.decrypt(decoded, keypair.secret) == 0b1011

    def test_nested_lists(self, codec, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(5)
        keypair = scheme.generate_keypair(rng)
        payload = [
            [scheme.encrypt(1, keypair.public, rng)],
            [scheme.encrypt(0, keypair.public, rng), 42],
        ]
        decoded = codec.decode(codec.encode(payload))
        assert len(decoded) == 2
        assert decoded[1][1] == 42


class TestRobustness:
    def test_truncated_data_rejected(self, codec):
        encoded = codec.encode(12345)
        with pytest.raises(ValueError):
            codec.decode(encoded[:-1])

    def test_trailing_garbage_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decode(codec.encode(1) + b"\x00")

    def test_unknown_tag_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decode(b"X\x00\x00\x00\x01\x00")

    def test_non_element_bytes_rejected(self, codec, small_dl_group):
        # A raw (first-occurrence) body carrying an out-of-range "element".
        fake = small_dl_group.modulus.to_bytes(small_dl_group.wire_bytes, "big")
        with pytest.raises(ValueError):
            codec.decode(b"E\x00" + fake)

    def test_unencodable_type_rejected(self, codec):
        with pytest.raises(TypeError):
            codec.encode(object())
        with pytest.raises(TypeError):
            codec.encode(True)


# ---------------------------------------------------------------------------
# The format, pinned: golden bytes of one payload that uses every tag
# ---------------------------------------------------------------------------


def _golden_payload(group):
    """Every tag but ``E`` (``encode_element`` sends that one), and the
    two element bodies: ``C`` interns ``a`` and ``g`` raw, ``B``
    references both.  A DL proof's commitment is a bare integer (``S``),
    a curve's a bare point tuple (``T`` of ``S``)."""
    g = group.generator()
    a = group.exp(g, 12345)
    return [
        0, -1, 300, None, b"\x00\xff", "π",
        Ciphertext(a, g),
        BitwiseCiphertext(bits=(Ciphertext(g, a),)),
        (NIZKProof(commitment=a, response=-(2 ** 70)), []),
    ], a


#: The v2 bytes of ``_golden_payload``, then of ``encode_element(a)`` on
#: the same codec (an interned reference) and of a fresh element on a
#: fresh codec (a raw body), on the 48-bit test group and the tiny
#: curve.  Recorded with the recursive codec the one-pass codec
#: replaced; any change to them is a change of the wire format.
GOLDEN = {
    "dl48": (
        "4c095300530153d8044e590200ff5502cf8043006dce1c8b4e4f000000000000"
        "044201020154024f02539eb9dac8c3f33653ffffffffffffffffffff014c00",
        "4501",
        "450010011e4598a9",
    ),
    "curve": (
        "4c095300530153d8044e590200ff5502cf8043000300b300032d9b4201020154"
        "024f02540253e60253c68c0153ffffffffffffffffffff014c00",
        "4501",
        "4500032966",
    ),
}


def _golden_groups():
    return {
        "dl48": DLGroup.random(48, rng=SeededRNG(101)),
        "curve": build_tiny_curve(field_bits=14, rng=SeededRNG(303)),
    }


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_format_is_pinned(self, name):
        group = _golden_groups()[name]
        payload, a = _golden_payload(group)
        message, interned, raw = GOLDEN[name]
        sender = WireCodecV2(group)
        assert sender.encode(payload).hex() == message
        assert sender.encode_element(a).hex() == interned
        fresh_element = group.exp(group.generator(), 777)
        assert WireCodecV2(group).encode_element(fresh_element).hex() == raw

        receiver = WireCodecV2(group)
        assert receiver.decode(bytes.fromhex(message)) == payload
        assert receiver.decode(bytes.fromhex(interned)) == a
        assert WireCodecV2(group).decode(bytes.fromhex(raw)) == fresh_element


# ---------------------------------------------------------------------------
# A total, bounded decoder
# ---------------------------------------------------------------------------

#: Process-time budget for decoding one fuzzed input.  Each input below
#: decodes in milliseconds; the recursive codec spent seconds on the
#: long-varint example alone.
DECODE_BUDGET_S = 1.0

_FUZZ_GROUPS = _golden_groups()


def _fuzz_payloads(group):
    pool = [group.exp(group.generator(), k) for k in (1, 2, 3, 12345)]
    elements = st.sampled_from(pool)
    ciphertexts = st.builds(Ciphertext, elements, elements)
    leaves = st.one_of(
        st.none(), st.integers(-(1 << 80), 1 << 80), st.binary(max_size=6),
        st.text(max_size=4), ciphertexts,
        st.lists(ciphertexts, max_size=3).map(
            lambda bits: BitwiseCiphertext(bits=tuple(bits))),
        st.builds(NIZKProof, st.just(pool[0]), st.integers(0, 1 << 40)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
        ),
        max_leaves=10,
    )


@st.composite
def _wire_inputs(draw):
    """Arbitrary bytes, or a valid message with a few bytes flipped,
    cut, inserted or appended."""
    name = draw(st.sampled_from(sorted(_FUZZ_GROUPS)))
    if draw(st.booleans()):
        return name, draw(st.binary(max_size=80))
    group = _FUZZ_GROUPS[name]
    data = bytearray(WireCodecV2(group).encode(draw(_fuzz_payloads(group))))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("flip", "cut", "insert", "append")))
        at = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        if edit == "flip" and at < len(data):
            data[at] ^= byte or 1
        elif edit == "cut":
            del data[at:]
        elif edit == "insert":
            data.insert(at, byte)
        else:
            data.extend(draw(st.binary(min_size=1, max_size=8)))
    return name, bytes(data)


class TestDecoderIsTotalAndBounded:
    @settings(max_examples=300, deadline=None)
    @given(case=_wire_inputs())
    # Nested 1,000 deep: the recursive codec raised RecursionError.
    @example(case=("dl48", b"L\x01" * 1000 + b"N"))
    # A 300,000-byte varint: quadratic in the recursive codec.
    @example(case=("dl48", b"S" + b"\xff" * 300_000 + b"\x01"))
    def test_any_bytes_decode_or_raise_value_error(self, case):
        name, data = case
        codec = WireCodecV2(_FUZZ_GROUPS[name])
        start = time.process_time()
        try:
            codec.decode(data)
        except ValueError:
            pass
        assert time.process_time() - start < DECODE_BUDGET_S

    def test_nesting_is_capped_on_both_sides(self, codec):
        deepest = None
        for _ in range(MAX_NESTING):
            deepest = [deepest]
        assert codec.decode(codec.encode(deepest)) == deepest
        with pytest.raises(TypeError, match="nested deeper"):
            codec.encode([deepest])
        too_deep = b"L\x01" * (MAX_NESTING + 1) + b"N"
        with pytest.raises(ValueError, match="nested deeper"):
            codec.decode(too_deep)
        # Registered objects count as one level, and so does an empty
        # container.
        with pytest.raises(ValueError, match="nested deeper"):
            codec.decode(b"L\x01" * MAX_NESTING + b"L\x00")
        proof = codec.encode(NIZKProof(commitment=4, response=1))
        with pytest.raises(ValueError, match="nested deeper"):
            codec.decode(b"T\x01" * MAX_NESTING + proof)

    def test_long_varint_is_linear_and_exact(self):
        value = (1 << 140_000) - 12345
        encoded = encode_varint(value)
        assert len(encoded) == 20_000
        start = time.process_time()
        assert decode_varint(encoded) == (value, len(encoded))
        assert decode_varint(b"\x00" + encoded, 1) == (value, len(encoded) + 1)
        assert time.process_time() - start < DECODE_BUDGET_S
        # Non-minimal encodings keep their value; a cut one its error.
        assert decode_varint(b"\x85" + b"\x80" * 40 + b"\x00") == (5, 42)
        with pytest.raises(ValueError, match="truncated varint"):
            decode_varint(b"\x85" + b"\x80" * 40)

    def test_non_minimal_zero_marker_is_a_raw_body(self, codec, small_dl_group):
        # varint(0) spelled in two bytes still announces a raw body.
        element = small_dl_group.exp(small_dl_group.generator(), 99)
        raw = small_dl_group.serialize(element)
        assert codec.decode(b"E\x80\x00" + raw) == element


class TestSizeAccounting:
    def test_declared_protocol_sizes_are_realistic(self, codec, small_dl_group):
        """The closed-form size of a bitwise ciphertext (2·l·element_bits,
        the unit of the paper's communication analysis) must be within
        the framing overhead of the real encoding."""
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(6)
        keypair = bitenc.scheme.generate_keypair(rng)
        width = 16
        ciphertext = bitenc.encrypt(1234, width, keypair.public, rng)
        declared = bitenc.ciphertext_bits(width)
        actual = codec.encoded_bits(ciphertext)
        assert declared <= actual <= declared * 1.6  # framing overhead only


# ---------------------------------------------------------------------------
# Varint framing and element interning
# ---------------------------------------------------------------------------


class TestVarints:
    @given(st.integers(0, 2**70))
    @settings(max_examples=100)
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_boundary(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_truncated_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")  # continuation bit set, nothing follows

    @given(st.integers(-(2**62), 2**62))
    @settings(max_examples=100)
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_zigzag_keeps_small_magnitudes_small(self):
        # -1 -> 1, 1 -> 2: one byte either way on the wire.
        assert zigzag(-1) == 1
        assert len(encode_varint(zigzag(-64))) == 1


@pytest.mark.parametrize("version", ["v2"])
class TestBothCodecsRoundtrip:
    """The property battery runs one codec per group family (DL and
    curve) — the wire is group-agnostic.  ``version`` names the codec
    generation under test; v2 is the only one."""

    def _codecs(self, version, small_dl_group, tiny_curve):
        return WireCodecV2(small_dl_group), WireCodecV2(tiny_curve)

    @given(value=st.integers(-(10**30), 10**30))
    @settings(max_examples=40)
    def test_integers(self, version, value):
        from repro.groups.dl import DLGroup

        codec = WireCodecV2(DLGroup.random(32, rng=SeededRNG(99)))
        assert codec.decode(codec.encode(value)) == value

    def test_none_bytes_str(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        for value in (None, b"", b"\x00\xff" * 5, "", "tag-name", "π"):
            assert codec.decode(codec.encode(value)) == value

    def test_bool_rejected(self, version, small_dl_group, tiny_curve):
        # bool is int's subclass; letting it through would silently turn
        # flags into integers on the far side.
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        with pytest.raises(TypeError):
            codec.encode(True)
        with pytest.raises(TypeError):
            codec.encode([1, False])

    def test_tuple_list_distinction(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        decoded = codec.decode(codec.encode((1, [2, (3,)], -4)))
        assert decoded == (1, [2, (3,)], -4)
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], list)
        assert isinstance(decoded[1][1], tuple)

    def test_nested_ciphertext_lists(self, version, small_dl_group, tiny_curve):
        for group in (small_dl_group, tiny_curve):
            codec = WireCodecV2(group)
            scheme = ExponentialElGamal(group)
            rng = SeededRNG(5)
            keypair = scheme.generate_keypair(rng)
            payload = [
                [scheme.encrypt(1, keypair.public, rng)],
                [scheme.encrypt(0, keypair.public, rng), 42],
            ]
            decoded = codec.decode(codec.encode(payload))
            assert decoded[1][1] == 42
            assert scheme.decrypt_small(decoded[0][0], keypair.secret, 4) == 1

    def test_bitwise_ciphertext(self, version, small_dl_group, tiny_curve):
        for group in (small_dl_group, tiny_curve):
            codec = WireCodecV2(group)
            bitenc = BitwiseElGamal(group)
            rng = SeededRNG(4)
            keypair = bitenc.scheme.generate_keypair(rng)
            ciphertext = bitenc.encrypt(0b1011, 6, keypair.public, rng)
            decoded = codec.decode(codec.encode(ciphertext))
            assert isinstance(decoded, BitwiseCiphertext)
            assert bitenc.decrypt(decoded, keypair.secret) == 0b1011

    def test_registered_objects(self, version, small_dl_group, tiny_curve):
        from repro.crypto.zkp import NIZKProof

        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        element = small_dl_group.random_element(SeededRNG(8))
        proof = NIZKProof(commitment=element, response=12345)
        decoded = codec.decode(codec.encode(proof))
        assert isinstance(decoded, NIZKProof)
        assert small_dl_group.eq(decoded.commitment, element)
        assert decoded.response == 12345

    def test_trailing_garbage_rejected(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        with pytest.raises(ValueError):
            codec.decode(codec.encode(1) + b"\x00")

    def test_truncation_rejected(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        encoded = codec.encode([small_dl_group.generator(), 7])
        with pytest.raises(ValueError):
            codec.decode(encoded[:-1])


class TestInterning:
    def test_repeat_element_sent_once(self, codec, small_dl_group):
        element = small_dl_group.random_element(SeededRNG(11))
        first = codec.encode_element(element)
        second = codec.encode_element(element)
        assert len(second) < len(first)
        # A paired decoder replays both sends and agrees on both.
        decoder = WireCodecV2(small_dl_group)
        assert small_dl_group.eq(decoder.decode(first), element)
        assert small_dl_group.eq(decoder.decode(second), element)

    def test_decode_out_of_order_fails(self, codec, small_dl_group):
        """A reference frame is meaningless to a decoder that never saw
        the first occurrence — stream order is part of the contract."""
        element = small_dl_group.random_element(SeededRNG(12))
        codec.encode_element(element)
        reference_frame = codec.encode_element(element)
        fresh_decoder = WireCodecV2(small_dl_group)
        with pytest.raises(ValueError):
            fresh_decoder.decode(reference_frame)

    def test_rollback_undoes_partial_encode(self, codec, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(13)
        keypair = scheme.generate_keypair(rng)
        ciphertext = scheme.encrypt(1, keypair.public, rng)
        mark = codec.intern_mark()
        payload = [ciphertext, object()]  # second item unencodable
        with pytest.raises(TypeError):
            codec.encode(payload)
        codec.intern_rollback(mark)
        # After rollback the components encode raw again, so a fresh
        # decoder stays in sync despite never seeing the aborted frame.
        decoder = WireCodecV2(small_dl_group)
        decoded = decoder.decode(codec.encode(ciphertext))
        assert scheme.decrypt_small(decoded, keypair.secret, 4) == 1

    def test_transcode_keeps_both_tables_in_step(self, small_dl_group):
        """decode(encode(x)) on ONE codec models the transport's
        transcode-at-submit: after k messages the encode- and
        decode-side tables hold the same entries."""
        codec = WireCodecV2(small_dl_group)
        rng = SeededRNG(14)
        elements = [small_dl_group.random_element(rng) for _ in range(5)]
        for element in elements + elements:
            decoded = codec.decode(codec.encode_element(element))
            assert small_dl_group.eq(decoded, element)
        # Second pass was all references: table holds each element once.
        assert len(codec._enc_table) == len(codec._dec_table) == 5

    def test_interning_disabled_for_unfaithful_group(self):
        from repro.analysis.counting import CountingGroup

        group = CountingGroup.like_dl(64)
        codec = WireCodecV2(group)
        assert codec.intern is False
        first = codec.encode_element(group.generator())
        second = codec.encode_element(group.generator())
        assert first == second  # no reference form: every send is raw

    def test_table_bound_respected(self, small_dl_group):
        table = InternTable(max_size=2)
        table.register("a")
        table.register("b")
        table.register("c")  # over budget: silently not registered
        assert len(table) == 2
        assert table.lookup("c") is None

    def test_repeat_heavy_payload_smaller_than_raw(self, small_dl_group):
        """The win the interning exists for: re-sending the same
        ciphertext many times (retransmits, repeated references)."""
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(15)
        keypair = scheme.generate_keypair(rng)
        payload = [scheme.encrypt(1, keypair.public, rng)] * 32
        interned = WireCodecV2(small_dl_group)
        raw = WireCodecV2(small_dl_group, intern=False)
        assert len(interned.encode(payload)) < len(raw.encode(payload)) / 4


class TestFragmentCount:
    def test_scalar_is_one(self, small_dl_group):
        assert fragment_count(7) == 1
        assert fragment_count("tag") == 1

    def test_bitwise_ciphertext_counts_bits(self, small_dl_group):
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(16)
        keypair = bitenc.scheme.generate_keypair(rng)
        ciphertext = bitenc.encrypt(5, 8, keypair.public, rng)
        assert fragment_count(ciphertext) == 8

    def test_ciphertext_list_sums(self, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(17)
        keypair = scheme.generate_keypair(rng)
        batch = [scheme.encrypt(0, keypair.public, rng) for _ in range(5)]
        assert fragment_count(batch) == 5

    def test_mixed_payload_is_one_fragment(self, small_dl_group):
        # A (rank, values) tuple or any scalar-bearing structure ships
        # as one datum in the per-datum transport model.
        assert fragment_count((3, [1, 2])) == 1


# -- interning-table lifecycle across disconnect/reconnect -------------------
#
# The socket transport keeps one v2 codec per directed channel; when a
# peer dies and rejoins, its decoder tables die with the connection, so
# the sender must reset its encoder (``WireTransport.reset_channel``)
# and start a self-contained stream.  These tests pin that lifecycle.

from repro.runtime.channels import Message, WireTransport  # noqa: E402


class TestReconnectLifecycle:
    def _msg(self, src, dst, payload, tag="tau-sets", round_sent=1):
        return Message(src=src, dst=dst, tag=tag, payload=payload,
                       size_bits=64, round_sent=round_sent)

    @staticmethod
    def _element_payload(group, seed):
        """Interning applies to group elements; a ciphertext carries
        two, so repeating one exercises the reference path."""
        scheme = ExponentialElGamal(group)
        rng = SeededRNG(seed)
        keypair = scheme.generate_keypair(rng)
        return scheme.encrypt(1, keypair.public, rng)

    def test_reset_channel_starts_self_contained_stream(self, small_dl_group):
        """After reset_channel, the next frame never references ids
        interned on the dead stream — a fresh decoder accepts it."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 31)
        first = transport.prepare(self._msg(1, 2, element))
        repeat = transport.prepare(self._msg(1, 2, element))
        # Live stream: the repeat is a short reference frame.
        assert len(repeat.wire.encoded) < len(first.wire.encoded)

        transport.reset_channel(1, 2)
        fresh = transport.prepare(self._msg(1, 2, element))
        # Raw again: the rebuilt peer never saw the interned id.
        assert len(fresh.wire.encoded) == len(first.wire.encoded)
        decoder = WireCodecV2(small_dl_group)
        decoded = decoder.decode(fresh.wire.encoded)
        assert small_dl_group.eq(decoded.c1, element.c1)
        assert small_dl_group.eq(decoded.c2, element.c2)

    def test_pre_reset_reference_rejected_by_fresh_decoder(self, small_dl_group):
        """The failure reset_channel prevents: a reference frame from
        the old stream is garbage to a rejoined peer's decoder."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 32)
        transport.prepare(self._msg(1, 2, element))
        reference = transport.prepare(self._msg(1, 2, element))
        with pytest.raises(ValueError):
            WireCodecV2(small_dl_group).decode(reference.wire.encoded)

    def test_reset_is_per_directed_channel(self, small_dl_group):
        """Resetting 1>2 must not disturb 1>3 (or 2>1) codec state."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 33)
        transport.prepare(self._msg(1, 2, element))
        transport.prepare(self._msg(1, 3, element))
        transport.reset_channel(1, 2)
        survivor = transport.prepare(self._msg(1, 3, element))
        # 1>3 kept its table: the repeat is still a short reference.
        raw = transport.prepare(self._msg(1, 2, element))
        assert len(survivor.wire.encoded) < len(raw.wire.encoded)

    def test_reset_keeps_channel_digest_spanning_reconnect(self, small_dl_group):
        """The per-channel digest covers the whole run including
        re-encodings after a rejoin — reset must not restart it."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 34)
        transport.prepare(self._msg(1, 2, element))
        before = transport.channel_digests()["1>2"]
        transport.reset_channel(1, 2)
        assert transport.channel_digests()["1>2"] == before
        transport.prepare(self._msg(1, 2, element))
        assert transport.channel_digests()["1>2"] != before

    def test_reset_also_resets_tag_dictionary(self, small_dl_group):
        """Tag ids are per-stream state too: after a reset the first
        use of a tag ships the string again (payload_bits grow by the
        2-byte header plus the UTF-8 tag, exactly as on first use)."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 35)
        first = transport.prepare(self._msg(1, 2, element))
        transport.reset_channel(1, 2)
        again = transport.prepare(self._msg(1, 2, element))
        assert again.wire.payload_bits == first.wire.payload_bits
        tag_bytes = 2 + len("tau-sets".encode())
        assert first.wire.payload_bits == 8 * (
            len(first.wire.encoded) + tag_bytes
        )

    def test_keep_bytes_off_drops_payload_bytes(self, small_dl_group):
        """Engine runs don't pay to retain encodings, and their sender's
        transcode is the receiver's decode.  The socket transport opts
        in with keep_bytes=True to ship the bytes verbatim; its receiver
        decodes them, so the sender keeps its own payload object."""
        transport = WireTransport(small_dl_group, keep_bytes=False)
        element = self._element_payload(small_dl_group, 36)
        prepared = transport.prepare(self._msg(1, 2, element))
        assert prepared.wire.encoded is None
        assert prepared.payload is not element
        assert prepared.payload == element
        kept = WireTransport(small_dl_group, keep_bytes=True)
        prepared = kept.prepare(self._msg(1, 2, element))
        assert prepared.wire.encoded is not None
        assert prepared.payload is element
        assert WireCodecV2(small_dl_group).decode(prepared.wire.encoded) == element

    def test_unencodable_payload_raises_at_the_sender(self, small_dl_group):
        """There is no fallback accounting: a payload the codec cannot
        encode fails the send, naming the channel and tag, and leaves
        the channel's interning table as it was."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 37)
        with pytest.raises(TypeError, match="P1 -> P2 'tau-sets'"):
            transport.prepare(self._msg(1, 2, [element, object()]))
        assert transport.wire_messages == transport.logical_messages == 0
        prepared = transport.prepare(self._msg(1, 2, element))
        decoded = WireCodecV2(small_dl_group).decode(prepared.wire.encoded)
        assert small_dl_group.eq(decoded.c1, element.c1)


# -- what a tcp RESEND relies on ----------------------------------------------
#
# A socket-transport sender does not transcode, so after a peer rejoins
# it resends its own payload objects.  That is only what the first MSG
# carried if every payload the protocol submits decodes to an equal
# value and no payload is edited after it is sent.

from repro.core.framework import FrameworkConfig, GroupRankingFramework  # noqa: E402

RESEND_CONFIGS = {
    "default": {},
    "bit_proofs_batch_verify": {"bit_proofs": True, "batch_verify": True},
    "fiat_shamir": {"zkp_mode": "fiat-shamir"},
    "streaming": {"stream_chunk_sets": 1},
    "precompute_multiexp": {"precompute": 16, "multiexp": True},
}


class TestSentPayloadsStayResendable:
    @pytest.mark.parametrize("name", sorted(RESEND_CONFIGS))
    def test_payloads_decode_equal_and_stay_unchanged(
        self, name, small_dl_group, small_schema, small_initiator_input,
        participants_factory, monkeypatch,
    ):
        """One in-process measured run per configuration that changes
        what parties send (bit proofs, NIZKs, chunked chain transfers,
        pooled randomness): every payload decodes equal to its value at
        submit, and still equals that value after the run."""
        sent = []
        prepare = WireTransport.prepare

        def recording_prepare(transport, message):
            snapshot = copy.deepcopy(message.payload)
            prepared = prepare(transport, message)
            sent.append((message.tag, message.payload, snapshot,
                         prepared.payload))
            return prepared

        monkeypatch.setattr(WireTransport, "prepare", recording_prepare)
        participants = participants_factory(small_schema, 4, seed=43)
        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema, num_participants=4,
            k=2, rho_bits=6, wire="measured", **RESEND_CONFIGS[name],
        )
        framework = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(5)
        )
        result = framework.run()

        assert not framework.check_result(result)
        assert len(sent) == result.wire_stats.logical_messages
        for tag, payload, snapshot, decoded in sent:
            assert decoded == snapshot, tag
            assert payload == snapshot, tag


def _element_bodies(value):
    """How many element bodies encoding ``value`` writes."""
    if isinstance(value, Ciphertext):
        return 2
    if isinstance(value, BitwiseCiphertext):
        return 2 * value.bit_length
    if isinstance(value, (list, tuple)):
        return sum(map(_element_bodies, value))
    if dataclasses.is_dataclass(value):
        return sum(_element_bodies(getattr(value, field.name))
                   for field in dataclasses.fields(value))
    return 0


class TestInternedReferencesOnTheWire:
    def test_run_without_rerandomization_keeps_its_digest(
        self, small_dl_group, small_schema, small_initiator_input,
        participants_factory, monkeypatch,
    ):
        """Without rerandomization the chain forwards ciphertexts their
        receivers have already seen, so this is a run whose messages
        carry interned references (200 of its 3,564 element bodies; a
        rerandomized run sends none).  Its canonical digest, recorded
        with the recursive codec the one-pass codec replaced, pins
        those bytes."""
        counts = {"bodies": 0, "raw": 0}
        encode = WireCodecV2.encode

        def counting_encode(codec, value):
            interned = len(codec._enc_table)
            encoded = encode(codec, value)
            counts["raw"] += len(codec._enc_table) - interned
            counts["bodies"] += _element_bodies(value)
            return encoded

        monkeypatch.setattr(WireCodecV2, "encode", counting_encode)
        participants = participants_factory(small_schema, 4, seed=43)
        config = FrameworkConfig(
            group=small_dl_group, schema=small_schema, num_participants=4,
            k=2, rho_bits=6, wire="measured", rerandomize=False,
        )
        result = GroupRankingFramework(
            config, small_initiator_input, participants, rng=SeededRNG(5)
        ).run()

        assert result.wire_stats.canonical_digest == (
            "dc0f9cdb3fbe2bc9f0ad8a3fc197a3eaef1c7b0efd399512465dd5eeb35ff1ce"
        )
        assert (counts["bodies"] - counts["raw"], counts["bodies"]) == (200, 3564)
