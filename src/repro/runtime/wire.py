"""Canonical wire encoding for protocol payloads.

:class:`WireCodecV2` is the one codec: every transport ships its bytes
and every run accounts them.  LEB128 varints carry every length and
count, self-delimiting types carry no length prefix, and group elements
pass through a per-channel *interning table* — each distinct element is
sent raw exactly once and referenced by index thereafter (``g``, ``y``,
pool-drawn ``(g^r, y^r)`` pairs and rerandomized chain entries repeat
constantly on the hot path).

Value grammar (each value is ``tag ‖ body`` with a self-delimiting
body):

    S  signed integer (zigzag, one varint)
    N  None
    Y  bytes (varint length + raw)
    U  UTF-8 string (varint length + raw)
    E  bare group element (explicit; see :meth:`WireCodecV2.encode_element`)
    C  ElGamal ciphertext (two element bodies)
    B  bitwise ciphertext (varint count + element-body pairs)
    L  list (varint count + items)
    T  tuple (varint count + items)
    O  registered protocol object (varint type id + fields)

Element bodies are ``varint(0) ‖ raw`` for a first occurrence (raw is
exactly ``group.wire_bytes`` bytes, so no length is needed) or
``varint(index+1)`` for an interned reference.  Encoder and decoder
tables stay synchronized because each channel's messages are decoded in
the order they were encoded: in process the transport *transcodes*
(encodes then immediately decodes) every message, over sockets the
receiver decodes the shipped stream.

Bare group elements are type-ambiguous with integers (DL groups) and
tuples (curves), so ``encode`` treats them structurally; only
:meth:`WireCodecV2.encode_element` asserts elementhood.  Ciphertext
internals are typed and therefore get the full element treatment
(serialization cache plus interning).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.bitenc import BitProof, BitwiseCiphertext
from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Group


# ---------------------------------------------------------------------------
# Varint / zigzag primitives
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """Unsigned LEB128: 7 value bits per byte, MSB = continuation."""
    if value < 0:
        raise ValueError("varint requires a non-negative integer")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    """Standard zigzag: 0, -1, 1, -2, … → 0, 1, 2, 3, … (bijective,
    so small magnitudes of either sign stay one varint byte)."""
    return (value << 1) if value >= 0 else (((-value) << 1) - 1)


def unzigzag(encoded: int) -> int:
    return -((encoded + 1) >> 1) if encoded & 1 else encoded >> 1


# ---------------------------------------------------------------------------
# Registered protocol objects (tag O)
# ---------------------------------------------------------------------------
#
# Fixed ids; append-only.  Field order is the constructor order, so a
# decoded object is rebuilt with ``cls(*fields)``.

_REGISTRY: Optional[Tuple[Tuple[type, Tuple[str, ...]], ...]] = None


def registered_types() -> Tuple[Tuple[type, Tuple[str, ...]], ...]:
    """The (class, field names) table, id = position.

    Imported lazily: some registered payload classes live in modules
    that themselves import the runtime.
    """
    global _REGISTRY
    if _REGISTRY is None:
        from repro.core.parties import Submission
        from repro.crypto.zkp import NIZKProof
        from repro.dotproduct.ioannidis import AliceResponse, BobRequest

        _REGISTRY = (
            (BobRequest, ("qx", "c_blinded", "g_blinded")),
            (AliceResponse, ("a", "h")),
            (NIZKProof, ("commitment", "response")),
            (BitProof, ("a0", "b0", "a1", "b1", "e0", "e1", "z0", "z1")),
            (Submission, ("rank", "values")),
        )
    return _REGISTRY


def _registered_id(value: Any) -> Optional[int]:
    for type_id, (cls, _) in enumerate(registered_types()):
        if type(value) is cls:
            return type_id
    return None


# ---------------------------------------------------------------------------
# Element interning
# ---------------------------------------------------------------------------

class InternTable:
    """Per-direction element dictionary, index-synchronized across ends.

    Bounded: once ``max_size`` entries exist, further elements are sent
    raw and *not* registered — both ends apply the same rule against the
    same stream, so their tables never diverge.
    """

    __slots__ = ("max_size", "index_of", "elements")

    def __init__(self, max_size: int = 4096):
        self.max_size = max_size
        self.index_of: Dict[Any, int] = {}
        self.elements: List[Any] = []

    def lookup(self, element: Any) -> Optional[int]:
        return self.index_of.get(element)

    def register(self, element: Any) -> None:
        if len(self.elements) < self.max_size and element not in self.index_of:
            self.index_of[element] = len(self.elements)
            self.elements.append(element)

    def get(self, index: int) -> Any:
        return self.elements[index]

    def truncate(self, size: int) -> None:
        """Roll back to ``size`` entries (undo a failed partial encode)."""
        while len(self.elements) > size:
            del self.index_of[self.elements.pop()]

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# The codec: varint framing + element interning (stateful per channel)
# ---------------------------------------------------------------------------

class WireCodecV2:
    """Compact codec for one *directed* channel.

    Holds two interning tables — one advanced by :meth:`encode`, one by
    :meth:`decode` — so the transcode pattern
    ``codec.decode(codec.encode(payload))`` keeps both ends of the
    simulated channel synchronized message by message.
    """

    def __init__(self, group: Group, intern: Optional[bool] = None,
                 max_intern: int = 4096):
        self.group = group
        # Interning requires serialize/deserialize to round-trip distinct
        # elements; the counting group collapses everything to 1 and
        # would dedupe all traffic, so it opts out via wire_faithful.
        self.intern = group.wire_faithful if intern is None else intern
        self._enc_table = InternTable(max_intern)
        self._dec_table = InternTable(max_intern)

    # -- encoding ---------------------------------------------------------------
    def encode(self, value: Any) -> bytes:
        return b"".join(self._encode_value(value))

    def _encode_value(self, value: Any) -> List[bytes]:
        if value is None:
            return [b"N"]
        if isinstance(value, bool):
            raise TypeError("encode booleans as integers explicitly")
        if isinstance(value, int):
            return [b"S", encode_varint(zigzag(value))]
        if isinstance(value, Ciphertext):
            return [b"C", self._encode_element_body(value.c1),
                    self._encode_element_body(value.c2)]
        if isinstance(value, BitwiseCiphertext):
            parts = [b"B", encode_varint(value.bit_length)]
            for bit in value:
                parts.append(self._encode_element_body(bit.c1))
                parts.append(self._encode_element_body(bit.c2))
            return parts
        if isinstance(value, (bytes, bytearray)):
            return [b"Y", encode_varint(len(value)), bytes(value)]
        if isinstance(value, str):
            raw = value.encode("utf-8")
            return [b"U", encode_varint(len(raw)), raw]
        type_id = _registered_id(value)
        if type_id is not None:
            _, names = registered_types()[type_id]
            parts = [b"O", encode_varint(type_id)]
            for name in names:
                parts.extend(self._encode_value(getattr(value, name)))
            return parts
        if isinstance(value, (list, tuple)):
            parts = [b"T" if isinstance(value, tuple) else b"L",
                     encode_varint(len(value))]
            for item in value:
                parts.extend(self._encode_value(item))
            return parts
        raise TypeError(f"cannot wire-encode {type(value).__name__}")

    def encode_element(self, element: Any) -> bytes:
        """Explicit encoding of one bare group element."""
        if not self.group.is_element(element):
            raise TypeError("value is not an element of this codec's group")
        return b"E" + self._encode_element_body(element)

    def _encode_element_body(self, element: Any) -> bytes:
        if self.intern:
            index = self._enc_table.lookup(element)
            if index is not None:
                return encode_varint(index + 1)
            raw = self.group.serialize_cached(element)
            self._enc_table.register(element)
            return b"\x00" + raw
        return b"\x00" + self.group.serialize_cached(element)

    # -- decoding ---------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        value, offset = self._decode_value(data, 0)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes after decode")
        return value

    def _decode_value(self, data: bytes, offset: int) -> Tuple[Any, int]:
        if offset >= len(data):
            raise ValueError("truncated value")
        tag = data[offset:offset + 1]
        offset += 1
        if tag == b"S":
            z, offset = decode_varint(data, offset)
            return unzigzag(z), offset
        if tag == b"N":
            return None, offset
        if tag == b"Y":
            length, offset = decode_varint(data, offset)
            body = data[offset:offset + length]
            if len(body) != length:
                raise ValueError("truncated bytes body")
            return body, offset + length
        if tag == b"U":
            length, offset = decode_varint(data, offset)
            body = data[offset:offset + length]
            if len(body) != length:
                raise ValueError("truncated string body")
            return body.decode("utf-8"), offset + length
        if tag == b"E":
            return self._decode_element_body(data, offset)
        if tag == b"C":
            c1, offset = self._decode_element_body(data, offset)
            c2, offset = self._decode_element_body(data, offset)
            return Ciphertext(c1=c1, c2=c2), offset
        if tag == b"B":
            count, offset = decode_varint(data, offset)
            bits: List[Ciphertext] = []
            for _ in range(count):
                c1, offset = self._decode_element_body(data, offset)
                c2, offset = self._decode_element_body(data, offset)
                bits.append(Ciphertext(c1=c1, c2=c2))
            return BitwiseCiphertext(bits=tuple(bits)), offset
        if tag == b"O":
            type_id, offset = decode_varint(data, offset)
            registry = registered_types()
            if type_id >= len(registry):
                raise ValueError(f"unknown object type id {type_id}")
            cls, names = registry[type_id]
            values = []
            for _ in names:
                item, offset = self._decode_value(data, offset)
                values.append(item)
            return cls(*values), offset
        if tag in (b"L", b"T"):
            count, offset = decode_varint(data, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_value(data, offset)
                items.append(item)
            return (tuple(items) if tag == b"T" else items), offset
        raise ValueError(f"unknown wire tag {tag!r}")

    def _decode_element_body(self, data: bytes, offset: int) -> Tuple[Any, int]:
        if not self.intern:
            if offset >= len(data) or data[offset] != 0:
                raise ValueError("expected raw element marker")
            offset += 1
            raw = data[offset:offset + self.group.wire_bytes]
            if len(raw) != self.group.wire_bytes:
                raise ValueError("truncated element body")
            return self.group.deserialize_cached(raw), offset + len(raw)
        marker, offset = decode_varint(data, offset)
        if marker == 0:
            raw = data[offset:offset + self.group.wire_bytes]
            if len(raw) != self.group.wire_bytes:
                raise ValueError("truncated element body")
            element = self.group.deserialize_cached(raw)
            self._dec_table.register(element)
            return element, offset + len(raw)
        index = marker - 1
        if index >= len(self._dec_table):
            raise ValueError(f"interned element reference {index} out of range")
        return self._dec_table.get(index), offset

    # -- size accounting ----------------------------------------------------------
    def encoded_bits(self, value: Any) -> int:
        return 8 * len(self.encode(value))

    # -- transactional interning (transport-facing) ------------------------------
    def intern_mark(self) -> int:
        return len(self._enc_table)

    def intern_rollback(self, mark: int) -> None:
        self._enc_table.truncate(mark)


# ---------------------------------------------------------------------------
# Fragmentation model
# ---------------------------------------------------------------------------

def fragment_count(payload: Any) -> int:
    """How many wire messages this payload costs without coalescing.

    Models a per-datum transport: a bitwise ciphertext is one
    broadcast *per bit* and ciphertext-set transfers (τ sets, chain
    vectors, final sets) one message *per ciphertext* — the O(n·l)
    phase-2 flood that coalescing collapses to one batch per
    (sender, receiver, round).  Scalar payloads count 1.
    """
    if isinstance(payload, BitwiseCiphertext):
        return max(1, payload.bit_length)
    if (
        isinstance(payload, (list, tuple))
        and payload
        and all(
            isinstance(item, (Ciphertext, BitwiseCiphertext, list, tuple))
            for item in payload
        )
    ):
        return sum(fragment_count(item) for item in payload)
    return 1
