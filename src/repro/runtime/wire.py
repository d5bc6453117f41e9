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

Lists, tuples and objects nest at most :data:`MAX_NESTING` deep, far
below Python's recursion limit and far above any protocol payload (the
chain vector, ``L[L[C]]``, is two deep).  Each direction walks a
message once, in one loop with an explicit stack of open containers, so
no payload and no peer's bytes can recurse: :meth:`WireCodecV2.decode`
turns every malformed input into a :class:`ValueError`.

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

#: Deepest nesting of lists, tuples and registered objects either
#: direction accepts; a value at depth ``MAX_NESTING + 1`` fails to
#: encode (``TypeError``) and to decode (``ValueError``).
MAX_NESTING = 32


# ---------------------------------------------------------------------------
# Varint / zigzag primitives
# ---------------------------------------------------------------------------

#: The one-byte varints, 0..127.
_SMALL_VARINTS = tuple(bytes((value,)) for value in range(0x80))

#: Each byte's 7 value bits as a binary string (``decode_varint``).
_GROUP_BITS = tuple(format(byte & 0x7F, "07b") for byte in range(0x100))

#: Varints up to this many bytes are summed group by group; longer ones
#: are converted once, as a binary string, so decoding stays linear in
#: the varint's length.
_SHORT_VARINT = 10


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128: 7 value bits per byte, MSB = continuation."""
    if value < 0:
        raise ValueError("varint requires a non-negative integer")
    if value < 0x80:
        return _SMALL_VARINTS[value]
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
    size = len(data)
    end = offset
    while end < size and data[end] & 0x80:
        end += 1
    if end >= size:
        raise ValueError("truncated varint")
    end += 1
    if end - offset <= _SHORT_VARINT:
        value = 0
        for index in range(end - 1, offset - 1, -1):
            value = (value << 7) | (data[index] & 0x7F)
        return value, end
    groups = data[offset:end]
    return int("".join([_GROUP_BITS[byte] for byte in reversed(groups)]), 2), end


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
_REGISTERED_IDS: Dict[type, int] = {}


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

        registry = (
            (BobRequest, ("qx", "c_blinded", "g_blinded")),
            (AliceResponse, ("a", "h")),
            (NIZKProof, ("commitment", "response")),
            (BitProof, ("a0", "b0", "a1", "b1", "e0", "e1", "z0", "z1")),
            (Submission, ("rank", "values")),
        )
        _REGISTERED_IDS.update(
            (cls, type_id) for type_id, (cls, _) in enumerate(registry)
        )
        _REGISTRY = registry
    return _REGISTRY


# ---------------------------------------------------------------------------
# Element interning
# ---------------------------------------------------------------------------

class InternTable:
    """Per-direction element dictionary, index-synchronized across ends.

    Bounded: once ``max_size`` entries exist, further elements are sent
    raw and *not* registered — both ends apply the same rule against the
    same stream, so their tables never diverge.  :class:`WireCodecV2`
    applies :meth:`lookup` and :meth:`register` inline on its hot path.
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
    simulated channel synchronized message by message.  The group's
    element width and its memoized (de)serializers are bound once, when
    the codec is built.
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
        self._width = group.wire_bytes
        self._serialize = group.serialize_cached
        self._deserialize = group.deserialize_cached

    # -- encoding ---------------------------------------------------------------
    def encode(self, value: Any) -> bytes:
        """One pass over ``value``, appending every piece to one list.

        ``pending`` holds an iterator per open container (the payload
        itself is the outermost), so nesting costs no recursion.  A
        value the grammar has no tag for, or one nested deeper than
        :data:`MAX_NESTING`, raises :class:`TypeError`."""
        out: List[bytes] = []
        append = out.append
        registry = registered_types()
        registered_ids = _REGISTERED_IDS
        pending = [iter((value,))]
        while pending:
            for value in pending[-1]:
                if isinstance(value, Ciphertext):
                    append(b"C")
                    self._encode_bodies((value.c1, value.c2), append)
                elif isinstance(value, int):
                    if value is True or value is False:
                        raise TypeError("encode booleans as integers explicitly")
                    append(b"S")
                    append(encode_varint(zigzag(value)))
                elif isinstance(value, (list, tuple)):
                    if len(pending) > MAX_NESTING:
                        raise TypeError(f"payload nested deeper than {MAX_NESTING}")
                    append(b"T" if isinstance(value, tuple) else b"L")
                    append(encode_varint(len(value)))
                    pending.append(iter(value))
                    break
                elif value is None:
                    append(b"N")
                elif isinstance(value, BitwiseCiphertext):
                    append(b"B")
                    append(encode_varint(value.bit_length))
                    self._encode_bodies(
                        [element for bit in value for element in (bit.c1, bit.c2)],
                        append,
                    )
                elif isinstance(value, (bytes, bytearray)):
                    append(b"Y")
                    append(encode_varint(len(value)))
                    append(bytes(value))
                elif isinstance(value, str):
                    raw = value.encode("utf-8")
                    append(b"U")
                    append(encode_varint(len(raw)))
                    append(raw)
                elif type(value) in registered_ids:
                    if len(pending) > MAX_NESTING:
                        raise TypeError(f"payload nested deeper than {MAX_NESTING}")
                    type_id = registered_ids[type(value)]
                    append(b"O")
                    append(encode_varint(type_id))
                    _, names = registry[type_id]
                    pending.append(iter([getattr(value, name) for name in names]))
                    break
                else:
                    raise TypeError(f"cannot wire-encode {type(value).__name__}")
            else:
                pending.pop()
        return b"".join(out)

    def encode_element(self, element: Any) -> bytes:
        """Explicit encoding of one bare group element."""
        if not self.group.is_element(element):
            raise TypeError("value is not an element of this codec's group")
        out = [b"E"]
        self._encode_bodies((element,), out.append)
        return b"".join(out)

    def _encode_bodies(self, elements: Any, append: Any) -> None:
        """Append one element body per element: an interned reference
        ``varint(index+1)``, or ``varint(0) ‖ raw`` (interning it)."""
        serialize = self._serialize
        if not self.intern:
            for element in elements:
                append(b"\x00")
                append(serialize(element))
            return
        table = self._enc_table
        index_of, interned = table.index_of, table.elements
        for element in elements:
            index = index_of.get(element)
            if index is not None:
                append(encode_varint(index + 1))
                continue
            raw = serialize(element)
            if len(interned) < table.max_size:
                index_of[element] = len(interned)
                interned.append(element)
            append(b"\x00")
            append(raw)

    # -- decoding ---------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        """One pass over ``data``, dispatching on each tag byte.

        Element markers and integers read one-byte varints inline.
        ``open_containers`` holds ``(kind, count, items)`` for each
        list, tuple or object whose items are still being read,
        innermost last; each finished value is handed to the innermost
        one, closing every container it completes.  Any malformed input
        raises :class:`ValueError`."""
        size = len(data)
        width, deserialize, intern = self._width, self._deserialize, self.intern
        table = self._dec_table
        index_of, interned, max_intern = table.index_of, table.elements, table.max_size
        open_containers: List[Tuple[Any, int, List[Any]]] = []
        offset = 0
        while True:
            tag = data[offset:offset + 1]
            offset += 1
            if tag == b"C" or tag == b"B" or tag == b"E":
                if tag == b"C":
                    bodies_left = 2
                elif tag == b"E":
                    bodies_left = 1
                else:
                    count, offset = decode_varint(data, offset)
                    bodies_left = 2 * count
                bodies: List[Any] = []
                for _ in range(bodies_left):
                    if offset >= size:
                        raise ValueError("truncated varint" if intern
                                         else "expected raw element marker")
                    marker = data[offset]
                    offset += 1
                    if marker:
                        if not intern:
                            raise ValueError("expected raw element marker")
                        if marker > 0x7F:
                            marker, offset = decode_varint(data, offset - 1)
                        if marker:
                            if marker > len(interned):
                                raise ValueError(
                                    f"interned element reference {marker - 1}"
                                    " out of range"
                                )
                            bodies.append(interned[marker - 1])
                            continue
                    # varint(0): the raw first occurrence, interned here
                    end = offset + width
                    raw = data[offset:end]
                    if len(raw) != width:
                        raise ValueError("truncated element body")
                    element = deserialize(raw)
                    if (intern and len(interned) < max_intern
                            and element not in index_of):
                        index_of[element] = len(interned)
                        interned.append(element)
                    bodies.append(element)
                    offset = end
                if tag == b"C":
                    value = Ciphertext(*bodies)
                elif tag == b"E":
                    value = bodies[0]
                else:
                    value = BitwiseCiphertext(
                        bits=tuple(map(Ciphertext, bodies[0::2], bodies[1::2]))
                    )
            elif tag == b"S":
                if offset >= size:
                    raise ValueError("truncated varint")
                value = data[offset]
                offset += 1
                if value > 0x7F:
                    value, offset = decode_varint(data, offset - 1)
                value = unzigzag(value)
            elif tag == b"L" or tag == b"T" or tag == b"O":
                count, offset = decode_varint(data, offset)
                kind: Any = list if tag == b"L" else tuple
                if tag == b"O":
                    registry = registered_types()
                    if count >= len(registry):
                        raise ValueError(f"unknown object type id {count}")
                    kind, names = registry[count]
                    count = len(names)
                if len(open_containers) >= MAX_NESTING:
                    raise ValueError(f"wire value nested deeper than {MAX_NESTING}")
                if count:
                    open_containers.append((kind, count, []))
                    continue
                value = kind()
            elif tag == b"N":
                value = None
            elif tag == b"Y" or tag == b"U":
                length, offset = decode_varint(data, offset)
                end = offset + length
                value = data[offset:end]
                if len(value) != length:
                    raise ValueError("truncated bytes body" if tag == b"Y"
                                     else "truncated string body")
                if tag == b"U":
                    value = value.decode("utf-8")
                offset = end
            elif tag:
                raise ValueError(f"unknown wire tag {tag!r}")
            else:
                raise ValueError("truncated value")
            while open_containers:
                kind, count, items = open_containers[-1]
                items.append(value)
                if len(items) < count:
                    break
                open_containers.pop()
                if kind is list:
                    value = items
                elif kind is tuple:
                    value = tuple(items)
                else:
                    value = kind(*items)
            else:
                if offset != size:
                    raise ValueError(f"{size - offset} trailing bytes after decode")
                return value

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
