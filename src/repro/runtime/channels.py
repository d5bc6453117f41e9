"""Messages, receive-effects and the measured-bytes wire transport.

The paper assumes a secure (private, authenticated) channel between each
pair of parties; in simulation this means a party can only read messages
explicitly addressed to it, which the engine enforces by delivering into
per-party mailboxes keyed by ``(src, tag)``.

:class:`WireTransport` makes the byte encoding the *actual* transport:
every engine message is encoded with the :mod:`repro.runtime.wire` codec
at submit time, decoded once so the receiver observes exactly what the
bytes carry (in process the sender transcodes, encode → decode; a
transport that ships the bytes leaves that decode to its receiver), and
accounted by *measured* size — payload bytes plus the secure-channel
envelope a real deployment pays per wire message (AEAD nonce +
authentication tag).  In a fault-free run all logical messages one
sender emits to one receiver within one engine round share a single
framed batch (one envelope), collapsing the phase-2 per-bit/per-
ciphertext flood from O(n·l) wire messages to O(n); under a fault plan
each message is framed alone, since retransmits and duplicates need
standalone envelopes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Deque, List, Optional, Sequence, Tuple
from collections import deque

from repro.runtime.errors import ProtocolError


@dataclass(frozen=True)
class WireInfo:
    """Wire-path annotations the transport attaches to a message."""

    payload_bits: int      # encoded payload + tag-dictionary bits
    frames: int            # wire messages this payload costs framed alone
    encoded_len: int       # encoded payload bytes
    tag_id: int            # per-channel tag-dictionary id
    finalized: bool = False
    wire_messages: int = 0  # wire messages actually attributed to this entry
    # The encoded payload bytes themselves, captured only when the
    # transport was built with ``keep_bytes=True``.  The socket transport
    # ships exactly these bytes, so what crosses TCP is byte-identical
    # to what the in-process accounting metered, and the receiver's
    # decode of them is the message's only decode.
    encoded: Optional[bytes] = None


@dataclass(frozen=True)
class Message:
    """One protocol message on a pairwise secure channel."""

    src: int
    dst: int
    tag: str
    payload: Any
    # Wire size: the measured size once the transport finalizes the
    # message (0 until then); a declared size on an engine without a
    # wire transport (the secret-sharing baseline).
    size_bits: int
    round_sent: int = 0
    # Wire-path bookkeeping: ``accounted`` means the scheduler already
    # credited the receiver at delivery, so Party.recv must not
    # double-count.
    accounted: bool = False
    wire: Optional[WireInfo] = None


@dataclass(frozen=True)
class NextRound:
    """Effect yielded by a party: "resume me at the start of next round".

    This is how the streaming pipeline staggers its chunk emissions: all
    messages sent within one engine round are delivered together at the
    round boundary, so a chain head that wants hop 2 chewing on chunk 1
    while it emits chunk 2 must *yield the round* between sends.  A
    paused party is not blocked on any receive (the supervisor never
    sees it) and is unconditionally resumed one round later, so pausing
    can never deadlock a run.
    """


@dataclass(frozen=True)
class Recv:
    """Effect yielded by a party: "block until a message arrives".

    ``src`` may be ``None`` to accept the tag from any sender.
    """

    src: Optional[int]
    tag: str

    def matches(self, message: Message) -> bool:
        """Would ``message`` satisfy this receive?  (Used by the
        supervisor to pair blocked receives with lost messages.)"""
        return message.tag == self.tag and (
            self.src is None or message.src == self.src
        )


@dataclass
class Mailbox:
    """Per-party inbox with FIFO order per ``(src, tag)`` stream."""

    owner: int
    _queues: Dict[Tuple[int, str], Deque[Message]] = field(default_factory=dict)

    def deliver(self, message: Message) -> None:
        if message.dst != self.owner:
            raise ProtocolError(
                f"message for {message.dst} delivered to mailbox of {self.owner}"
            )
        key = (message.src, message.tag)
        self._queues.setdefault(key, deque()).append(message)

    def try_take(self, want: Recv) -> Optional[Message]:
        """Pop the oldest message matching the receive effect, if any."""
        if want.src is not None:
            queue = self._queues.get((want.src, want.tag))
            if queue:
                return queue.popleft()
            return None
        # Wildcard source: take the tag from the lowest-numbered sender
        # with a pending message (deterministic).
        candidates = [
            key for key, queue in self._queues.items() if key[1] == want.tag and queue
        ]
        if not candidates:
            return None
        return self._queues[min(candidates)].popleft()

    def pending(self) -> List[Message]:
        return [msg for queue in self._queues.values() for msg in queue]


# ---------------------------------------------------------------------------
# Measured-bytes wire transport
# ---------------------------------------------------------------------------

#: Secure-channel envelope a real deployment pays per wire message: a
#: 12-byte AEAD nonce plus a 16-byte authentication tag (the paper
#: assumes private, authenticated pairwise channels).
ENVELOPE_BYTES = 28

#: Batch header estimate: varint(round) + ~2-byte varint(count).
BATCH_COUNT_BYTES = 2


@dataclass(frozen=True)
class WireStats:
    """Aggregate wire-path accounting for one run."""

    digest: str                      # sha256 over encoded payloads, send order
    wire_messages: int
    wire_bits: int
    payload_bits: int
    messages_by_tag: Dict[str, int]
    bits_by_tag: Dict[str, int]
    logical_messages: int
    # Per-directed-channel payload digests ("src>dst" -> sha256 hex).
    # Unlike ``digest`` (global submit order — a scheduling artifact),
    # each channel digest depends only on that channel's own byte
    # stream, so it is comparable between the lockstep engine and the
    # socket transport, where global submit interleaving differs.
    channel_digests: Dict[str, str] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return self.wire_bits // 8

    @classmethod
    def total(cls, parts: Sequence["WireStats"], digest: str) -> "WireStats":
        """The counters and per-tag tallies of ``parts`` (at least one)
        summed, under ``digest``.  Channel digests are left to the
        caller, which knows whether the parts' channels overlap."""
        messages_by_tag: Dict[str, int] = {}
        bits_by_tag: Dict[str, int] = {}
        for part in parts:
            for tag, count in part.messages_by_tag.items():
                messages_by_tag[tag] = messages_by_tag.get(tag, 0) + count
            for tag, bits in part.bits_by_tag.items():
                bits_by_tag[tag] = bits_by_tag.get(tag, 0) + bits
        return cls(
            digest=digest,
            wire_messages=sum(part.wire_messages for part in parts),
            wire_bits=sum(part.wire_bits for part in parts),
            payload_bits=sum(part.payload_bits for part in parts),
            messages_by_tag=messages_by_tag,
            bits_by_tag=bits_by_tag,
            logical_messages=sum(part.logical_messages for part in parts),
        )

    @property
    def canonical_digest(self) -> str:
        """Scheduling-independent run digest: per-channel digests hashed
        in channel order.  Falls back to the submit-order digest when no
        per-channel digests were collected (legacy stats objects)."""
        if not self.channel_digests:
            return self.digest
        feed = "|".join(
            f"{channel}={value}"
            for channel, value in sorted(self.channel_digests.items())
        )
        return hashlib.sha256(feed.encode()).hexdigest()


class WireTransport:
    """Per-run wire path: encoding, interning, coalescing, accounting.

    One instance serves one engine run.  It keeps a codec per *directed*
    channel (the interning tables are channel state), a per-channel tag
    dictionary (tag strings cross the wire once, ids thereafter), and a
    running SHA-256 over the encoded payload stream in submit order —
    the serial-transcript fingerprint, independent of coalescing because
    envelopes and batch headers are excluded.

    ``keep_bytes``: keep each payload's encoded bytes on its
    :class:`WireInfo` so the caller can ship them.  Shipping the bytes
    means the receiver decodes them, so :meth:`prepare` then encodes and
    accounts but does not transcode: the message keeps the sender's own
    payload object.  Without it (the in-process engine) the sender's
    transcode is the receiver's decode.
    """

    def __init__(self, group, keep_bytes: bool = False):
        # Imported here, not at module level: this module is loaded by
        # ``repro.runtime.__init__`` while the crypto package (which the
        # codec depends on) may still be initializing.
        from repro.runtime import wire as wire_format

        self._fmt = wire_format
        self.group = group
        self.keep_bytes = keep_bytes
        self._channels: Dict[Tuple[int, int], Any] = {}
        self._tag_ids: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._digest = hashlib.sha256()
        self._channel_digests: Dict[Tuple[int, int], Any] = {}
        self.wire_messages = 0
        self.wire_bits = 0
        self.payload_bits = 0
        self.logical_messages = 0
        self.messages_by_tag: Dict[str, int] = {}
        self.bits_by_tag: Dict[str, int] = {}

    # -- submit-time: encode, transcode, annotate ---------------------------
    def prepare(self, message: Message) -> Message:
        """Encode (and, in process, transcode) one logical message at
        submit time.

        Runs atomically when the message enters the engine — before the
        fault layer sees it — so the encoder and decoder interning
        tables advance in lockstep even if the message is later dropped:
        this models reliable, ordered delivery *below* the message layer
        (as TCP provides), where channel codec state survives
        application-level loss.  With ``keep_bytes`` the decoder tables
        live at the receiver, which decodes the shipped bytes.

        A payload the codec cannot encode raises :class:`TypeError` at
        the sender, with the channel's interning table left as it was.
        """
        channel = (message.src, message.dst)
        codec = self._channels.get(channel)
        if codec is None:
            codec = self._channels[channel] = self._fmt.WireCodecV2(self.group)
        tag_dict = self._tag_ids.setdefault(channel, {})
        tag_id = tag_dict.get(message.tag)
        tag_dict_bytes = 0
        if tag_id is None:
            tag_id = len(tag_dict)
            tag_dict[message.tag] = tag_id
            # First use of this tag on this channel ships the string:
            # 1-byte id + 1-byte length + UTF-8 tag.
            tag_dict_bytes = 2 + len(message.tag.encode("utf-8"))

        mark = codec.intern_mark()
        try:
            encoded = codec.encode(message.payload)
        except TypeError as exc:
            codec.intern_rollback(mark)
            raise TypeError(
                f"P{message.src} -> P{message.dst} {message.tag!r}: {exc}"
            ) from exc

        self._digest.update(encoded)
        channel_digest = self._channel_digests.get(channel)
        if channel_digest is None:
            channel_digest = self._channel_digests[channel] = hashlib.sha256()
        channel_digest.update(encoded)
        payload = message.payload
        if self.group.wire_faithful and not self.keep_bytes:
            # The receiver observes exactly what the bytes carry.
            payload = codec.decode(encoded)
        info = WireInfo(
            payload_bits=8 * (len(encoded) + tag_dict_bytes),
            frames=self._fmt.fragment_count(message.payload),
            encoded_len=len(encoded),
            tag_id=tag_id,
            encoded=encoded if self.keep_bytes else None,
        )
        return replace(message, payload=payload, wire=info)

    # -- flush-time: envelope accounting ------------------------------------
    def finalize(self, message: Message, batched: bool,
                 first_in_batch: bool = True) -> Message:
        """Assign the final measured wire size to a prepared message.

        Framed alone, each of the payload's ``frames`` fragments pays its
        own envelope and per-message header.  Batched, a logical
        message pays only a small per-record header; the batch header
        and single envelope are attributed to the first message of its
        (sender, receiver, round) group.
        """
        info = message.wire
        if info is None or info.finalized:
            return message
        if batched:
            overhead = self._record_header_bytes(info)
            wire_messages = 0
            if first_in_batch:
                overhead += ENVELOPE_BYTES + self._batch_header_bytes(
                    message.round_sent
                )
                wire_messages = 1
        else:
            per_frame = ENVELOPE_BYTES + self._message_header_bytes(
                info, message.round_sent
            )
            overhead = info.frames * per_frame
            wire_messages = info.frames
        size_bits = info.payload_bits + 8 * overhead
        self.logical_messages += 1
        self.wire_messages += wire_messages
        self.wire_bits += size_bits
        self.payload_bits += info.payload_bits
        self.messages_by_tag[message.tag] = (
            self.messages_by_tag.get(message.tag, 0) + wire_messages
        )
        self.bits_by_tag[message.tag] = (
            self.bits_by_tag.get(message.tag, 0) + size_bits
        )
        return replace(
            message,
            size_bits=size_bits,
            wire=replace(info, finalized=True, wire_messages=wire_messages),
        )

    def _message_header_bytes(self, info: WireInfo, round_sent: int) -> int:
        return (
            len(self._fmt.encode_varint(info.tag_id))
            + len(self._fmt.encode_varint(round_sent))
            + len(self._fmt.encode_varint(max(1, info.encoded_len)))
        )

    def _record_header_bytes(self, info: WireInfo) -> int:
        return len(self._fmt.encode_varint(info.tag_id)) + len(
            self._fmt.encode_varint(max(1, info.encoded_len))
        )

    def _batch_header_bytes(self, round_sent: int) -> int:
        return len(self._fmt.encode_varint(round_sent)) + BATCH_COUNT_BYTES

    # -- reconnect epochs ----------------------------------------------------
    def reset_channel(self, src: int, dst: int) -> None:
        """Drop one directed channel's codec state (interning tables and
        tag dictionary) so the next message starts a fresh, self-
        contained stream.

        The socket transport calls this when the peer at the other end
        of the channel reconnects: its decoder tables died with the old
        connection, so the encoder must not reference ids interned on
        the previous stream.  The channel's digest accumulator is kept —
        it spans the whole run, re-encodings included.
        """
        self._channels.pop((src, dst), None)
        self._tag_ids.pop((src, dst), None)

    # -- results -------------------------------------------------------------
    @property
    def digest(self) -> str:
        """SHA-256 over encoded payloads in submit order (envelope-free)."""
        return self._digest.hexdigest()

    def channel_digests(self) -> Dict[str, str]:
        """Per-directed-channel payload digests, keyed ``"src>dst"``."""
        return {
            f"{src}>{dst}": digest.hexdigest()
            for (src, dst), digest in self._channel_digests.items()
        }

    def stats(self) -> WireStats:
        return WireStats(
            digest=self.digest,
            wire_messages=self.wire_messages,
            wire_bits=self.wire_bits,
            payload_bits=self.payload_bits,
            messages_by_tag=dict(self.messages_by_tag),
            bits_by_tag=dict(self.bits_by_tag),
            logical_messages=self.logical_messages,
            channel_digests=self.channel_digests(),
        )
