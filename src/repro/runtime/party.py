"""Base class for protocol parties.

A party implements :meth:`Party.protocol` as a generator.  It yields
:class:`~repro.runtime.channels.Recv` effects to block on messages (the
engine sends the matching :class:`~repro.runtime.channels.Message` back
into the generator) and calls :meth:`Party.send` to emit messages.

Helper generators (:meth:`recv`, :meth:`recv_from_all`) keep protocol
code close to the paper's prose::

    def protocol(self):
        betas = yield from self.recv_from_all(self.other_ids, "beta-bits")
        ...
        self.send(0, "ranking", my_rank)
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.math.rng import RNG
from repro.runtime.channels import Message, NextRound, Recv
from repro.runtime.metrics import PartyMetrics


class Party:
    """One protocol participant with private state, an RNG and metrics."""

    def __init__(self, party_id: int, rng: RNG):
        self.party_id = party_id
        self.rng = rng
        self.metrics = PartyMetrics(party_id=party_id)
        self._engine = None  # set by Engine.add_party
        self.output: Any = None
        # Self-declared protocol phase, used by timeout/abort diagnostics
        # (a failure report names the phase the victim was blocked in).
        self.phase: str = "init"

    def set_phase(self, phase: str) -> None:
        """Record which named protocol phase this party is executing.

        Phase entry is also the durable-state hook: an engine with a
        checkpoint manager snapshots this party at every boundary, so a
        party killed mid-phase can be rebuilt from its last boundary and
        replayed forward from its journal.
        """
        self.phase = phase
        note = getattr(self._engine, "note_phase", None)
        if note is not None:
            note(self)

    def snapshot_state(self) -> Dict[str, Any]:
        """Durable state captured at phase boundaries (picklable).

        Concrete parties extend this with their protocol state (key
        shares, recovered betas, shuffle-chain position...).  ``rng_state``
        is ``None`` for non-replayable sources (:class:`SystemRNG`), in
        which case checkpoint rejoin degrades to plain-crash handling.
        """
        getstate = getattr(self.rng, "getstate", None)
        return {
            "role": "party",
            "party": self.party_id,
            "rng_state": getstate() if callable(getstate) else None,
        }

    # -- to be implemented by concrete parties -------------------------------
    def protocol(self) -> Generator[Recv, Message, None]:
        """The party's behaviour, as a generator of receive effects."""
        raise NotImplementedError

    # -- messaging helpers ------------------------------------------------------
    def send(self, dst: int, tag: str, payload: Any, size_bits: Optional[int] = None) -> None:
        """Emit a message on the secure channel to ``dst`` (non-blocking).

        Under a wire transport the message is accounted by its measured
        encoded size, known only inside the scheduler (with coalescing,
        only at the round-boundary flush).  ``size_bits`` is the declared
        size an engine without a wire accounts instead (the
        secret-sharing baseline); when omitted there, a structural
        estimate is used.
        """
        engine = self._engine
        if engine is None:
            raise RuntimeError("party is not attached to an engine")
        if engine.wire is not None:
            size_bits = 0
        elif size_bits is None:
            size_bits = estimate_size_bits(payload)
        engine.submit(self.party_id, dst, tag, payload, size_bits)

    def pause(self) -> Generator[NextRound, None, None]:
        """Yield the rest of this engine round; resume at the next one.

        Used by streaming senders to stagger chunk emissions across
        round boundaries so downstream hops overlap with them."""
        yield NextRound()

    def recv(self, src: Optional[int], tag: str) -> Generator[Recv, Message, Message]:
        """Block until one matching message arrives; return it."""
        message = yield Recv(src=src, tag=tag)
        if not message.accounted:
            # Under a wire transport the scheduler already credited this
            # receiver when the bytes were delivered to its mailbox.
            self.metrics.record_receive(message.size_bits)
        return message

    def recv_from_all(
        self, sources: Iterable[int], tag: str
    ) -> Generator[Recv, Message, Dict[int, Any]]:
        """Gather one ``tag`` message from each source; return payloads by src."""
        payloads: Dict[int, Any] = {}
        for src in sources:
            message = yield from self.recv(src, tag)
            payloads[src] = message.payload
        return payloads

    def broadcast(
        self, destinations: Iterable[int], tag: str, payload: Any,
        size_bits: Optional[int] = None,
    ) -> None:
        """Send the same payload to every destination (n point-to-point sends)."""
        for dst in destinations:
            self.send(dst, tag, payload, size_bits=size_bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.party_id})"


def estimate_size_bits(payload: Any) -> int:
    """Structural wire-size estimate for payloads without an explicit size.

    Integers count their bit length; containers sum their items.  Objects
    with a ``size_bits`` attribute use it.  Anything else costs one
    machine word — protocol code should pass explicit sizes for payloads
    whose size matters to the evaluation.
    """
    if payload is None:
        return 1
    size = getattr(payload, "size_bits", None)
    if isinstance(size, int):
        return size
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, (bytes, bytearray)):
        return 8 * len(payload)
    if isinstance(payload, str):
        return 8 * len(payload.encode())
    if isinstance(payload, dict):
        return sum(estimate_size_bits(v) for v in payload.values()) or 1
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_size_bits(v) for v in payload) or 1
    return 64
