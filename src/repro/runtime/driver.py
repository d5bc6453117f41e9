"""One party's generator, driven without IO.

Both schedulers run every party through a :class:`PartyDriver`: the
lockstep :class:`~repro.runtime.engine.Engine` and the socket
transport's :class:`~repro.runtime.transport.host.PartyHost`.  The
scheduler decides when a party runs and what it is fed; the driver holds
the one copy of each rule about how it runs: stepping with the party's
counter attached, the send prologue (replay check-off, crash lookahead,
journal, encoding), kill-and-rejoin replay with the go-live swap to the
first life's metrics, and the phase-boundary snapshot.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Deque, Iterable, Optional, Tuple, Union

from repro.runtime.channels import Message, NextRound, Recv
from repro.runtime.checkpoint import CheckpointError, RejoinPlan
from repro.runtime.errors import PartyCrashed, ProtocolError
from repro.runtime.metrics import PartyMetrics

#: What a step returns: the effect the party yielded, None once finished.
Effect = Optional[Union[Recv, NextRound]]


class PartyDriver:
    """Steps one party's generator and runs its send prologue.

    ``faults`` (crash lookahead), ``checkpoints`` (send journal and
    snapshots) and ``wire`` (encoding) may each be ``None``.
    """

    def __init__(self, party: Any, metered_groups: Iterable[Any] = (), *,
                 faults: Any = None, checkpoints: Any = None,
                 wire: Any = None):
        self.party = party
        self.groups = list(metered_groups)
        self.faults = faults
        self.checkpoints = checkpoints
        self.wire = wire
        self.generator = party.protocol()
        # Mid-replay only: the journaled (dst, tag) sends still to check
        # off, and the first life's metrics to swap in at the go-live send.
        self._sends: Optional[Deque[Tuple[int, str]]] = None
        self._carried: Optional[PartyMetrics] = None

    @property
    def replaying(self) -> bool:
        return self._sends is not None

    def close(self) -> None:
        """Release the party's frame (and anything it holds)."""
        self.generator.close()

    def step(self, message: Optional[Message] = None) -> Effect:
        """Run the party until it yields, feeding it ``message``.  An
        injected death (:class:`PartyCrashed`) propagates to the
        scheduler, which rejoins the party or marks it crashed."""
        self._attach()
        try:
            effect = self.generator.send(message)
        except StopIteration:
            return None
        finally:
            for group in self.groups:
                group.attach_counter(None)
        if not isinstance(effect, (Recv, NextRound)):
            raise ProtocolError(
                f"party {self.party.party_id} yielded {effect!r}; parties "
                "may only yield Recv or NextRound"
            )
        return effect

    def _attach(self) -> None:
        for group in self.groups:
            group.attach_counter(self.party.metrics.ops)

    def prepare_send(self, dst: int, tag: str, payload: Any, size_bits: int,
                     round: int) -> Optional[Message]:
        """The prologue of one send; ``None`` for a replayed send, which
        the first life already put on the wire."""
        src = self.party.party_id
        if dst == src:
            raise ProtocolError(f"party {src} sent a message to itself")
        message = Message(
            src=src, dst=dst, tag=tag, payload=payload,
            size_bits=size_bits, round_sent=round,
        )
        if self._sends is not None:
            if self._sends:
                expected = self._sends.popleft()
                if expected != (dst, tag):
                    raise CheckpointError(
                        f"replay divergence: party {src} sent "
                        f"({dst}, {tag!r}) but its journal says {expected}"
                    )
                self.on_replayed_send(message)
                return None
            # Send journal exhausted: this is the send the first life
            # died on.  Go live and re-issue it for real.
            self._go_live(message)
        lookahead = getattr(self.faults, "crash_verdict", None)
        if lookahead is not None and lookahead(message):
            # A crash kills the sender before any bytes reach the wire:
            # commit the fault without journaling or encoding the send,
            # so the digest and interning tables never see it and a
            # rejoined twin encodes it exactly once.
            verdict = self.faults.on_send(message, round)
            raise PartyCrashed(
                src, phase=self.faults.phase_of(tag), restart=verdict.restart
            )
        if self.checkpoints is not None:
            self.checkpoints.journal_send(message)
        if self.wire is not None:
            # Encoded at submit time, so both ends' interning tables
            # advance in lockstep even if the message is later lost.
            message = self.wire.prepare(message)
        return message

    def on_replayed_send(self, message: Message) -> None:
        """Hook: a journaled send was checked off and suppressed."""

    def on_go_live(self, message: Message) -> None:
        """Hook: the first send past the journal, before its lookahead."""

    def replay(self, plan: RejoinPlan,
               carried: Optional[PartyMetrics] = None) -> Effect:
        """Drive this driver's party, rebuilt by ``plan``, to its first
        effect past the death point.

        Journaled receives are fed in order (already credited, so
        ``accounted``), round pauses the first life waited out are
        skipped, and journaled sends are checked off by
        :meth:`prepare_send`.  ``carried`` is the first life's metrics
        (``None``: the rebuilt party counts on its own).  Raises
        :class:`CheckpointError` when the journal does not match a
        deterministic re-execution.
        """
        self._sends, self._carried = plan.sends, carried
        pid = self.party.party_id
        received = iter(plan.received)
        feed: Optional[Message] = None
        while True:
            effect = self.step(feed)
            feed = None
            if not self.replaying:
                return effect
            if effect is None:
                raise CheckpointError(
                    f"party {pid} finished mid-replay; its journal does "
                    "not match a deterministic re-execution"
                )
            if isinstance(effect, NextRound):
                continue  # the first life already waited this out
            message = next(received, None)
            if message is None:
                raise CheckpointError(
                    f"party {pid} blocked on {effect!r} mid-replay with "
                    "no journaled message left"
                )
            if not effect.matches(message):
                raise CheckpointError(
                    f"replay divergence: party {pid} wants {effect!r} but "
                    f"its journal delivers ({message.src}, {message.tag!r})"
                )
            feed = replace(message, accounted=True)

    def _go_live(self, message: Message) -> None:
        """The death point, mid-step: the replayed prefix ran on scratch
        metrics, so carry the first life's forward (they cover it once)
        and re-attach, so ops later in this step land on them."""
        self._sends = None
        if self._carried is not None:
            self.party.metrics, self._carried = self._carried, None
            self._attach()
        if self.checkpoints is not None:
            self.checkpoints.finish_replay(self.party.party_id)
        self.on_go_live(message)

    def note_phase(self, round: int) -> bool:
        """Snapshot the party at a phase boundary; False while replaying,
        when the first life already took this snapshot."""
        if self.replaying:
            return False
        if self.checkpoints is not None:
            self.checkpoints.snapshot_party(self.party, round)
        return True
