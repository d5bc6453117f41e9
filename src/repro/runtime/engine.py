"""Synchronous-round protocol scheduler.

Execution model (standard synchronous network):

* Within a round every runnable party executes until it blocks on a
  :class:`~repro.runtime.channels.Recv` that cannot be satisfied from its
  mailbox, or finishes.
* Messages sent during round ``r`` are delivered to mailboxes at the
  round boundary and become receivable in round ``r+1``.
* The engine's final round count is therefore the protocol's
  communication-round complexity, the quantity paper Section VI-B
  analyzes (``O(n)`` for the framework).

Each party runs through a :class:`~repro.runtime.driver.PartyDriver`,
the one a socket-transport party process uses too: it meters the
party's group operations on its own counter (all simulated parties
share one group instance) and owns the send prologue, journal replay
and phase snapshots.  The engine keeps only the lockstep schedule.

Fault tolerance (optional, both default to ``None``):

* a :class:`~repro.runtime.faults.FaultInjector` perturbs outgoing
  messages — crash the sender, drop/stall/delay/duplicate/corrupt the
  message — with every decision deterministic for a given seed;
* a :class:`~repro.runtime.supervisor.Supervisor` watches quiescent
  states: it retransmits messages the engine knows were lost (bounded
  retries with backoff) and otherwise raises a typed
  :class:`~repro.runtime.errors.PartyTimeout` naming the culprit,
  instead of the bare :class:`DeadlockError` an unsupervised engine
  falls back to.

Crashed parties are tracked separately from finished ones: the engine
keeps scheduling the survivors, and termination requires every party to
be finished *or* crashed (parties blocked on a dead peer are the
supervisor's problem).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.groups.base import Group
from repro.runtime.channels import Mailbox, Message, Recv, WireTransport
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.driver import Effect, PartyDriver
from repro.runtime.errors import DeadlockError, PartyCrashed, ProtocolError
from repro.runtime.party import Party
from repro.runtime.transcript import Transcript


@dataclass
class LostMessage:
    """A message the fault layer swallowed, kept for retransmission."""

    message: Message
    attempts: int = 0      # retransmissions performed so far
    healed: bool = False   # a retransmit made it into a mailbox


class Engine:
    """Runs a set of parties to completion over a simulated network."""

    def __init__(
        self,
        metered_groups: Optional[Iterable[Group]] = None,
        max_rounds: int = 1_000_000,
        worker_pool: Optional[Any] = None,
        faults: Optional[Any] = None,
        supervisor: Optional[Any] = None,
        wire: Optional[WireTransport] = None,
        checkpoints: Optional[Any] = None,
    ):
        # A repro.runtime.parallel.WorkerPool (or None).  The engine only
        # holds it; parties decide which stages to fan out through it.
        self.worker_pool = worker_pool
        self.faults = faults
        self.supervisor = supervisor
        # Measured-bytes wire path; None only for protocols without a
        # group codec (the secret-sharing baseline declares its sizes).
        self.wire = wire
        # A repro.runtime.checkpoint.CheckpointManager (or None): durable
        # per-party journals + snapshots, and the kill-and-rejoin path.
        self.checkpoints = checkpoints
        self.parties: Dict[int, Party] = {}
        self.transcript = Transcript()
        self.round = 0
        self.max_rounds = max_rounds
        self._mailboxes: Dict[int, Mailbox] = {}
        self._outbox: List[Message] = []
        self._drivers: Dict[int, PartyDriver] = {}
        self._waiting: Dict[int, Recv] = {}
        self._waiting_since: Dict[int, int] = {}
        # Parties that yielded NextRound, keyed to the round they paused
        # in; resumed unconditionally once the round advances past it.
        self._paused: Dict[int, int] = {}
        self._finished: Dict[int, bool] = {}
        self._crashed: Dict[int, Optional[str]] = {}
        self._metered_groups = list(metered_groups or [])
        if wire is not None:
            self.transcript.meta["wire_coalesce"] = wire.coalesce
        # Future deliveries: (round, sequence, message) min-heap fed by
        # delay faults and supervisor retransmits.
        self._scheduled: List[Tuple[int, int, Message]] = []
        self._sequence = itertools.count()
        self._lost: List[LostMessage] = []

    # -- setup -----------------------------------------------------------------
    def add_party(self, party: Party) -> None:
        if party.party_id in self.parties:
            raise ValueError(f"duplicate party id {party.party_id}")
        party._engine = self
        self.parties[party.party_id] = party
        self._mailboxes[party.party_id] = Mailbox(owner=party.party_id)
        self._finished[party.party_id] = False
        if self.checkpoints is not None:
            self.checkpoints.register_party(party)

    def add_parties(self, parties: Iterable[Party]) -> None:
        for party in parties:
            self.add_party(party)

    # -- fault/supervision introspection ---------------------------------------
    @property
    def crashed(self) -> Dict[int, Optional[str]]:
        """Dead parties and the phase they died in."""
        return dict(self._crashed)

    def blocked_receives(self) -> Dict[int, Recv]:
        """Live, unfinished parties and the receive each is stuck on."""
        return {
            pid: want
            for pid, want in self._waiting.items()
            if not self._finished[pid] and pid not in self._crashed
        }

    def waiting_since(self, party_id: int) -> int:
        """The round at which ``party_id`` began its current wait."""
        return self._waiting_since.get(party_id, self.round)

    def find_lost_message(self, dst: int, want: Recv) -> Optional[LostMessage]:
        """The oldest unhealed lost message satisfying ``want`` at ``dst``."""
        for lost in self._lost:
            if lost.healed or lost.message.dst != dst:
                continue
            if want.matches(lost.message):
                return lost
        return None

    def retransmit(self, lost: LostMessage, deliver_round: int) -> None:
        """Re-send a lost message (supervisor-driven, bounded by caller).

        The copy passes through the fault injector again, so a stalled
        channel swallows retries too while a transient drop heals.
        """
        lost.attempts += 1
        message = lost.message
        if self.faults is not None:
            verdict = self.faults.on_send(message, self.round)
            if verdict.crashed or verdict.lost:
                return  # still down; attempts counter keeps this bounded
            for scheduled_round, copy in verdict.deliveries:
                self._schedule(copy, max(deliver_round, scheduled_round or 0))
        else:  # pragma: no cover - retransmits only exist under injection
            self._schedule(message, deliver_round)
        lost.healed = True

    def _schedule(self, message: Message, deliver_round: int) -> None:
        heapq.heappush(
            self._scheduled, (deliver_round, next(self._sequence), message)
        )

    # -- messaging (called by Party.send) -----------------------------------------
    def submit(self, src: int, dst: int, tag: str, payload: Any, size_bits: int) -> None:
        if dst not in self.parties:
            raise ProtocolError(f"party {src} sent to unknown party {dst}")
        message = self._drivers[src].prepare_send(
            dst, tag, payload, size_bits, self.round
        )
        if message is None:
            return  # replayed: reached the wire before the death
        if self.faults is not None:
            verdict = self.faults.on_send(message, self.round)
            if verdict.crashed:
                # An injector without the driver's crash lookahead still
                # unwinds the sender here.
                raise PartyCrashed(
                    src, phase=self.faults.phase_of(tag),
                    restart=getattr(verdict, "restart", False),
                )
            if self.wire is not None:
                # Under injection every logical message frames alone:
                # retransmits and duplicates need standalone envelopes,
                # so coalescing is bypassed.
                message = self.wire.finalize(message, batched=False)
            self._record_sent(message)
            if verdict.lost:
                self._lost.append(LostMessage(message=message))
                return
            for deliver_round, copy in verdict.deliveries:
                if self.wire is not None:
                    # Copies were taken before finalize; carry the
                    # measured size (corrupted payloads keep theirs).
                    copy = replace(
                        copy, size_bits=message.size_bits, wire=message.wire
                    )
                if deliver_round is None:
                    self._outbox.append(copy)
                else:
                    self._schedule(copy, deliver_round)
            return
        if self.wire is not None and self.wire.coalesce:
            # Accounting is deferred to the round-boundary flush, where
            # (sender, receiver) batches are known.
            self._outbox.append(message)
            return
        if self.wire is not None:
            message = self.wire.finalize(message, batched=False)
        self._outbox.append(message)
        self._record_sent(message)

    def _record_sent(self, message: Message) -> None:
        """Record one sent logical message (transcript + sender metrics)."""
        frames = message.wire.wire_messages if message.wire is not None else 1
        self.transcript.record(
            message.round_sent, message.src, message.dst, message.tag,
            message.size_bits, frames=frames,
        )
        party = self.parties.get(message.src)
        if party is not None:
            party.metrics.record_send(message.size_bits)

    def _account_delivery(self, message: Message) -> Message:
        """Credit the receiver at delivery time (with a wire only)."""
        party = self.parties.get(message.dst)
        if party is not None:
            party.metrics.record_receive(message.size_bits)
        return replace(message, accounted=True)

    # -- execution ---------------------------------------------------------------
    def run(self) -> Dict[int, Any]:
        """Run all parties to completion; return outputs keyed by party id.

        Parties killed by an injected crash are excluded from the
        completion requirement; parties left waiting on them are handed
        to the supervisor (typed :class:`PartyTimeout`) or, without one,
        surface as :class:`DeadlockError`.
        """
        for party_id, party in self.parties.items():
            self._drivers[party_id] = self._driver(party)
        try:
            # Prime every generator to its first blocking point.
            for party_id in sorted(self.parties):
                self._advance(party_id)
            while not self._all_done():
                progressed = self._run_one_round()
                if self.round > self.max_rounds:
                    raise ProtocolError(f"exceeded max_rounds={self.max_rounds}")
                if progressed:
                    continue
                if self._scheduled:
                    continue  # in-flight deliveries: let time pass
                if self.supervisor is not None and self.supervisor.on_quiescent(self):
                    continue
                raise DeadlockError(self.blocked_receives())
        finally:
            # Release party frames (and anything they hold) on every exit.
            for driver in self._drivers.values():
                driver.close()
        return {party_id: party.output for party_id, party in self.parties.items()}

    def _all_done(self) -> bool:
        return all(
            done or pid in self._crashed for pid, done in self._finished.items()
        )

    def _run_one_round(self) -> bool:
        """Deliver pending messages, then advance parties until quiescent.

        Returns True iff any party made progress this round.
        """
        delivered = self._flush_outbox()
        self.round += 1
        if self.checkpoints is not None:
            self.checkpoints.on_round(self.round)
        delivered += self._deliver_due()
        progressed = delivered > 0
        # Resume parties that yielded the previous round (streaming
        # senders).  Resumption is unconditional — a paused party always
        # makes the next round progress, so pausing cannot deadlock.
        due = sorted(pid for pid, since in self._paused.items() if since < self.round)
        for party_id in due:
            del self._paused[party_id]
            if self._finished[party_id] or party_id in self._crashed:
                continue
            self._advance(party_id)
            progressed = True
        # Keep advancing parties until nobody can move within this round.
        # A party may consume several already-delivered messages in one round,
        # but messages *sent* this round are only deliverable next round.
        moved = True
        while moved:
            moved = False
            for party_id in sorted(self.parties):
                if self._finished[party_id] or party_id in self._crashed:
                    continue
                if self._try_satisfy(party_id):
                    moved = True
                    progressed = True
        return progressed

    def _flush_outbox(self) -> int:
        count = len(self._outbox)
        first_seen: set = set()
        for message in self._outbox:
            if self.wire is not None:
                if message.wire is not None and not message.wire.finalized:
                    # Coalescing: this round's messages on one directed
                    # channel share one framed batch; the envelope is
                    # attributed to the first record of the batch.
                    channel = (message.src, message.dst)
                    message = self.wire.finalize(
                        message, batched=True,
                        first_in_batch=channel not in first_seen,
                    )
                    first_seen.add(channel)
                    self._record_sent(message)
                message = self._account_delivery(message)
            self._mailboxes[message.dst].deliver(message)
        self._outbox = []
        return count

    def _deliver_due(self) -> int:
        """Move scheduled (delayed / retransmitted) messages whose round
        has arrived into their mailboxes."""
        count = 0
        while self._scheduled and self._scheduled[0][0] <= self.round:
            _, _, message = heapq.heappop(self._scheduled)
            if self.wire is not None:
                message = self._account_delivery(message)
            self._mailboxes[message.dst].deliver(message)
            count += 1
        return count

    def _try_satisfy(self, party_id: int) -> bool:
        want = self._waiting.get(party_id)
        if want is None:
            return False
        message = self._mailboxes[party_id].try_take(want)
        if message is None:
            return False
        if self.checkpoints is not None:
            # Journal at the consumption point: exactly what a rejoin
            # replay must feed the rebuilt generator, in order.
            self.checkpoints.journal_receive(party_id, message, self.round)
        self._advance(party_id, message=message)
        return True

    def _driver(self, party: Party) -> PartyDriver:
        return PartyDriver(
            party, self._metered_groups, faults=self.faults,
            checkpoints=self.checkpoints, wire=self.wire,
        )

    def _advance(self, party_id: int, message: Optional[Message] = None) -> None:
        """Step one party's generator until it blocks or finishes."""
        try:
            effect = self._drivers[party_id].step(message)
        except PartyCrashed as crash:
            self._handle_crash(party_id, crash)
            return
        self._park(party_id, effect)

    def _park(self, party_id: int, effect: Effect) -> None:
        """Schedule a party by what it last yielded (None: finished)."""
        if isinstance(effect, Recv):
            self._waiting[party_id] = effect
            self._waiting_since[party_id] = self.round
            return
        self._waiting.pop(party_id, None)
        if effect is None:
            self._finished[party_id] = True
        else:
            self._paused[party_id] = self.round

    def _mark_crashed(self, party_id: int, phase: Optional[str]) -> None:
        self._crashed[party_id] = phase
        self._waiting.pop(party_id, None)

    # -- kill-and-rejoin ---------------------------------------------------------
    def _handle_crash(self, party_id: int, crash: PartyCrashed) -> None:
        """A party died at a send: rejoin it from its checkpoint when the
        fault allows a restart and durable state exists, else mark it
        crashed (blame and exclusion, the pre-checkpoint semantics)."""
        if (
            crash.restart
            and self.checkpoints is not None
            and self._rejoin(party_id, crash)
        ):
            return
        self._mark_crashed(party_id, crash.phase)

    def _rejoin(self, party_id: int, crash: PartyCrashed) -> bool:
        """Kill-and-rejoin: rebuild the party from durable state and
        replay it to its death point, synchronously, inside the crash
        handler — no engine round passes, so every other party's view
        (and the round structure) matches an uninterrupted run exactly.

        Returns False when no usable checkpoint exists; the caller then
        degrades to plain-crash handling.
        """
        old = self._drivers[party_id]
        try:
            plan = self.checkpoints.rejoin_plan(party_id)
        except CheckpointError:
            return False
        old.close()
        plan.party._engine = self
        self.parties[party_id] = plan.party
        driver = self._drivers[party_id] = self._driver(plan.party)
        self._waiting.pop(party_id, None)
        self._paused.pop(party_id, None)
        if self.supervisor is not None:
            note = getattr(self.supervisor, "note_rejoin", None)
            if note is not None:
                note(party_id, self.round)
        self.checkpoints.note_rejoin(party_id, self.round)
        try:
            self._park(party_id, driver.replay(plan, old.party.metrics))
        except PartyCrashed as again:
            # The re-issued (or a later live) send died too — e.g. a
            # kill_restart spec with count=2.  Every retry consumes one
            # spec match so recursion terminates; metrics were already
            # swapped to the carried object at the go-live transition.
            self._handle_crash(party_id, again)
        except CheckpointError:
            # The journal does not match a deterministic re-execution:
            # restore the first life's party object (its metrics are the
            # true record) and degrade to plain-crash handling.
            self.parties[party_id] = old.party
            self._mark_crashed(party_id, crash.phase)
        return True

    def note_phase(self, party: Party) -> None:
        """Phase-boundary hook from Party.set_phase: durable snapshot."""
        self._drivers[party.party_id].note_phase(self.round)
