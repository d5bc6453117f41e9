"""Party-side runtime of the loopback TCP deployment transport.

One party process hosts one protocol party.  The process
connects to the coordinator, authenticates with the session token,
receives its :class:`~repro.runtime.transport.frames.PartySpec`, builds
the party through the in-process framework's own constructor
(:func:`~repro.core.framework.make_party`: same RNG fork, same active
set), and then drives the party's generator directly — no
lockstep rounds: the generator runs until it blocks on a
:class:`~repro.runtime.channels.Recv` the local mailbox cannot satisfy,
at which point the process awaits the socket.  Compute in one party
overlaps IO (and every other party's compute) because each party is its
own OS process.

Equivalence with the lockstep engine is by construction, not by luck:

* **Bytes** — outgoing payloads pass through the same
  :class:`~repro.runtime.channels.WireTransport` submit path
  (encode, envelope accounting) and the *encoded bytes themselves* ship
  in the MSG frame, so each directed channel's byte stream — and
  therefore its payload digest — is identical to the in-process run's.
* **Ops** — the sender's counter is attached during generator steps
  only, so the encode lands on the sender (as in the engine).  The
  sender does not transcode: the receiver's decode of the shipped bytes
  is the message's one decode, and it runs outside any step, unmetered.
  Decoding performs no metered group operation (membership checks are
  outside the paper's cost model), so per-party group-operation counts
  equal the engine's; only the membership-memo hit/miss tallies differ
  (each process keeps its own memo, and the engine also tallies its
  transcode's checks).
* **Values** — wildcard receives are delivered in ascending-sender
  order (:class:`OrderedMailbox`), matching the deterministic policy of
  the lockstep mailbox, so order-sensitive RNG draws (the initiator's
  per-requester ρ_j) bind to the same senders.

Faults: specs whose *sender* is this party and whose kind is a crash
(``crash`` / ``kill_restart``) fire at the send point, exactly like the
engine — the process notifies the coordinator (``DYING``) and exits.
All other kinds are applied by the *receiver* after decoding, so the
channel codec state stays in lockstep (TCP delivered the bytes; the
application-level fault eats the message above the codec).  Dropped
messages are re-offered through the injector with backoff up to
``config.max_retries`` times (the wall-clock analogue of supervisor
retransmits — transient drops heal, stalls exhaust their retries and
are reported for blame).

The party runs through the same :class:`~repro.runtime.driver.PartyDriver`
as under the engine: stepping, the send prologue, replay and phase
snapshots are the driver's; this module is only the asyncio shell around
it (frames, the mailbox, receiver-side faults, resends, checkpoint
offloads).

Kill-and-rejoin: a dying party ships its metrics in the ``DYING`` frame.
The respawned incarnation replays its journal through the driver (which
swaps those metrics in at the go-live send) and announces its
consumed-message watermarks, and peers resend the unconsumed suffix of
each stream out-of-band while resetting their encoder tables for the
new connection epoch.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pickle
import signal
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.framework import make_checkpoints, make_party
from repro.core.parties import INITIATOR_ID, phase_of_tag
from repro.math.rng import SeededRNG
from repro.runtime.channels import Message, NextRound, Recv, WireTransport
from repro.runtime.checkpoint import CheckpointError, CheckpointManager
from repro.runtime.driver import PartyDriver
from repro.runtime.errors import PartyCrashed, ProtocolAbort, ProtocolError
from repro.runtime.faults import FaultInjector
from repro.runtime.transport import frames
from repro.runtime.transport.frames import PartySpec, TransportError, ResultBundle
from repro.runtime.wire import WireCodecV2

#: Exit code of a fault-injected process death (the coordinator treats
#: any exit after a DYING frame as intentional; this just makes logs
#: legible).
EXIT_FAULT_DEATH = 70

#: Set ``REPRO_TRANSPORT_DEBUG=1`` to trace every host's frame handling
#: and mailbox activity on stderr (all party processes inherit it).
_DEBUG = bool(os.environ.get("REPRO_TRANSPORT_DEBUG"))


def _debug(pid: int, text: str) -> None:
    if _DEBUG:
        import sys

        print(f"[host {pid}] {text}", file=sys.stderr, flush=True)


class _GracefulExit(Exception):
    """SIGINT/SIGTERM: checkpoint, say goodbye, exit cleanly."""


class _TransportAbort(Exception):
    """The coordinator tore the run down (or the connection died)."""


class OrderedMailbox:
    """Per-party inbox: FIFO per ``(src, tag)``, deterministic wildcard.

    A wildcard receive is satisfied in ascending sender order: the next
    *fresh* message handed out is always from the lowest-numbered
    expected sender not yet served for that tag, even if faster peers'
    messages arrived first.  This mirrors the lockstep engine, where all
    of a round's messages are buffered before the initiator's wildcard
    recv runs and the mailbox picks the lowest-numbered sender.
    Duplicate copies (senders already served once) are handed out
    whenever present — protocol code discards them before touching any
    state, so their ordering is immaterial.
    """

    def __init__(self, owner: int, expected: Set[int]):
        self.owner = owner
        self.expected = set(expected) - {owner}
        self._queues: Dict[Tuple[int, str], Deque[Message]] = {}
        self._fresh: Dict[str, Set[int]] = {}

    def deliver(self, message: Message) -> None:
        if message.dst != self.owner:
            raise ProtocolError(
                f"message for {message.dst} delivered to mailbox of {self.owner}"
            )
        key = (message.src, message.tag)
        self._queues.setdefault(key, deque()).append(message)

    def next_expected(self, tag: str) -> Optional[int]:
        """The sender a wildcard receive for ``tag`` is waiting on."""
        fresh = self._fresh.get(tag, set())
        remaining = sorted(self.expected - fresh)
        return remaining[0] if remaining else None

    def try_take(self, want: Recv) -> Optional[Message]:
        if want.src is not None:
            queue = self._queues.get((want.src, want.tag))
            if queue:
                return queue.popleft()
            return None
        fresh = self._fresh.setdefault(want.tag, set())
        for src in sorted(fresh):
            queue = self._queues.get((src, want.tag))
            if queue:
                return queue.popleft()  # duplicate: order immaterial
        remaining = sorted(self.expected - fresh)
        if remaining:
            queue = self._queues.get((remaining[0], want.tag))
            if queue:
                fresh.add(remaining[0])
                return queue.popleft()
        return None

    def pending(self) -> List[Message]:
        """Delivered messages no receive has taken yet."""
        return [message for queue in self._queues.values() for message in queue]


class _HostDriver(PartyDriver):
    """A respawned process's sender injector starts afresh; the hooks
    catch it up with the first life's: a commit per journaled send, and
    at the go-live send one per prior fault death (never journaled, and
    a one-shot ``kill_restart`` would otherwise re-fire every life)."""

    prior_deaths = 0

    def on_replayed_send(self, message: Message) -> None:
        if self.faults is not None:
            self.faults.on_send(message, message.round_sent)

    def on_go_live(self, message: Message) -> None:
        for _ in range(self.prior_deaths):
            self.faults.on_send(message, message.round_sent)


class PartyHost:
    """Drives one party's generator against the coordinator socket."""

    def __init__(self, spec: PartySpec, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.spec = spec
        self.config = spec.config
        self.pid = spec.party_id
        self.settings = spec.settings
        self.reader = reader
        self.writer = writer
        self.group = self.config.group
        # The spec RNG is positioned at the party's start; the rebuild
        # factory needs a *fresh* copy each call (rejoin restores the
        # journaled state on top), so keep the pickled form.
        self._rng_blob = pickle.dumps(spec.rng)
        self.party: Any = None
        self.driver: Optional[_HostDriver] = None
        self.mailbox = OrderedMailbox(
            self.pid, set(spec.active_ids) | {INITIATOR_ID}
        )
        self.manager: Optional[CheckpointManager] = None
        self.wire = WireTransport(self.group, keep_bytes=True)
        self.sender_faults: Optional[FaultInjector] = None
        if spec.sender_faults:
            self.sender_faults = FaultInjector(
                list(spec.sender_faults),
                rng=SeededRNG(spec.fault_seed).fork(f"send|{self.pid}"),
                phase_of=phase_of_tag,
            )
        self.receiver_faults: Optional[FaultInjector] = None
        if spec.receiver_faults:
            self.receiver_faults = FaultInjector(
                list(spec.receiver_faults),
                rng=SeededRNG(spec.fault_seed).fork(f"recv|{self.pid}"),
                phase_of=phase_of_tag,
            )
        self._wake = asyncio.Event()
        self._round = 0
        self._batch_seen: Set[Tuple[int, int]] = set()
        self._out_epoch: Dict[int, int] = {}
        self._in_codecs: Dict[Tuple[int, int], WireCodecV2] = {}
        # Everything sent this attempt, per (dst, tag) in send order —
        # the resend source when a peer rejoins.  Payloads are the
        # sender's own objects (the sender does not transcode), which
        # decode-equal what the MSG bytes carried and are never edited
        # after the send; tests/test_runtime_wire.py pins both.
        self._retained: Dict[Tuple[int, str], List[Tuple[Any, int, int]]] = {}
        self._stop_reason: Optional[str] = None
        self._abort_received = False
        self._connection_lost = False
        self._shutdown = False
        # Messages that arrive while checkpoint resume runs in the
        # executor, before ``self.party`` exists: buffered here and
        # flushed (in arrival order) once the party can be credited, so
        # receive metrics count every message exactly once.
        self._predelivered: List[Message] = []

    def _factory(self, party_id: int,
                 known_beta: Optional[int] = None) -> Any:
        """Build this spec's party; also the checkpoint manager's
        rebuild factory (``factory(pid)`` / ``factory(pid, beta)``)."""
        spec = self.spec
        # repro-lint: ignore[R-PICKLE] -- this process's own pickle of
        # the spec RNG, never bytes from a socket.
        rng = pickle.loads(self._rng_blob)
        return make_party(
            self.config, party_id, spec.secret_input, rng, spec.active_ids,
            run_gain_phase=spec.run_gain_phase,
            known_beta=spec.known_beta if known_beta is None else known_beta,
        )

    # -- engine-adapter surface (Party.send / Party.set_phase call these) --

    def submit(self, src: int, dst: int, tag: str, payload: Any,
               size_bits: int) -> None:
        message = self.driver.prepare_send(
            dst, tag, payload, size_bits, self._round
        )
        if message is None:
            return  # the first life already put this on the wire
        if self.sender_faults is not None:
            # Commit this message against the injector's match windows
            # (the engine runs every send through on_send); crash kinds
            # were already caught by the lookahead, so the verdict here
            # is always plain delivery.
            self.sender_faults.on_send(message, self._round)
        first = (dst, self._round) not in self._batch_seen
        self._batch_seen.add((dst, self._round))
        message = self.wire.finalize(
            message,
            batched=not self.spec.faulted,
            first_in_batch=first,
        )
        info = message.wire
        if info is None or info.encoded is None:
            # The driver's prologue encodes every live send (keep_bytes).
            raise ProtocolError(f"P{src} -> P{dst} {tag!r} left unencoded")
        self.party.metrics.record_send(message.size_bits)
        self._retained.setdefault((dst, tag), []).append(
            (message.payload, message.size_bits, self._round)
        )
        header = {
            "src": src, "dst": dst, "tag": tag, "round": self._round,
            # epoch: the destination's incarnation as this sender knows
            # it — the coordinator drops frames aimed at a dead epoch.
            # src_epoch: *this* sender's incarnation — the receiver keys
            # its decoder streams on it, so a rejoined sender's fresh
            # encoder never collides with the first life's decode state.
            "epoch": self._out_epoch.get(dst, 0),
            "src_epoch": self.spec.incarnation,
            "size_bits": message.size_bits, "payload_bits": info.payload_bits,
            "wire_messages": info.wire_messages,
        }
        self.writer.write(frames.pack_msg(header, info.encoded))

    def note_phase(self, party: Any) -> None:
        if self.driver.note_phase(self._round):  # False while replaying
            self._send_json(frames.PHASE, {
                "party": self.pid, "phase": party.phase, "round": self._round,
            })

    # -- inbound path -------------------------------------------------------

    def _handle_frame(self, ftype: int, body: bytes) -> None:
        if ftype == frames.MSG:
            header, encoded = frames.split_msg(body)
            self._on_wire_message(header, encoded)
        elif ftype == frames.RESEND:
            # repro-lint: ignore[R-PICKLE] -- RESEND record from a peer;
            # its codec encoding is the open transport trust-boundary
            # item in ROADMAP.md.
            record = pickle.loads(body)
            self._offer(Message(
                src=record["src"], dst=self.pid, tag=record["tag"],
                payload=record["payload"], size_bits=record["size_bits"],
                round_sent=record["round"], accounted=True,
            ))
        elif ftype == frames.PEER_REJOINED:
            self._on_peer_rejoined(frames.decode_json(body))
        elif ftype == frames.ABORT:
            self._abort_received = True
            self._wake.set()
        elif ftype == frames.SHUTDOWN:
            self._shutdown = True
            self._wake.set()
        elif ftype == frames.HARVEST:
            self._send_json(frames.BETA, {
                "party": self.pid,
                "beta": getattr(self.party, "beta_unsigned", None),
            })
        # Unknown types are ignored (forward compatibility).

    def _on_wire_message(self, header: Dict[str, Any], encoded: bytes) -> None:
        src = int(header["src"])
        epoch = int(header.get("src_epoch", 0))
        codec = self._in_codecs.get((src, epoch))
        if codec is None:
            codec = self._in_codecs[(src, epoch)] = WireCodecV2(self.group)
        # The message's one decode, and its membership gate: every raw
        # element passes deserialize → is_element.  Unmetered: no
        # counter is attached outside of generator steps.
        payload = codec.decode(encoded)
        self._offer(Message(
            src=src, dst=self.pid, tag=header["tag"], payload=payload,
            size_bits=int(header["size_bits"]),
            round_sent=int(header["round"]), accounted=True,
        ))

    def _offer(self, message: Message, attempt: int = 0) -> None:
        """Run one inbound message through the receiver-side fault shim."""
        if self.receiver_faults is None:
            self._deliver(message)
            return
        verdict = self.receiver_faults.on_send(message, self._round)
        if verdict.lost:
            if attempt < self.config.max_retries:
                # Wall-clock retransmit: re-offer through the injector
                # after a backoff, so transient drops heal and stalls
                # keep eating retries (as the in-process supervisor's
                # bounded retransmits do).
                backoff = max(
                    frames.TICK_S,
                    self.settings.timeout_s / (2 * (self.config.max_retries + 1)),
                )
                asyncio.get_running_loop().call_later(
                    backoff, self._offer, message, attempt + 1
                )
            else:
                self._send_json(frames.STATUS, {
                    "party": self.pid,
                    "phase": self.party.phase if self.party else "init",
                    "round": self._round,
                    "lost_from": message.src, "lost_tag": message.tag,
                })
            return
        for deliver_round, copy in verdict.deliveries:
            if deliver_round is None:
                self._deliver(copy)
            else:
                delta = max(1, deliver_round - message.round_sent)
                asyncio.get_running_loop().call_later(
                    delta * frames.ROUND_S, self._deliver, copy
                )

    def _deliver(self, message: Message) -> None:
        _debug(self.pid, f"deliver {message.src}->{message.dst} "
                         f"{message.tag} r={message.round_sent}")
        if self.party is None:
            # Checkpoint resume is still off in the executor; park the
            # message until _drive constructs the party and flushes.
            self._predelivered.append(message)
            return
        self.party.metrics.record_receive(message.size_bits)
        self.mailbox.deliver(message)
        self._wake.set()

    def _flush_predelivered(self) -> None:
        pending, self._predelivered = self._predelivered, []
        for message in pending:
            self._deliver(message)

    def _on_peer_rejoined(self, info: Dict[str, Any]) -> None:
        peer = int(info["party"])
        incarnation = int(info["incarnation"])
        watermarks = info.get("watermarks", {})
        if peer == self.pid:
            return
        # The peer's decoder tables died with its old connection: start
        # a fresh, self-contained stream for the new epoch.
        self.wire.reset_channel(self.pid, peer)
        self._out_epoch[peer] = incarnation
        for (dst, tag), sent in self._retained.items():
            if dst != peer:
                continue
            consumed = int(watermarks.get(f"{self.pid}:{tag}", 0))
            for payload, size_bits, round_sent in sent[consumed:]:
                self.writer.write(frames.pack_pickle(frames.RESEND, {
                    "src": self.pid, "dst": peer, "tag": tag,
                    "payload": payload, "size_bits": size_bits,
                    "round": round_sent,
                }))

    # -- generator driving --------------------------------------------------

    def _advance_round(self) -> None:
        self._round += 1
        self._batch_seen.clear()

    def _check_interrupts(self) -> None:
        if self._abort_received or self._connection_lost:
            raise _TransportAbort()
        if self._shutdown and self._stop_reason is None:
            # Coordinator teardown mid-protocol (its process was told to
            # stop): exit exactly like a direct signal — final snapshot,
            # BYE, clean close.
            self._request_stop("shutdown")
        if self._stop_reason is not None:
            raise _GracefulExit()

    async def _wait_for(self, want: Recv) -> Message:
        _debug(self.pid, f"blocked on src={want.src} tag={want.tag} "
                         f"(next_expected={self.mailbox.next_expected(want.tag)})")
        self._send_json(frames.STATUS, {
            "party": self.pid, "phase": self.party.phase,
            "round": self._round,
            "waiting_src": (
                want.src if want.src is not None
                else self.mailbox.next_expected(want.tag)
            ),
            "waiting_tag": want.tag,
        })
        await self._drain()
        while True:
            self._wake.clear()
            message = self.mailbox.try_take(want)
            if message is not None:
                return message
            self._check_interrupts()
            await self._wake.wait()

    # (SHUTDOWN while blocked lands here via _check_interrupts: the
    # reader task sets the flag and wakes the waiter.)

    # -- main ---------------------------------------------------------------

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self._request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread / unsupported platform
        self.manager = make_checkpoints(self.config)
        reader_task = asyncio.create_task(self._read_loop())
        try:
            return await self._drive()
        finally:
            reader_task.cancel()
            try:
                await reader_task
            # repro-lint: ignore[R-EXCEPT] -- reaping the cancelled
            # reader; _drive's own exception is already propagating.
            except (asyncio.CancelledError, Exception):
                pass
            if self.manager is not None:
                self.manager.close()
            try:
                self.writer.close()
            # repro-lint: ignore[R-EXCEPT] -- best-effort socket close;
            # the party's exit code is already decided.
            except Exception:
                pass

    async def _offload(self, func: Any, *args: Any) -> Any:
        """Run a thread-blocking checkpoint call off the event loop so
        the reader task keeps taking deliveries and control frames."""
        return await asyncio.get_running_loop().run_in_executor(
            None, func, *args
        )

    async def _drive(self) -> int:
        spec = self.spec
        if spec.incarnation > 0 and self.manager is None:
            self._send_json(frames.ABORTED, {
                "party": self.pid, "blamed": self.pid, "phase": "init",
                "error": "rejoin requested without a checkpoint dir",
            })
            await self._drain()
            return 1
        plan = None
        try:
            if spec.incarnation > 0:
                await self._offload(
                    self.manager.resume_attempt, spec.attempt, self._factory,
                    [self.pid],
                )
                plan = await self._offload(self.manager.rejoin_plan, self.pid)
                self.party = plan.party
                self._round = plan.watermark
            else:
                if self.manager is not None:
                    await self._offload(
                        self.manager.start_attempt, spec.attempt,
                        self._factory,
                    )
                self.party = self._factory(self.pid)
            self.party._engine = self
            self.driver = _HostDriver(
                self.party, [self.group], faults=self.sender_faults,
                checkpoints=self.manager, wire=self.wire,
            )
            if plan is None:
                self._flush_predelivered()
                if self.manager is not None:
                    await self._offload(
                        self.manager.register_party, self.party
                    )
                effect = self.driver.step()
            else:
                self.driver.prior_deaths = spec.prior_fault_deaths
                effect = self.driver.replay(plan, spec.carried_metrics)
                # After the go-live swap (credit the carried metrics) and
                # before the next await (later arrivals must not overtake).
                self._flush_predelivered()
                watermarks = await self._offload(
                    self.manager.consumed_watermarks, self.pid
                )
                self._send_json(frames.READY, {
                    "party": self.pid, "incarnation": spec.incarnation,
                    "watermarks": watermarks,
                })
            while effect is not None:
                await self._drain()
                self._check_interrupts()
                if isinstance(effect, NextRound):
                    self._advance_round()
                    effect = self.driver.step()
                    continue
                message = self.mailbox.try_take(effect)
                if message is None:
                    message = await self._wait_for(effect)
                    self._advance_round()
                if self.manager is not None:
                    await self._offload(
                        self.manager.journal_receive,
                        self.pid, message, self._round,
                    )
                effect = self.driver.step(message)
            return await self._finish()
        except PartyCrashed as crash:
            return await self._die(crash)
        except ProtocolAbort as abort:
            self._send_json(frames.ABORTED, {
                "party": self.pid, "blamed": abort.blamed,
                "phase": getattr(abort, "phase", None), "error": str(abort),
            })
            await self._drain()
            return 1
        except CheckpointError as exc:
            # A rejoin that cannot be replayed deterministically degrades
            # to a plain crash: the coordinator blames and excludes us.
            self._send_json(frames.ABORTED, {
                "party": self.pid, "blamed": self.pid,
                "phase": self.party.phase if self.party else "init",
                "error": f"checkpoint: {exc}",
            })
            await self._drain()
            return 1
        except _GracefulExit:
            return await self._graceful()
        except _TransportAbort:
            return 1
        finally:
            if self.driver is not None:
                self.driver.close()

    async def _finish(self) -> int:
        bundle = ResultBundle(
            party_id=self.pid,
            phase=self.party.phase,
            output=self.party.output,
            rank=getattr(self.party, "rank", None),
            beta=getattr(self.party, "beta_unsigned", None),
            metrics=self.party.metrics,
            rounds=self._round,
            wire_stats=self.wire.stats(),
        )
        self.writer.write(frames.pack_pickle(frames.DONE, bundle))
        await self._drain()
        # Stay connected until the coordinator releases us: peers may
        # still need resends, and HARVEST can arrive after our DONE.
        while not (self._shutdown or self._abort_received
                   or self._connection_lost):
            if self._stop_reason is not None:
                break
            self._wake.clear()
            if (self._shutdown or self._abort_received
                    or self._connection_lost):
                break
            await self._wake.wait()
        return 0

    async def _die(self, crash: PartyCrashed) -> int:
        # The next incarnation carries this life's metrics on, minus the
        # deliveries still unconsumed here: peers resend those to it.
        metrics = dataclasses.asdict(self.party.metrics)
        unconsumed = self.mailbox.pending()
        metrics["messages_received"] -= len(unconsumed)
        metrics["bits_received"] -= sum(m.size_bits for m in unconsumed)
        self._send_json(frames.DYING, {
            "party": self.pid,
            "restart": bool(getattr(crash, "restart", False)),
            "phase": getattr(crash, "phase", None),
            "metrics": metrics,
        })
        await self._drain()
        # Exiting with unread input resets the socket, which can discard
        # the notice before the coordinator reads it (the coordinator
        # then respawns this party as after a silent death, and the
        # fault fires again).  The coordinator closes the connection
        # once it has read the notice: wait for that EOF.
        await self._wait_closed()
        return EXIT_FAULT_DEATH

    async def _wait_closed(self) -> None:
        """Wait, at most one deadline, for the coordinator to close the
        connection."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.settings.timeout_s
        while not self._connection_lost:
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), deadline - loop.time()
                )
            except asyncio.TimeoutError:
                return

    async def _graceful(self) -> int:
        if self.manager is not None and self.party is not None:
            # Final durable checkpoint: a later --resume or rejoin picks
            # up from this boundary instead of losing the phase.
            await self._offload(
                self.manager.snapshot_party, self.party, self._round
            )
        self._send_json(frames.BYE, {
            "party": self.pid, "reason": self._stop_reason or "signal",
        })
        await self._drain()
        return 0

    # -- plumbing -----------------------------------------------------------

    def _request_stop(self, reason: str) -> None:
        """Single writer of ``_stop_reason`` (signal handlers and the
        shutdown-frame path both land here); the first reason wins so a
        SIGTERM racing a SHUTDOWN frame cannot rewrite the exit cause."""
        if self._stop_reason is None:
            self._stop_reason = reason
        self._wake.set()

    def _lose_connection(self) -> None:
        """Single writer of ``_connection_lost`` for every failure path
        (send, drain, reader EOF/decode), so the flag cannot race across
        task contexts; always wakes the main task."""
        self._connection_lost = True
        self._wake.set()

    def _send_json(self, ftype: int, payload: Dict[str, Any]) -> None:
        try:
            self.writer.write(frames.pack_json(ftype, payload))
        except (ConnectionError, RuntimeError):
            self._lose_connection()

    async def _drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self._lose_connection()

    async def _read_loop(self) -> None:
        try:
            while True:
                ftype, body = await frames.read_frame(self.reader)
                _debug(self.pid, f"frame type={ftype} len={len(body)}")
                self._handle_frame(ftype, body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._lose_connection()
        except asyncio.CancelledError:
            raise
        # repro-lint: ignore[R-EXCEPT] -- not swallowed: surfaced on
        # stderr and converted into a connection-lost wake-up.
        except Exception:
            # A frame we cannot process (decode failure, protocol bug)
            # must not strand the party in a silent wait-forever: surface
            # the traceback and fail the connection so the coordinator's
            # deadline machinery takes over.
            import traceback

            traceback.print_exc()
            self._lose_connection()


# ---------------------------------------------------------------------------
# party process entrypoint
# ---------------------------------------------------------------------------

async def _serve_async(host: str, port: int, party_id: int,
                       incarnation: int, token: str) -> int:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(frames.pack_json(frames.HELLO, {
        "party": party_id, "token": token, "incarnation": incarnation,
    }))
    await writer.drain()
    async def expect(wanted: int) -> bytes:
        ftype, body = await frames.read_frame(reader)
        if ftype != wanted:
            raise TransportError(f"expected frame type {wanted}, got {ftype}")
        return body

    await expect(frames.WELCOME)
    # repro-lint: ignore[R-PICKLE] -- SPEC from the coordinator; its
    # explicit encoding is the open transport trust-boundary item in
    # ROADMAP.md.
    spec: PartySpec = pickle.loads(await expect(frames.SPEC))
    from repro.math import backend

    with backend.use_backend(spec.config.backend):
        return await PartyHost(spec, reader, writer).run()


def serve_party(connect: str, party_id: int, incarnation: int = 0,
                token: Optional[str] = None) -> int:
    """Blocking body of one party process, which the launcher forks:
    connect to the coordinator at ``connect`` (``host:port``) and run
    one party.  The session token comes from ``REPRO_TRANSPORT_TOKEN``
    unless passed explicitly."""
    if token is None:
        token = os.environ.get("REPRO_TRANSPORT_TOKEN", "")
    host, _, port_text = connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise TransportError(
            f"coordinator address must be host:port, got {connect!r}"
        ) from exc
    try:
        return asyncio.run(
            _serve_async(host or "127.0.0.1", port, party_id, incarnation,
                         token)
        )
    except (ConnectionError, asyncio.IncompleteReadError):
        # The coordinator is gone (attempt torn down while this process
        # was starting): a respawn racing a teardown is routine, not a
        # crash worth a traceback.
        return 1
