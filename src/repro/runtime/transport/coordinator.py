"""Coordinator of the loopback TCP deployment transport.

Replaces the lockstep engine loop with event-driven delivery: the
coordinator listens on a loopback socket, has one OS process per party
forked by the run's warm :mod:`.launcher` (so every party's compute runs
on its own core, overlapped with every other party's compute and with
IO), authenticates each connection with a per-run session token, ships
each party its :class:`~repro.runtime.transport.frames.PartySpec`, and
then acts as a **pure star router**: a MSG frame from party *s* to party
*d* is forwarded verbatim — payload bytes untouched — while the
coordinator records the routing header into the run transcript.
Per-source routing tasks preserve per-channel FIFO order (TCP's
guarantee, extended across the star hop).

The wall-clock supervisor (:mod:`.deadlines`) converts missed deadlines
into the same typed :class:`~repro.runtime.errors.PartyTimeout` the
in-process supervisor raises, so the run's attempt state
(:class:`~repro.core.framework.Attempts`: exclude the blamed party,
harvest β from survivors, deterministic restart) is the in-process
runner's own.  ``kill_restart`` faults and real
process deaths (``SIGKILL``) are handled by respawning the party with a
bumped incarnation: the new process replays its durable journal,
reports its consumed-message watermarks, and the coordinator broadcasts
``PEER_REJOINED`` so surviving senders reset their encoder tables for
the new connection epoch and resend the unconsumed suffix of each
stream.
"""

from __future__ import annotations

import asyncio
import os
import pickle
# repro-lint: ignore[R-RNG] -- the session token is an *authentication*
# secret, not protocol randomness: it must come from OS entropy, never
# from the deterministic seeded RNG the transcript replays.
import secrets
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core.parties import INITIATOR_ID
from repro.runtime.channels import WireStats
from repro.runtime.errors import (
    PartyTimeout,
    ProtocolAbort,
    ProtocolError,
)
from repro.runtime.faults import FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.transcript import Transcript
from repro.runtime.transport import frames
from repro.runtime.transport.deadlines import WallClockSupervisor
from repro.runtime.transport.frames import (
    PartySpec,
    ResultBundle,
    TransportError,
    TransportSettings,
)
from repro.runtime.transport.launcher import Launcher, PartyProcess

#: Fault kinds applied at the *sender* (they kill the sending process).
SENDER_KINDS = ("crash", "kill_restart")

#: Set ``REPRO_TRANSPORT_DEBUG=1`` to trace coordinator-side lifecycle
#: events (connections, deaths, respawns) on stderr.
_DEBUG = bool(os.environ.get("REPRO_TRANSPORT_DEBUG"))


def _debug(text: str) -> None:
    if _DEBUG:
        print(f"[coord] {text}", file=sys.stderr, flush=True)


class _AttemptFailed(Exception):
    """Internal: carries the typed failure out of the event loop."""

    def __init__(self, failure: Exception):
        self.failure = failure


class _Connection:
    """One party's socket, plus its routing task."""

    def __init__(self, pid: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, incarnation: int):
        self.pid = pid
        self.reader = reader
        self.writer = writer
        self.incarnation = incarnation
        self.task: Optional[asyncio.Task] = None
        self.ready = incarnation == 0  # rejoins gate routing on READY

    def send(self, data: bytes) -> None:
        if not self.writer.is_closing():
            self.writer.write(data)

    def close(self) -> None:
        try:
            self.writer.close()
        # repro-lint: ignore[R-EXCEPT] -- best-effort socket close on a
        # possibly-dead peer; no protocol verdict can originate here.
        except Exception:
            pass


class Coordinator:
    """Runs one framework instance over spawned party processes."""

    def __init__(self, framework, fault_specs: Sequence[FaultSpec],
                 settings: TransportSettings):
        self.framework = framework
        self.config = framework.config
        self.fault_specs = list(fault_specs)
        self.settings = settings
        self.token = secrets.token_hex(16)

    # -- public entrypoint --------------------------------------------------

    def run(self, *, resume: bool = False,
            known_betas: Optional[Dict[int, int]] = None):
        return asyncio.run(self._run(resume=resume, known_betas=known_betas))

    async def _run(self, *, resume: bool,
                   known_betas: Optional[Dict[int, int]]):
        from repro.core.framework import Attempts, make_checkpoints

        # The coordinator creates the checkpoint store (and its master
        # key) *before* any party process starts, so concurrent children
        # never race on key creation; the children journal through their
        # own managers over the same directory.
        manager = make_checkpoints(self.config)
        self.framework.last_checkpoints = manager
        attempts = Attempts(self.config, self.framework._rng, known_betas)
        launcher: Optional[Launcher] = None
        try:
            if resume:
                # Journal replay is sync disk IO; keep the fresh event
                # loop responsive.
                await asyncio.get_running_loop().run_in_executor(
                    None, attempts.resume, manager
                )
            # One launcher forks the parties of every attempt; the run
            # ends only once it has reaped every party and exited.
            launcher = await Launcher.start(self.token)
            while True:
                run = _Attempt(self, launcher, attempts)
                try:
                    result = await run.execute()
                except (PartyTimeout, ProtocolAbort) as failure:
                    attempts.retry(failure, run.betas.get)
                    continue
                return attempts.stamp(result)
        finally:
            try:
                if launcher is not None:
                    code = await launcher.close()
                    _debug(f"party launcher exited with code {code}")
            finally:
                if manager is not None:
                    manager.close()


class _Attempt:
    """One distributed attempt: spawn, route, supervise, collect."""

    def __init__(self, coordinator: Coordinator, launcher: Launcher,
                 attempts):
        self.coord = coordinator
        self.launcher = launcher
        self.config = coordinator.config
        self.settings = coordinator.settings
        self.attempts = attempts  # the run's Attempts, fixed during this one
        self.active = list(attempts.active)
        self.attempt = attempts.attempt
        self.party_ids = [INITIATOR_ID] + self.active
        self.supervisor = WallClockSupervisor(coordinator.settings.timeout_s)
        attempts.supervisor = self.supervisor
        self.transcript = Transcript()
        self.connections: Dict[int, _Connection] = {}
        self.processes: Dict[int, PartyProcess] = {}
        self.incarnations: Dict[int, int] = {pid: 0 for pid in self.party_ids}
        self.bundles: Dict[int, ResultBundle] = {}
        self.betas: Dict[int, Optional[int]] = {}
        self._failure: Optional[Exception] = None
        self._done = asyncio.Event()
        # Startup barrier: parties launch staggered, and a MSG routed to
        # a not-yet-connected destination would be silently discarded —
        # so no party receives its SPEC (and hence sends nothing) until
        # every party of the attempt is connected.
        self._all_connected = asyncio.Event()
        self._respawning: set = set()
        self._connected_once: set = set()
        self._fault_deaths: Dict[int, int] = {}
        self._carried: Dict[int, PartyMetrics] = {}
        self._interrupted: Optional[str] = None
        self._fault_seed = _fork_seed(coordinator.framework._rng, self.attempt)

    # -- deterministic party construction inputs ---------------------------

    def _spec_for(self, pid: int, incarnation: int) -> PartySpec:
        sender = [s for s in self.coord.fault_specs
                  if s.party == pid and s.kind in SENDER_KINDS]
        # Receiver-side kinds follow the *destination*: the receiving
        # host applies them post-decode.  A spec without an explicit dst
        # is handed to every receiver; note its `count`/`after` windows
        # then tick per-receiver, not globally as in the engine — fault
        # matrices targeting the transport should pin `dst`.
        receiver = [s for s in self.coord.fault_specs
                    if s.kind not in SENDER_KINDS
                    and s.dst in (pid, None) and s.party != pid]
        return PartySpec(
            party_id=pid,
            config=self.config,
            # A fresh fork per spec: a respawn starts from the same state.
            rng=self.attempts.party_rng(pid),
            active_ids=list(self.active),
            attempt=self.attempt,
            incarnation=incarnation,
            run_gain_phase=not self.attempts.phase_two,
            known_beta=self.attempts.known_beta(pid),
            secret_input=self.coord.framework.secret_input(pid),
            sender_faults=sender,
            receiver_faults=receiver,
            faulted=bool(self.coord.fault_specs),
            fault_seed=self._fault_seed,
            prior_fault_deaths=self._fault_deaths.get(pid, 0),
            carried_metrics=self._carried.get(pid),
            settings=self.settings,
        )

    # -- process management -------------------------------------------------

    def _spawn(self, pid: int, incarnation: int) -> None:
        self.processes[pid] = self.launcher.spawn(
            f"{self._host}:{self._port}", pid, incarnation
        )
        self.incarnations[pid] = incarnation

    def _respawn(self, pid: int) -> None:
        """Bring a dead party back with a bumped incarnation."""
        old = self.processes.get(pid)
        if old is not None:
            old.kill()
        connection = self.connections.pop(pid, None)
        if connection is not None:
            connection.close()
        _debug(f"respawning P{pid} as incarnation "
               f"{self.incarnations[pid] + 1}")
        try:
            self._spawn(pid, self.incarnations[pid] + 1)
        except TransportError as exc:
            # A respawn that fails silently would strand the whole
            # attempt in a wait-for-rejoin that can never finish.
            self._fail(exc)

    # -- the attempt --------------------------------------------------------

    async def execute(self):
        server = await asyncio.start_server(
            self._on_connection, self.settings.host, self.settings.port
        )
        address = server.sockets[0].getsockname()
        self._host, self._port = address[0], address[1]
        loop = asyncio.get_running_loop()
        handled_signals = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self._on_signal, signal.Signals(signum).name
                )
                handled_signals.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                pass
        supervisor_task = asyncio.create_task(self._supervise())
        try:
            for pid in self.party_ids:
                self._spawn(pid, 0)
            await self._done.wait()
            if self._interrupted is not None:
                # Teardown (in finally) broadcasts SHUTDOWN: every party
                # writes a final checkpoint and closes its socket
                # cleanly instead of dying mid-round.
                raise KeyboardInterrupt(self._interrupted)
            if self.launcher.failure is not None:
                # Checked here too: the parties may all finish before
                # the next supervision tick notices the launcher failed.
                self._fail(self.launcher.failure)
            if self._failure is not None:
                raise _AttemptFailed(self._failure)
            return self._assemble()
        except _AttemptFailed as wrapped:
            await self._broadcast_json(frames.ABORT, {
                "error": str(wrapped.failure),
                "blamed": getattr(wrapped.failure, "blamed", None),
            })
            raise wrapped.failure from None
        finally:
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            supervisor_task.cancel()
            await self._teardown(server)

    def _on_signal(self, name: str) -> None:
        self._interrupt(name)

    def _interrupt(self, reason: str) -> None:
        """Single writer of ``_interrupted`` (signal handler and BYE
        routing both land here); the first cause wins, since a party's
        BYE usually races our own SIGINT callback for the same Ctrl-C."""
        if self._interrupted is None:
            self._interrupted = reason
        self._done.set()

    async def _teardown(self, server: asyncio.AbstractServer) -> None:
        await self._broadcast_json(frames.SHUTDOWN, {})
        for connection in self.connections.values():
            if connection.task is not None:
                connection.task.cancel()
            connection.close()
        server.close()
        try:
            await server.wait_closed()
        # repro-lint: ignore[R-EXCEPT] -- teardown after the verdict is
        # already decided; a listener-close error changes nothing.
        except Exception:
            pass
        for process in self.processes.values():
            try:
                await asyncio.wait_for(
                    process.wait(), timeout=2 * frames.TICK_S + 1.0
                )
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

    async def _broadcast_json(self, ftype: int,
                              payload: Dict[str, Any]) -> None:
        data = frames.pack_json(ftype, payload)
        for connection in list(self.connections.values()):
            connection.send(data)
        await self._drain_all()

    async def _drain_all(self) -> None:
        for connection in list(self.connections.values()):
            try:
                await connection.writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    # -- handshake ----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            ftype, body = await asyncio.wait_for(
                frames.read_frame(reader), timeout=self.settings.timeout_s
            )
            if ftype != frames.HELLO:
                raise TransportError("connection did not open with HELLO")
            hello = frames.decode_json(body)
            if hello.get("token") != self.coord.token:
                raise TransportError("bad session token")
            pid = int(hello["party"])
            incarnation = int(hello.get("incarnation", 0))
            if pid not in self.party_ids:
                raise TransportError(f"unknown party {pid}")
            if incarnation != self.incarnations.get(pid, 0):
                raise TransportError(
                    f"party {pid} connected with stale incarnation "
                    f"{incarnation}"
                )
        except (TransportError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, ValueError, KeyError):
            writer.close()
            return
        _debug(f"P{pid} connected (incarnation {incarnation})")
        connection = _Connection(pid, reader, writer, incarnation)
        self.connections[pid] = connection
        self._respawning.discard(pid)
        self._connected_once.add(pid)
        connection.send(frames.pack_json(frames.WELCOME, {
            "ok": True, "attempt": self.attempt,
        }))
        if self._all_connected.is_set():
            self._start(connection)  # a rejoin: the attempt is running
            return
        if all(p in self.connections for p in self.party_ids):
            # The barrier falls.  Every party gets its SPEC in this one
            # step, before any routing task runs: a handler woken
            # through the event would send its SPEC only some loop turns
            # later, and a fast peer's first MSG could overtake it.
            self._all_connected.set()
            for other in list(self.connections.values()):
                self._start(other)
            return
        try:
            # Generous budget: party start-ups contend for CPU, and a
            # genuinely dead sibling is caught much earlier by
            # _check_processes.  This bound only reclaims the handler
            # when a sibling hangs *in startup* forever.
            await asyncio.wait_for(
                self._all_connected.wait(),
                timeout=60.0 + 4 * self.settings.timeout_s,
            )
        except asyncio.TimeoutError:
            # A sibling never came up; _check_processes will blame it.
            # Dropping this connection keeps the barrier honest.
            writer.close()
            self.connections.pop(pid, None)

    def _start(self, connection: _Connection) -> None:
        """Ship a connected party its spec and start routing its frames."""
        connection.send(frames.pack_pickle(
            frames.SPEC, self._spec_for(connection.pid, connection.incarnation)
        ))
        connection.task = asyncio.create_task(self._route_from(connection))

    # -- routing ------------------------------------------------------------

    async def _route_from(self, connection: _Connection) -> None:
        pid = connection.pid
        loop = asyncio.get_running_loop()
        try:
            while True:
                ftype, body = await frames.read_frame(connection.reader)
                self.supervisor.observe_frame(pid)
                self._dispatch(connection, ftype, body, loop.time())
                await self._drain_all()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            if self.connections.get(pid) is connection:
                await self._on_disconnect(connection)
        except TransportError as exc:
            self._fail(exc)
        except asyncio.CancelledError:
            raise

    def _dispatch(self, connection: _Connection, ftype: int, body: bytes,
                  now: float) -> None:
        pid = connection.pid
        if ftype == frames.MSG:
            header, _ = frames.split_msg(body)
            self._route_msg(connection, header, body)
            self.supervisor.note_progress(now)
        elif ftype == frames.STATUS:
            status = frames.decode_json(body)
            if "lost_from" in status:
                self.supervisor.note_lost(int(status["lost_from"]))
            else:
                waiting = status.get("waiting_src")
                self.supervisor.note_blocked(
                    pid,
                    int(waiting) if waiting is not None else None,
                    str(status.get("waiting_tag", "")),
                    str(status.get("phase", "")),
                    now,
                )
        elif ftype == frames.PHASE:
            pass  # liveness already observed; useful under a debugger
        elif ftype == frames.DONE:
            # repro-lint: ignore[R-PICKLE] -- DONE bundle from a party
            # process; its explicit encoding is the open transport
            # trust-boundary item in ROADMAP.md.
            bundle: ResultBundle = pickle.loads(body)
            self.bundles[bundle.party_id] = bundle
            if bundle.beta is not None:
                self.betas[bundle.party_id] = bundle.beta
            if all(p in self.bundles for p in self.party_ids):
                self._done.set()
        elif ftype == frames.ABORTED:
            info = frames.decode_json(body)
            blamed = info.get("blamed")
            self._fail(ProtocolAbort(
                str(info.get("error", "party aborted")),
                blamed=int(blamed) if blamed is not None else None,
                phase=info.get("phase"),
            ))
        elif ftype == frames.DYING:
            info = frames.decode_json(body)
            self._on_dying(connection, info)
        elif ftype == frames.READY:
            info = frames.decode_json(body)
            connection.ready = True
            self.supervisor.forgive(pid)
            self.supervisor.note_rejoin()
            broadcast = frames.pack_json(frames.PEER_REJOINED, {
                "party": pid,
                "incarnation": connection.incarnation,
                "watermarks": info.get("watermarks", {}),
            })
            for other in self.connections.values():
                if other.pid != pid:
                    other.send(broadcast)
        elif ftype == frames.RESEND:
            # repro-lint: ignore[R-PICKLE] -- RESEND record from a party
            # process; a routable plain header is the open transport
            # trust-boundary item in ROADMAP.md.
            record = pickle.loads(body)
            target = self.connections.get(int(record["dst"]))
            if target is not None:
                target.send(frames.pack_frame(frames.RESEND, body))
        elif ftype == frames.BETA:
            info = frames.decode_json(body)
            self.betas[pid] = info.get("beta")
        elif ftype == frames.BYE:
            info = frames.decode_json(body)
            self._on_bye(pid, info)

    def _route_msg(self, connection: _Connection, header: Dict[str, Any],
                   body: bytes) -> None:
        src = int(header["src"])
        dst = int(header["dst"])
        if src != connection.pid:
            raise TransportError(
                f"party {connection.pid} tried to forge a message from {src}"
            )
        self.transcript.record(
            int(header["round"]), src, dst, str(header["tag"]),
            int(header["size_bits"]),
            frames=int(header.get("wire_messages", 1)),
        )
        # A frame encoded for a previous incarnation's decoder tables is
        # undecodable by the rejoined process — drop it; the sender's
        # PEER_REJOINED handler resends the payload codec-free.
        if int(header.get("epoch", 0)) != self.incarnations.get(dst, 0):
            return
        target = self.connections.get(dst)
        if target is not None:
            target.send(frames.pack_frame(frames.MSG, body))

    # -- death, rejoin, failure --------------------------------------------

    def _on_dying(self, connection: _Connection, info: Dict[str, Any]) -> None:
        pid = connection.pid
        phase = info.get("phase")
        restart = bool(info.get("restart"))
        _debug(f"P{pid} dying (phase={phase}, restart={restart})")
        self.connections.pop(pid, None)
        connection.close()
        if not connection.ready:
            # A respawned life dies before READY only at its go-live
            # send, after replaying its journal: it rejoined too.
            self.supervisor.note_rejoin()
        if restart and self.config.checkpoint_dir is not None:
            self._fault_deaths[pid] = self._fault_deaths.get(pid, 0) + 1
            self._carried[pid] = PartyMetrics.from_dict(info["metrics"])
            self.supervisor.note_crashed(pid, phase, restarting=True)
            self._respawning.add(pid)
            self._respawn(pid)
            return
        # A plain crash can never complete the run — surface the same
        # typed timeout the in-process supervisor raises at quiescence.
        self._fail(PartyTimeout(pid, phase=phase))

    async def _on_disconnect(self, connection: _Connection) -> None:
        """EOF without DONE/DYING/BYE: the process actually died."""
        pid = connection.pid
        _debug(f"P{pid} disconnected without a word")
        if pid in self.bundles or self._failure is not None:
            return
        self.connections.pop(pid, None)
        process = self.processes.get(pid)
        if process is not None and process.returncode is None:
            try:
                await asyncio.wait_for(
                    process.wait(), timeout=self.settings.timeout_s
                )
            except asyncio.TimeoutError:
                pass
        if self.config.checkpoint_dir is not None:
            # SIGKILL'd mid-run but its journal survives: rejoin it.  Its
            # metrics died with it, so the respawn counts afresh.
            self._carried.pop(pid, None)
            self.supervisor.note_crashed(pid, None, restarting=True)
            self._respawning.add(pid)
            self._respawn(pid)
            return
        self._fail(PartyTimeout(pid, phase=None))

    def _on_bye(self, pid: int, info: Dict[str, Any]) -> None:
        connection = self.connections.pop(pid, None)
        if connection is not None:
            connection.close()
        if pid in self.bundles:
            return  # finished party released by a signal: harmless
        # A mid-run BYE means an operator signalled the party (Ctrl-C
        # hits the whole foreground process group, so this usually races
        # our own SIGINT callback).  That is an interruption of the run,
        # not the party's fault — it checkpointed and closed cleanly.
        self._interrupt(info.get("reason", "signal"))

    def _fail(self, failure: Exception) -> None:
        if self._failure is None:
            self._failure = failure
        self._done.set()

    # -- supervision --------------------------------------------------------

    async def _supervise(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(frames.TICK_S)
            failure: Optional[ProtocolError] = self.supervisor.check(loop.time())
            if failure is None:
                failure = self._check_processes()
            if failure is not None:
                # Last chance to harvest β for the recovery restart.
                harvest = frames.pack_json(frames.HARVEST, {})
                blamed = getattr(failure, "blamed", None)
                for connection in list(self.connections.values()):
                    if connection.pid != blamed:
                        connection.send(harvest)
                await self._drain_all()
                await asyncio.sleep(2 * frames.TICK_S)
                self._fail(failure)
                return

    def _check_processes(self) -> Optional[ProtocolError]:
        """Catch a child that died without a word (crash on startup,
        OOM-kill with no checkpoint dir): its exit would otherwise be
        invisible — no STATUS ever arrives, so no deadline expires.  A
        launcher that died or could not fork fails the attempt outright:
        the fault is the host's, not a party's, and nobody may be left
        to reap, kill or respawn a party."""
        if self.launcher.failure is not None:
            return self.launcher.failure
        for pid, process in self.processes.items():
            if (process.returncode is None
                    or pid in self.bundles
                    or pid in self.connections
                    or pid in self._respawning):
                continue
            if (self.config.checkpoint_dir is None
                    or pid not in self._connected_once):
                # Never even connected: respawning would loop forever on
                # a startup crash, so fail the attempt instead.
                return PartyTimeout(pid, phase=None)
        return None

    # -- result assembly ----------------------------------------------------

    def _assemble(self):
        from repro.core.framework import FrameworkResult

        initiator = self.bundles[INITIATOR_ID]
        participants = [self.bundles[j] for j in self.active]
        ranks = {b.party_id: b.rank for b in participants}
        betas = {b.party_id: b.beta for b in participants}
        metrics = {b.party_id: b.metrics for b in self.bundles.values()}
        return FrameworkResult(
            ranks=ranks,
            initiator_output=initiator.output,
            transcript=self.transcript,
            metrics=metrics,
            rounds=self.transcript.rounds,
            betas=betas,
            rejoins=self.supervisor.rejoins,
            wire_stats=_merge_wire_stats(list(self.bundles.values())),
        )


def _merge_wire_stats(bundles: List[ResultBundle]) -> WireStats:
    """Sum every party's outbound wire accounting into run totals.

    There is no global submit order across processes, so the legacy
    submit-order ``digest`` is empty; ``canonical_digest`` (per-channel
    digests hashed in channel order) is the scheduling-independent
    fingerprint and is directly comparable with an in-process run's.
    Each party's stats hold only the channels it sends on.
    """
    parts = [bundle.wire_stats for bundle in bundles]
    merged = WireStats.total(parts, digest="")
    for part in parts:
        merged.channel_digests.update(part.channel_digests)
    return merged


def _fork_seed(rng, attempt: int) -> int:
    """A deterministic integer seed for the hosts' fault-shim RNGs,
    drawn from a fork so the party streams are untouched."""
    from repro.core.framework import _fork

    fork = _fork(rng, f"transport-faults|{attempt}")
    draw = getattr(fork, "randrange", None)
    if callable(draw):
        return draw(2 ** 62)
    return attempt + 1


def run_distributed(framework, faults=None, *, resume: bool = False,
                    known_betas: Optional[Dict[int, int]] = None,
                    settings: Optional[TransportSettings] = None):
    """Run a :class:`~repro.core.framework.GroupRankingFramework` over
    the socket transport.  ``faults`` must be ``None`` or a sequence of
    :class:`~repro.runtime.faults.FaultSpec` — a live injector object
    cannot cross process boundaries."""
    if faults is not None and not isinstance(faults, (list, tuple)):
        raise ValueError(
            "transport='tcp' accepts faults only as a list of FaultSpec "
            "(a live injector cannot be shipped to party processes)"
        )
    specs = list(faults) if faults else []
    for spec in specs:
        if not isinstance(spec, FaultSpec):
            raise ValueError(f"not a FaultSpec: {spec!r}")
    if settings is None:
        timeout_s = max(5.0, float(framework.config.timeout_rounds))
        settings = TransportSettings(timeout_s=timeout_s)
    coordinator = Coordinator(framework, specs, settings)
    return coordinator.run(resume=resume, known_betas=known_betas)
