"""Party launcher of the loopback TCP transport: one warm process forks
every party of a run.

A party started as its own interpreter pays for interpreter start-up and
the library's imports before it can dial the coordinator, once per
party.  The launcher pays that once per run.
:meth:`Launcher.start` runs a fresh ``sys.executable`` with the caller's
environment plus the run's session token.  The launcher imports the
party side (:mod:`repro.runtime.transport.host`) and answers each spawn
request with :func:`os.fork`: the child restores default signal
handling, keeps the inherited stdout/stderr, runs the unchanged
:func:`~repro.runtime.transport.host.serve_party` and exits with its
return code.

The launcher is single-threaded and runs no event loop: it blocks in
``select`` on its control socket and a SIGCHLD wake-up pipe.  It reports
each child's OS pid when it forks it and its exit code when it reaps
it.  A fork that fails is reported as such, and the coordinator fails
the attempt instead of blaming the party.  Kills go
through it too, because it owns each pid until it has reaped it (a pid
signalled from outside might by then name another process).  Ctrl-C
reaches the whole process group, so the launcher ignores SIGINT and
SIGTERM and leaves shutdown to the coordinator.  Once the coordinator
closes the control socket, the launcher kills and reaps any child still
alive and exits.  The coordinator waits for that exit, so every party's
CPU time and peak RSS land in the caller's ``RUSAGE_CHILDREN``.

The caller itself is never forked: it may hold threads, its heap would
raise every party's RSS, and a respawn would fork a live event loop.

Control messages are JSON objects, one per line::

    coordinator -> launcher   {"op": "spawn", "id", "connect", "party", "incarnation"}
                              {"op": "kill", "id"}
    launcher -> coordinator   {"event": "started", "id", "pid"}
                              {"event": "exited", "id", "returncode"}
                              {"event": "fork_failed", "id", "error"}
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import sys
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.transport.frames import TransportError


class PartyProcess:
    """Coordinator-side handle on one forked party: the ``pid``,
    ``returncode``, ``wait()`` and ``kill()`` of
    :class:`asyncio.subprocess.Process`.

    ``pid`` is set once the launcher has forked the child, and
    ``returncode`` once it has reaped it; a negative ``returncode`` is
    the signal that ended it.  If the fork fails or the launcher dies
    first, :meth:`wait` returns with ``returncode`` still ``None``:
    there is no child, or nobody is left to reap it.
    """

    def __init__(self, launcher: "Launcher", ident: int):
        self.launcher = launcher
        self.ident = ident
        self.pid: Optional[int] = None
        self.returncode: Optional[int] = None
        self._settled = asyncio.Event()

    async def wait(self) -> Optional[int]:
        await self._settled.wait()
        return self.returncode

    def kill(self) -> None:
        self.launcher.kill(self)

    def _settle(self, returncode: Optional[int]) -> None:
        self.returncode = returncode
        self._settled.set()


class Launcher:
    """Coordinator-side client of one launcher process."""

    def __init__(self, process: asyncio.subprocess.Process,
                 reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._process = process
        self._reader = reader
        self._writer = writer
        self._live: Dict[int, PartyProcess] = {}
        self._next_ident = 0
        self._closing = False
        #: Set when the launcher could not fork a party or died while
        #: the coordinator still needed it: every later spawn raises
        #: it, and the attempt in flight fails with it.
        self.failure: Optional[TransportError] = None
        self._reports = asyncio.get_running_loop().create_task(
            self._read_reports()
        )

    @classmethod
    async def start(cls, token: str) -> "Launcher":
        import repro

        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        env = dict(os.environ)
        env["REPRO_TRANSPORT_TOKEN"] = token
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
        ours, theirs = socket.socketpair()
        try:
            process = await asyncio.create_subprocess_exec(
                sys.executable, "-m", __name__, str(theirs.fileno()),
                pass_fds=(theirs.fileno(),), env=env,
            )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        reader, writer = await asyncio.open_unix_connection(sock=ours)
        return cls(process, reader, writer)

    @property
    def pid(self) -> int:
        """The launcher's own OS pid."""
        return self._process.pid

    def spawn(self, connect: str, party: int,
              incarnation: int) -> PartyProcess:
        """Fork one ``serve_party(connect, party, incarnation)`` child."""
        if self.failure is not None:
            raise self.failure
        ident = self._next_ident
        self._next_ident += 1
        handle = PartyProcess(self, ident)
        self._live[ident] = handle
        self._send({"op": "spawn", "id": ident, "connect": connect,
                    "party": party, "incarnation": incarnation})
        return handle

    def kill(self, handle: PartyProcess) -> None:
        if handle.ident in self._live:
            self._send({"op": "kill", "id": handle.ident})

    async def close(self) -> int:
        """Close the control channel, then wait for the launcher to reap
        every child, report it and exit; returns its exit code."""
        self._closing = True
        try:
            self._writer.write_eof()
        except (ConnectionError, OSError, RuntimeError):
            pass  # already gone; the report reader has seen EOF
        await self._reports
        self._writer.close()
        return await self._process.wait()

    def _send(self, request: Dict[str, Any]) -> None:
        self._writer.write(json.dumps(request, sort_keys=True).encode() + b"\n")

    async def _read_reports(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                self._on_report(json.loads(line))
        except (ConnectionError, OSError, ValueError, KeyError, TypeError):
            pass  # a garbled report ends the channel like EOF does
        self._lose()

    def _on_report(self, report: Dict[str, Any]) -> None:
        event, ident = report["event"], int(report["id"])
        if event == "started":
            handle = self._live.get(ident)
            if handle is not None:
                handle.pid = int(report["pid"])
            return
        returncode: Optional[int] = None
        if event == "fork_failed":
            # A host out of processes or memory is no party's fault:
            # fail the attempt rather than let recovery exclude one.
            self._fail(TransportError(
                f"party launcher (pid {self.pid}) cannot fork a party: "
                f"{report['error']}"
            ))
        else:
            returncode = int(report["returncode"])
        handle = self._live.pop(ident, None)
        if handle is not None:
            handle._settle(returncode)

    def _lose(self) -> None:
        """The control channel is gone, so no report will ever settle
        the children still pending."""
        if not self._closing:
            self._fail(TransportError(
                f"party launcher (pid {self.pid}) exited mid-run"
            ))
        pending = list(self._live.values())
        self._live.clear()
        for handle in pending:
            handle._settle(None)

    def _fail(self, failure: TransportError) -> None:
        """Single writer of ``failure``; the first cause wins."""
        if self.failure is None:
            self.failure = failure


# ---------------------------------------------------------------------------
# the launcher process
# ---------------------------------------------------------------------------

def _on_sigchld(signum: int, frame: Any) -> None:
    """No work here: installing a handler arms the wake-up fd."""


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError, AttributeError):
            pass


class _LauncherLoop:
    """The launcher's single-threaded request/reap loop."""

    def __init__(self, control: socket.socket,
                 serve_party: Callable[..., int]):
        self.control = control
        self.serve_party = serve_party
        self.wake_r, self.wake_w = os.pipe()
        self.children: Dict[int, int] = {}  # pid -> id
        self.pids: Dict[int, int] = {}      # id -> pid

    def serve(self) -> int:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGCHLD, _on_sigchld)
        os.set_blocking(self.wake_r, False)
        os.set_blocking(self.wake_w, False)
        signal.set_wakeup_fd(self.wake_w)
        pending = b""
        while True:
            ready, _, _ = select.select([self.control, self.wake_r], [], [])
            if self.wake_r in ready:
                self._drain_wakeups()
            self._reap(os.WNOHANG)
            if self.control not in ready:
                continue
            try:
                data = self.control.recv(65536)
            except OSError:
                data = b""  # the coordinator died: same as closing
            if not data:
                break
            lines: List[bytes] = (pending + data).split(b"\n")
            pending = lines.pop()
            for line in lines:
                self._handle(json.loads(line))
        # The coordinator is done with this run: nobody will ask for the
        # children still alive, so kill and reap them before exiting.
        for pid in self.children:
            os.kill(pid, signal.SIGKILL)
        self._reap(0)
        return 0

    def _handle(self, request: Dict[str, Any]) -> None:
        ident = int(request["id"])
        if request.get("op") == "spawn":
            try:
                pid = self._fork(str(request["connect"]),
                                 int(request["party"]),
                                 int(request["incarnation"]))
            except OSError as exc:  # EAGAIN, ENOMEM: the host, not the party
                self._report({"event": "fork_failed", "id": ident,
                              "error": str(exc)})
                return
            self.children[pid] = ident
            self.pids[ident] = pid
            self._report({"event": "started", "id": ident, "pid": pid})
        elif request.get("op") == "kill":
            pid = self.pids.get(ident)
            if pid is not None:  # not reaped yet, so the pid is still ours
                os.kill(pid, signal.SIGKILL)

    def _fork(self, connect: str, party: int, incarnation: int) -> int:
        _flush_stdio()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                self._become_party()
                code = self.serve_party(connect, party,
                                        incarnation=incarnation)
            except KeyboardInterrupt:
                code = 130  # Ctrl-C before the party's own handlers were up
            except BaseException:
                traceback.print_exc()
                raise  # never propagates: the finally ends the process
            finally:
                _flush_stdio()
                os._exit(code)
        return pid

    def _become_party(self) -> None:
        """In the child: drop the launcher's descriptors and signals."""
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(self.wake_r)
        os.close(self.wake_w)
        self.control.close()

    def _drain_wakeups(self) -> None:
        try:
            while os.read(self.wake_r, 512):
                pass
        except BlockingIOError:
            pass

    def _reap(self, flags: int) -> None:
        while self.children:
            try:
                pid, status = os.waitpid(-1, flags)
            except ChildProcessError:
                return
            if pid == 0:
                return
            ident = self.children.pop(pid, None)
            if ident is None:
                continue
            del self.pids[ident]
            self._report({"event": "exited", "id": ident,
                          "returncode": os.waitstatus_to_exitcode(status)})

    def _report(self, event: Dict[str, Any]) -> None:
        try:
            self.control.sendall(
                json.dumps(event, sort_keys=True).encode() + b"\n"
            )
        except OSError:
            pass  # the coordinator is gone; nobody is left to tell


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.runtime.transport.launcher CONTROL_FD",
              file=sys.stderr)
        return 2
    # What every party runs, imported once here before the first fork
    # (host imports the wire codec lazily, at a party's first message).
    import repro.runtime.wire  # noqa: F401
    from repro.runtime.transport.host import serve_party

    control = socket.socket(fileno=int(args[0]))
    return _LauncherLoop(control, serve_party).serve()


if __name__ == "__main__":
    sys.exit(main())
