"""Exceptions raised by the protocol runtime.

The fault-tolerance layer distinguishes three terminal conditions:

* :class:`ProtocolAbort` — a party *validated* incoming data, found it
  malformed or unprovable, and aborted naming the culprit (``blamed``)
  and the protocol phase.  Validated-abort-with-blame is what lets the
  framework exclude the faulty party and re-run over the survivors.
* :class:`PartyTimeout` — the supervisor converted a missed deadline
  (crashed peer, stalled channel, retries exhausted) into a typed error
  naming the party that failed to deliver.
* :class:`DeadlockError` — no supervisor was configured and the engine
  can only report that nobody can make progress (legacy behaviour).
"""

from __future__ import annotations

from typing import Optional


class ProtocolError(Exception):
    """A party received malformed or inconsistent protocol data.

    In the honest-but-curious model this indicates a bug or an active
    attack; either way the run must not continue silently.
    """


class ProtocolAbort(ProtocolError):
    """A party deliberately aborted (e.g. a zero-knowledge proof failed).

    ``blamed`` names the party whose message failed validation and
    ``phase`` the protocol phase it failed in; both are ``None`` when the
    abort site predates blame tracking or no single culprit exists.
    """

    def __init__(
        self,
        message: str = "",
        *,
        blamed: Optional[int] = None,
        phase: Optional[str] = None,
    ):
        self.blamed = blamed
        self.phase = phase
        self.reason = message
        if blamed is not None:
            suffix = f" [blamed=P{blamed}" + (f", phase={phase}" if phase else "") + "]"
            message = (message or "protocol abort") + suffix
        super().__init__(message)


class PartyTimeout(ProtocolError):
    """A party missed its delivery deadline (crash, stall, lost channel).

    Raised by the :class:`~repro.runtime.supervisor.Supervisor` instead
    of letting the engine deadlock.  ``blamed`` is the party that failed
    to deliver — ``None`` when no single culprit is identifiable (e.g. a
    wildcard wait expired with nobody crashed or reported lost);
    ``waiting`` maps each still-blocked party to the receive effect it
    was waiting on, for diagnosability.
    """

    def __init__(
        self,
        blamed: Optional[int],
        *,
        phase: Optional[str] = None,
        round: Optional[int] = None,
        waiting: Optional[dict] = None,
    ):
        self.blamed = blamed
        self.phase = phase
        self.round = round
        self.waiting = dict(waiting or {})
        blocked = ", ".join(
            f"party {pid} on {want!r}" for pid, want in sorted(self.waiting.items())
        )
        super().__init__(
            f"party {blamed} missed its deadline"
            + (f" in phase {phase!r}" if phase else "")
            + (f" at round {round}" if round is not None else "")
            + (f"; blocked: {blocked}" if blocked else "")
        )

    def __reduce__(self):
        # Rebuilt through __init__, so the message survives the pickle
        # a sharded run's timeout crosses out of a worker process.
        return (_timeout, (self.blamed, self.phase, self.round, self.waiting))


def _timeout(blamed, phase, round, waiting) -> PartyTimeout:
    return PartyTimeout(blamed, phase=phase, round=round, waiting=waiting)


class PartyCrashed(Exception):
    """Internal control-flow signal: a fault injector killed a party.

    Raised inside the crashing party's generator frame (so its stack
    unwinds like a real process death) and caught by the engine, which
    marks the party dead instead of propagating.  Never escapes the
    engine; protocol code must not catch it.
    """

    def __init__(self, party_id: int, phase: Optional[str] = None,
                 restart: bool = False):
        self.party_id = party_id
        self.phase = phase
        # kill_restart faults set this: the process died but left its
        # durable checkpoint behind, so the engine should attempt a
        # rejoin before falling back to marking the party crashed.
        self.restart = restart
        super().__init__(f"party {party_id} crashed"
                         + (f" in phase {phase!r}" if phase else ""))


class DeadlockError(ProtocolError):
    """No party can make progress and at least one has not finished.

    Raised by the engine when no :class:`~repro.runtime.supervisor.Supervisor`
    is installed; carries the blocked parties' pending receives so test
    failures are diagnosable.
    """

    def __init__(self, blocked: dict):
        self.blocked = blocked
        details = ", ".join(
            f"party {pid} waiting on {wait!r}" for pid, wait in sorted(blocked.items())
        )
        super().__init__(f"protocol deadlock: {details}")
