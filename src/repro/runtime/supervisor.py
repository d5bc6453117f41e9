"""Deadline supervision: timeouts, bounded retransmits, typed blame.

The engine calls :meth:`Supervisor.on_quiescent` when a round made no
progress and no delayed deliveries are in flight — the simulated-time
equivalent of "every local timer is about to fire".  The supervisor then
either heals the run or converts the stall into a typed error:

1. **Retransmit.**  If a message known to have been lost on the wire
   (recorded by the engine when the fault injector dropped or stalled
   it) matches some blocked party's pending receive, it is re-sent with
   exponential backoff, up to ``max_retries`` attempts per message.
   This models a reliable-delivery layer: a transiently dropped message
   costs latency, not the run.
2. **Blame a crashed party.**  A party waiting on a peer the engine
   knows to be dead can never be satisfied; the supervisor raises
   :class:`~repro.runtime.errors.PartyTimeout` naming the dead party.
3. **Blame a silent channel.**  When retries are exhausted the sender of
   the lost message is blamed; when a party simply never sends (a stalled
   or buggy peer) the party the receiver is waiting on is blamed.  The
   priority is :func:`blame`, which the socket transport's wall-clock
   supervisor calls too.

Every attempt loop (the flat framework, the hierarchy's phase 1 and the
socket transport's coordinator) turns a blamed failure into its next
attempt through one rule, :func:`exclude_blamed`.

All decisions are functions of engine state only, so runs stay
deterministic: the same seed and fault plan produce the same outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.channels import Recv
from repro.runtime.errors import PartyTimeout, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import Engine


class Supervisor:
    """Converts engine quiescence into retransmits or typed timeouts.

    ``timeout_rounds`` is the per-receive deadline measured in engine
    rounds; ``max_retries`` bounds retransmit attempts per lost message;
    attempt ``i`` backs off ``backoff_base * 2**i`` rounds.  ``phase_of``
    maps message tags to named protocol phases for blame reports.
    """

    def __init__(
        self,
        timeout_rounds: int = 4,
        max_retries: int = 2,
        backoff_base: int = 1,
        phase_of: Optional[Callable[[str], str]] = None,
    ):
        if timeout_rounds < 1:
            raise ValueError("timeout_rounds must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base < 1:
            raise ValueError("backoff_base must be at least 1")
        self.timeout_rounds = timeout_rounds
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.phase_of = phase_of or (lambda tag: tag)
        self.retransmits = 0
        self.timeouts = 0
        self.rejoins = 0
        # party_id -> round it last rejoined in.  Bookkeeping only: a
        # rejoined party never enters the engine's crashed set, so the
        # blame logic below needs no rejoin-awareness — it simply never
        # sees the party as dead.
        self.rejoined: Dict[int, int] = {}

    def note_rejoin(self, party_id: int, round: int) -> None:
        """Record that a killed party was rebuilt from its checkpoint.

        Distinguishes "rejoining" from "blamed" in postmortems: the
        party appears here rather than in the engine's crashed set.
        """
        self.rejoins += 1
        self.rejoined[party_id] = round

    # -- engine hook ----------------------------------------------------------
    def on_quiescent(self, engine: "Engine") -> bool:
        """Heal or escalate a stalled engine.

        Returns ``True`` when the engine should keep running (idle round
        or a scheduled retransmit); raises :class:`PartyTimeout` when a
        deadline has expired and a culprit can be named; returns
        ``False`` to fall back to the engine's deadlock handling.
        """
        blocked: Dict[int, Recv] = engine.blocked_receives()
        if not blocked:
            return False
        # Deadlines have not expired yet: let simulated time pass.  The
        # engine counts idle rounds, so this terminates at the deadline.
        if not self._deadline_expired(engine, blocked):
            return True
        # 1. Retransmit a lost message some blocked party is waiting for.
        if self._retransmit(engine, blocked):
            return True
        # 2/3. Nothing can heal this: name the culprit.
        raise self._timeout(engine, blocked)

    # -- internals ------------------------------------------------------------
    def _deadline_expired(self, engine: "Engine", blocked: Dict[int, Recv]) -> bool:
        longest = max(
            engine.round - engine.waiting_since(pid) for pid in blocked
        )
        return longest >= self.timeout_rounds

    def _retransmit(self, engine: "Engine", blocked: Dict[int, Recv]) -> bool:
        for pid in sorted(blocked):
            want = blocked[pid]
            lost = engine.find_lost_message(pid, want)
            if lost is None:
                continue
            if lost.attempts >= self.max_retries:
                continue  # exhausted; fall through to blame
            delay = self.backoff_base * (2 ** lost.attempts)
            engine.retransmit(lost, engine.round + delay)
            self.retransmits += 1
            return True
        return False

    def _timeout(self, engine: "Engine", blocked: Dict[int, Recv]) -> PartyTimeout:
        self.timeouts += 1
        # Lost messages blocked parties still wait for: retries exhausted.
        lost: Dict[int, Optional[str]] = {}
        for pid in sorted(blocked):
            found = engine.find_lost_message(pid, blocked[pid])
            if found is not None:
                src, tag = found.message.src, found.message.tag
                lost.setdefault(src, self.phase_of(tag))
        # The awaited party is the one the longest-waiting party points at.
        pid = min(blocked, key=lambda p: (engine.waiting_since(p), p))
        want = blocked[pid]
        awaited = want.src if want.src is not None else pid
        blamed, phase = blame(
            awaited, self.phase_of(want.tag), engine.crashed, lost
        )
        return PartyTimeout(
            blamed, phase=phase, round=engine.round, waiting=blocked
        )


def blame(awaited: Optional[int], phase: Optional[str],
          crashed: Mapping[int, Optional[str]],
          lost: Mapping[int, Optional[str]]) -> Tuple[Optional[int], Optional[str]]:
    """The blame rule of both supervisors, whatever their clock.

    A crashed party first, then a sender lost past its retries, then the
    ``awaited`` party; among several culprits of one kind the awaited
    one, else the lowest id.  ``crashed`` and ``lost`` map culprits to
    their phase (``None`` falls back to ``phase``, the waiter's).
    Returns ``(blamed, phase)``.
    """
    for culprits in (crashed, lost):
        if culprits:
            blamed = awaited if awaited in culprits else min(culprits)
            return blamed, culprits[blamed] or phase
    return awaited, phase


def exclude_blamed(failure: ProtocolError, active: Sequence[int],
                   recovery: bool) -> Tuple[int, List[int]]:
    """The recovery rule of every attempt loop: the participant
    ``failure`` blames and the active set without it.

    Re-raises ``failure`` unless ``recovery`` is on and the blame names a
    live participant (an id in ``active``, which never holds the
    initiator); raises :class:`ProtocolError` when fewer than 2
    participants would remain.
    """
    blamed = getattr(failure, "blamed", None)
    if not recovery or blamed is None or blamed not in active:
        raise failure
    if len(active) - 1 < 2:
        raise ProtocolError(
            f"cannot recover: excluding P{blamed} leaves fewer than 2 "
            "participants"
        ) from failure
    return blamed, [j for j in active if j != blamed]
