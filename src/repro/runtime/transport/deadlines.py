"""Wall-clock supervision for the socket transport.

The in-process :class:`~repro.runtime.supervisor.Supervisor` counts
quiescent *rounds*; on real sockets there are no rounds to count, so
deadlines are seconds.  The discipline is the same, transplanted to the
wall clock:

* the configured timeout is a **floor** — EWMA adaptation only ever
  extends it (a slow-but-alive cohort earns longer deadlines; nothing
  shortens them below the operator's setting);
* the deadline adapts to *measured* traffic: an EWMA over inter-frame
  gaps per party plus an EWMA of ping RTT, so a deadline is never
  tighter than the loopback (or LAN) can physically meet;
* a deadline measures time *without progress*: every routed protocol
  message restarts every wait's clock, the wall-clock counterpart of
  the engine expiring deadlines only over rounds in which nothing was
  delivered.  A party waiting on a long chain of others is not overdue
  while the chain moves;
* blame on expiry is :func:`repro.runtime.supervisor.blame`, the
  engine's rule: a crashed party first, then a sender reported as lost
  (retransmits exhausted), then the party being waited on.

A party that announced its death (``DYING`` without restart) is blamed
immediately — process death is observable on a socket (EOF), there is
nothing to wait out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.runtime.errors import PartyTimeout
from repro.runtime.supervisor import blame

#: EWMA smoothing factor for inter-frame gaps and RTT samples.
ALPHA = 0.2
#: Deadline = max(floor, GAP_FACTOR * gap EWMA + RTT_FACTOR * rtt EWMA):
#: generous multiples, because a false timeout costs a whole recovery
#: restart while a late one costs only seconds.
GAP_FACTOR = 8.0
RTT_FACTOR = 4.0


class WallClockSupervisor:
    """Deadline bookkeeping for one distributed attempt."""

    def __init__(self, floor_s: float, adaptive: bool = True):
        self.floor_s = floor_s
        self.adaptive = adaptive
        self.gap_ewma: Optional[float] = None
        self.rtt_ewma: Optional[float] = None
        self._last_frame: Dict[int, float] = {}
        self._progress_at: Optional[float] = None
        # pid -> (blocked since, waited-on src, tag, phase)
        self.blocked: Dict[int, Tuple[float, Optional[int], str, str]] = {}
        self.lost: Dict[int, Optional[str]] = {}  # reported-lost sender -> None
        self.crashed: Dict[int, Optional[str]] = {}  # dead pid -> phase
        self.restarting: set = set()        # dead but being respawned
        self.rejoins = 0
        self.timeouts = 0

    # -- observations -------------------------------------------------------

    def observe_frame(self, pid: int, now: float) -> None:
        """Any frame from ``pid``: liveness + gap sample + unblock."""
        last = self._last_frame.get(pid)
        if last is not None:
            gap = now - last
            self.gap_ewma = (
                gap if self.gap_ewma is None
                else (1 - ALPHA) * self.gap_ewma + ALPHA * gap
            )
        self._last_frame[pid] = now
        self.blocked.pop(pid, None)

    def observe_rtt(self, sample_s: float) -> None:
        self.rtt_ewma = (
            sample_s if self.rtt_ewma is None
            else (1 - ALPHA) * self.rtt_ewma + ALPHA * sample_s
        )

    def note_blocked(self, pid: int, waiting_src: Optional[int],
                     tag: str, phase: str, now: float) -> None:
        self.blocked[pid] = (now, waiting_src, tag, phase)

    def note_progress(self, now: float) -> None:
        """A protocol message was routed: the run advanced, so every
        wait's clock restarts at ``now``."""
        self._progress_at = now

    def note_lost(self, src: int) -> None:
        self.lost[src] = None  # blamed in the waiter's phase

    def note_crashed(self, pid: int, phase: Optional[str],
                     restarting: bool = False) -> None:
        self.crashed[pid] = phase
        if restarting:
            self.restarting.add(pid)

    def forgive(self, pid: int) -> None:
        """A crashed party went live again: stop holding its death
        against it."""
        self.crashed.pop(pid, None)
        self.restarting.discard(pid)

    def note_rejoin(self) -> None:
        """A respawned life replayed its journal: one rejoin, whether it
        then goes live or dies again at its go-live send (the engine
        counts one per rejoin plan alike)."""
        self.rejoins += 1

    # -- deadline -----------------------------------------------------------

    def deadline_s(self) -> float:
        if not self.adaptive or self.gap_ewma is None:
            return self.floor_s
        adapted = GAP_FACTOR * self.gap_ewma + RTT_FACTOR * (self.rtt_ewma or 0.0)
        return max(self.floor_s, adapted)

    def check(self, now: float) -> Optional[PartyTimeout]:
        """Expire overdue waits; ``None`` while everyone is within deadline."""
        deadline = self.deadline_s()
        for pid, (since, waiting_src, tag, phase) in sorted(self.blocked.items()):
            if self._progress_at is not None:
                since = max(since, self._progress_at)
            overdue = now - since >= deadline
            # Waiting on a corpse is hopeless *unless* the corpse is
            # being respawned — then the wait is exactly what a rejoin
            # needs, and only the ordinary deadline bounds it.
            waiting_on_corpse = (
                waiting_src in self.crashed
                and waiting_src not in self.restarting
            )
            if not (overdue or waiting_on_corpse):
                continue
            self.timeouts += 1
            blamed, blamed_phase = blame(
                waiting_src, phase, self.crashed, self.lost
            )
            return PartyTimeout(
                blamed, phase=blamed_phase, waiting={pid: tag}
            )
        return None
