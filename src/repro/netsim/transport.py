"""Replaying protocol transcripts over the simulated network.

A protocol run (local, instant) produces a
:class:`repro.runtime.transcript.Transcript` — who sent how many bits to
whom in which round.  This module maps parties onto topology nodes and
replays the trace round by round: round ``r+1`` starts when every
message of round ``r`` has been delivered (the synchronous barrier the
engine's semantics define).  The result is the *communication time* of
the protocol on the Fig. 3(b) network; adding per-party computation time
from the cost model gives the total execution time the figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.math.rng import RNG, SeededRNG
from repro.netsim.simulator import LinkConfig, NetworkSimulator, SimMessage
from repro.netsim.topology import Topology
from repro.runtime.channels import Message
from repro.runtime.faults import SendVerdict
from repro.runtime.transcript import Transcript


class LossyLinkFaults:
    """The runtime engine's fault layer speaking netsim's lossy-link model.

    Where :class:`~repro.runtime.faults.FaultInjector` injects *targeted*
    faults (one spec, one culprit), this adapter models an unreliable
    *network*: every submitted message is independently lost with
    probability ``loss_rate``, drawn by the same seeded Bernoulli rule as
    :meth:`NetworkSimulator._hop_lost`.  A loss surfaces to the engine as
    a retransmittable drop, so the protocol supervisor's bounded-retry
    loop plays the role the simulator's per-hop retransmit timer plays at
    the packet level — the e2e lossy test drives both layers from one
    run.  Retransmitted copies pass through here again, so a retry can be
    lost too (bounded by the supervisor's ``max_retries``).
    """

    def __init__(
        self,
        loss_rate: float,
        rng: Optional[RNG] = None,
        phase_of: Optional[Callable[[str], str]] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else SeededRNG(0)
        self.phase_of = phase_of or (lambda tag: tag)
        self.sends = 0
        self.losses = 0

    def _lost(self) -> bool:
        if self.loss_rate <= 0.0:
            return False
        return self.rng.randbits(30) / float(1 << 30) < self.loss_rate

    def on_send(self, message: Message, round: int) -> SendVerdict:
        self.sends += 1
        if self._lost():
            self.losses += 1
            return SendVerdict(lost=True)
        return SendVerdict(deliveries=[(None, message)])


@dataclass
class TranscriptReplay:
    """Timing results of replaying one transcript.

    ``message_count`` counts *logical* transcript entries;
    ``wire_messages`` counts the frames actually injected into the
    simulator — for a measured-wire transcript these differ (coalesced
    batch members fold into their carrier frame, uncoalesced bitwise
    broadcasts fan out per fragment).  For a transcript of declared
    sizes (the secret-sharing baseline) the two are equal.
    """

    total_time_s: float
    round_times_s: List[float] = field(default_factory=list)
    total_bits: int = 0
    message_count: int = 0
    wire_messages: int = 0

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8

    @property
    def rounds(self) -> int:
        return len(self.round_times_s)


def replay_transcript(
    transcript: Transcript,
    topology: Topology,
    link: LinkConfig = LinkConfig(),
    *,
    simulator: Optional[NetworkSimulator] = None,
) -> TranscriptReplay:
    """Simulate the transcript's messages over the topology.

    Parties must already be placed (``topology.place_parties``).  Pass a
    pre-built ``simulator`` to control its RNG / retransmit settings and
    inspect :attr:`NetworkSimulator.retransmissions` afterwards (the
    lossy-link e2e test does); ``link`` is ignored in that case.
    """
    if simulator is None:
        simulator = NetworkSimulator(topology, link)
    by_round = transcript.by_round()
    round_times: List[float] = []
    clock = 0.0
    total_bits = 0
    message_count = 0
    wire_messages = 0
    for round_index in sorted(by_round):
        batch: List[SimMessage] = []
        # Coalesced batch members (frames == 0) ride in the frame of the
        # most recent entry on the same directed channel this round.
        carrier: Dict[tuple, SimMessage] = {}
        for entry in by_round[round_index]:
            message_count += 1
            total_bits += entry.size_bits
            channel = (entry.src, entry.dst)
            if entry.frames == 0 and channel in carrier:
                carrier[channel].size_bits += entry.size_bits
                continue
            fragments = max(1, entry.frames)
            # An uncoalesced multi-fragment entry (per-bit broadcast)
            # fans out into `frames` wire messages splitting its bits.
            base, remainder = divmod(entry.size_bits, fragments)
            for index in range(fragments):
                sim_message = SimMessage(
                    src_node=topology.node_of(entry.src),
                    dst_node=topology.node_of(entry.dst),
                    size_bits=base + (remainder if index == 0 else 0),
                    inject_time=clock,
                    label=entry.tag,
                )
                batch.append(sim_message)
                wire_messages += 1
            carrier[channel] = batch[-fragments]
        finish = simulator.deliver(batch)
        finish = max(finish, clock)
        round_times.append(finish - clock)
        clock = finish
    return TranscriptReplay(
        total_time_s=clock,
        round_times_s=round_times,
        total_bits=total_bits,
        message_count=message_count,
        wire_messages=wire_messages,
    )


def synthetic_round_trace(
    rounds: int,
    messages_per_round: int,
    bits_per_message: int,
    party_ids: List[int],
) -> Transcript:
    """Build a synthetic all-to-all-style transcript for cost modelling.

    Used for protocols we account analytically (the SS framework's
    multiplication rounds): each round carries ``messages_per_round``
    messages of ``bits_per_message`` bits round-robin across party pairs.
    """
    transcript = Transcript()
    n = len(party_ids)
    if n < 2:
        raise ValueError("need at least two parties")
    pair_index = 0
    for round_index in range(rounds):
        for _ in range(messages_per_round):
            src = party_ids[pair_index % n]
            dst = party_ids[(pair_index + 1 + (pair_index // n) % (n - 1)) % n]
            if dst == src:
                dst = party_ids[(pair_index + 1) % n]
            transcript.record(round_index, src, dst, "synthetic", bits_per_message)
            pair_index += 1
    return transcript
