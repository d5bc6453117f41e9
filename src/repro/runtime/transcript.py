"""Recorded message traces of a protocol run.

The transcript is the interface between protocol execution and both the
efficiency analysis (bits/rounds per party) and the network simulator,
which replays the trace over a simulated topology (Fig. 3(b)).

``size_bits`` is the *measured* encoded size (payload bytes plus
envelope/framing overhead) and ``frames`` counts the wire messages the
entry contributed: framed alone (under a fault plan), a bitwise-
ciphertext broadcast costs one wire message per bit; batched, only the
first entry of each (sender, receiver, round) batch carries the envelope
and a ``frames`` of 1, the rest ride in the same batch with
``frames == 0``.  A protocol without a
group codec (the secret-sharing baseline) records declared sizes, one
wire message per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


@dataclass(frozen=True)
class TranscriptEntry:
    """One sent message: who, to whom, when (round), and how big."""

    round: int
    src: int
    dst: int
    tag: str
    size_bits: int
    frames: int = 1     # wire messages this entry put on the network


@dataclass
class Transcript:
    """Ordered record of every message in a run."""

    entries: List[TranscriptEntry] = field(default_factory=list)

    def record(
        self, round_sent: int, src: int, dst: int, tag: str, size_bits: int,
        frames: int = 1,
    ) -> None:
        self.entries.append(
            TranscriptEntry(
                round=round_sent, src=src, dst=dst, tag=tag,
                size_bits=size_bits, frames=frames,
            )
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self.entries)

    @property
    def total_bits(self) -> int:
        return sum(entry.size_bits for entry in self.entries)

    @property
    def total_frames(self) -> int:
        """Wire messages the run put on the network."""
        return sum(entry.frames for entry in self.entries)

    @property
    def rounds(self) -> int:
        """Number of communication rounds the run used."""
        return max((entry.round for entry in self.entries), default=-1) + 1

    def by_round(self) -> Dict[int, List[TranscriptEntry]]:
        grouped: Dict[int, List[TranscriptEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.round, []).append(entry)
        return grouped

    def bits_per_party(self) -> Dict[int, Tuple[int, int]]:
        """Map party id -> (bits sent, bits received)."""
        totals: Dict[int, Tuple[int, int]] = {}
        for entry in self.entries:
            sent, received = totals.get(entry.src, (0, 0))
            totals[entry.src] = (sent + entry.size_bits, received)
            sent, received = totals.get(entry.dst, (0, 0))
            totals[entry.dst] = (sent, received + entry.size_bits)
        return totals

    def bits_by_tag(self) -> Dict[str, int]:
        """Total bits per message tag (phase slicing for the benches)."""
        totals: Dict[str, int] = {}
        for entry in self.entries:
            totals[entry.tag] = totals.get(entry.tag, 0) + entry.size_bits
        return totals

    def tags(self) -> List[str]:
        seen: List[str] = []
        for entry in self.entries:
            if entry.tag not in seen:
                seen.append(entry.tag)
        return seen
