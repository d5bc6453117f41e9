"""Per-party resource accounting.

Combines group-operation counts (what paper Section VI-B calls
"computational overhead, measured by the number of group
multiplications") with communication counts (messages, bits) per party.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.groups.base import OperationCounter


@dataclass
class PartyMetrics:
    """Everything one party spent during a protocol run."""

    party_id: int
    ops: OperationCounter = field(default_factory=OperationCounter)
    messages_sent: int = 0
    messages_received: int = 0
    bits_sent: int = 0
    bits_received: int = 0

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "PartyMetrics":
        """Inverse of :func:`dataclasses.asdict` (a JSON round trip)."""
        return cls(**dict(record, ops=OperationCounter(**record["ops"])))

    def record_send(self, bits: int) -> None:
        self.messages_sent += 1
        self.bits_sent += bits

    def record_receive(self, bits: int) -> None:
        self.messages_received += 1
        self.bits_received += bits

    def summary(self) -> Dict[str, int]:
        return {
            "party": self.party_id,
            "group_multiplications": self.ops.equivalent_multiplications,
            "group_exponentiations": self.ops.exponentiations,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "bits_sent": self.bits_sent,
            "bits_received": self.bits_received,
        }


def merge_max(metrics: Dict[int, PartyMetrics]) -> Dict[str, int]:
    """Worst party per dimension — the paper reports per-participant cost.

    Covers both directions of every communication dimension
    :meth:`PartyMetrics.summary` exposes, not just the sent side: a
    party can be receive-dominated (the initiator in the ranking phase)
    and would otherwise vanish from the worst-case report.
    """
    if not metrics:
        return {}
    return {
        "group_multiplications": max(
            m.ops.equivalent_multiplications for m in metrics.values()
        ),
        "group_exponentiations": max(m.ops.exponentiations for m in metrics.values()),
        "bits_sent": max(m.bits_sent for m in metrics.values()),
        "bits_received": max(m.bits_received for m in metrics.values()),
        "messages_sent": max(m.messages_sent for m in metrics.values()),
        "messages_received": max(m.messages_received for m in metrics.values()),
    }
