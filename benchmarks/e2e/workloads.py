"""Workloads of the end-to-end ranking benchmark and its correctness gate.

Every workload ranks the same shared instance shape: m=4 attributes
(2 "equal to", 2 "greater than"), value_bits=6, weight_bits=4,
rho_bits=6 (a masked-gain width of l=27 bits), k=2 and measured wire
accounting.  Each workload differs from ``proto-dl48-n8`` in one named
property, so a change that moves one of them and not the others points
at the layer that property exercises:

* ``proto-dl48-n8``    the reference: a 48-bit group keeps bigint work
  cheap, so Python overhead in the engine, wire path and protocol code
  bounds the run;
* ``arith-dl1024-n2``  the paper's 80-bit DL tier: bigint ``powmod``
  bounds the run, runtime layers barely register;
* ``tcp-dl48-n8``      the same instance over the socket transport, one
  OS process per party: ``ranking_s(tcp) - ranking_s(proto)`` is the
  transport's whole cost;
* ``recovery-dl48-n8`` the same instance with durable checkpoints, one
  party killed and rejoined by journal replay and one message dropped
  and retransmitted.

Inputs (criterion, weights, participant vectors) and the framework RNG
are drawn from the seed; the group is fixed per workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from repro.runtime.faults import FaultSpec

SCHEMA = AttributeSchema(
    names=("age", "pressure", "friends", "income"),
    num_equal=2, value_bits=6, weight_bits=4,
)
K = 2
RHO_BITS = 6
#: Seed of the fixed small safe-prime groups (sub-1024-bit workloads).
GROUP_SEED = 101


@dataclass(frozen=True)
class Workload:
    """One benchmark instance: group size, cohort size and the runtime
    path it takes.  ``timeout_rounds`` is the supervisor deadline; over
    tcp it is also the wall-clock deadline in seconds."""

    name: str
    group_bits: int
    n: int
    transport: str = "inproc"
    timeout_rounds: int = 6
    recovery: bool = False

    def reference(self) -> "Workload":
        """The fault-free in-process run whose ranks and payload digest
        every rep of this workload must reproduce."""
        return dataclasses.replace(
            self, transport="inproc", timeout_rounds=6, recovery=False
        )

    def quick(self) -> "Workload":
        """The harness self-test's shrunken instance of this workload."""
        return dataclasses.replace(self, group_bits=32, n=3)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("proto-dl48-n8", group_bits=48, n=8),
        Workload("arith-dl1024-n2", group_bits=1024, n=2),
        # The default 6 s wall-clock deadline is too tight for 17 party
        # processes on a 2-core host at n=16 (a blocked receiver is
        # blamed while its sender is merely descheduled), and the margin
        # at n=8 is thin under load; 60 s keeps deadline misfires out of
        # the measurement.  test_known_failures.py pins the n=16 case.
        Workload("tcp-dl48-n8", group_bits=48, n=8, transport="tcp",
                 timeout_rounds=60),
        Workload("recovery-dl48-n8", group_bits=48, n=8, recovery=True),
    )
}


def make_group(bits: int) -> DLGroup:
    """The paper's standardized MODP group from 1024 bits up, else a
    fixed seeded safe-prime group."""
    if bits >= 1024:
        return DLGroup.standard(bits)
    return DLGroup.random(bits, rng=SeededRNG(GROUP_SEED))


def make_framework(
    workload: Workload,
    seed: int,
    *,
    checkpoint_dir: Optional[str] = None,
) -> GroupRankingFramework:
    """Build (but do not run) one rep of ``workload`` drawn from ``seed``."""
    rng = SeededRNG(seed)
    value_bound = 1 << SCHEMA.value_bits
    initiator = InitiatorInput.create(
        SCHEMA,
        [rng.randrange(value_bound) for _ in range(SCHEMA.dimension)],
        [rng.randrange(1 << SCHEMA.weight_bits) for _ in range(SCHEMA.dimension)],
    )
    participants = [
        ParticipantInput.create(
            SCHEMA, [rng.randrange(value_bound) for _ in range(SCHEMA.dimension)]
        )
        for _ in range(workload.n)
    ]
    config = FrameworkConfig(
        group=make_group(workload.group_bits),
        schema=SCHEMA,
        num_participants=workload.n,
        k=K,
        rho_bits=RHO_BITS,
        wire="measured",
        transport=workload.transport,
        timeout_rounds=workload.timeout_rounds,
        recovery=workload.recovery,
        checkpoint_dir=checkpoint_dir,
    )
    return GroupRankingFramework(
        config, initiator, participants, rng=rng.fork("framework")
    )


def fault_plan(workload: Workload) -> Optional[List[FaultSpec]]:
    """Recovery's faults: one party killed on its first ``beta-bits``
    send (it rejoins from its checkpoint) and one party's first
    ``chain`` message dropped (the supervisor retransmits it)."""
    if not workload.recovery:
        return None
    return [
        FaultSpec(kind="kill_restart", party=min(5, workload.n), tag="beta-bits"),
        FaultSpec(kind="drop", party=min(3, workload.n - 1), tag="chain"),
    ]


def check_rep(
    workload: Workload, framework: GroupRankingFramework, result: Any
) -> List[str]:
    """Every problem one rep's output shows on its own; empty means
    correct.  (Agreement with the reference run of the same seed is
    checked by the caller, which holds both.)"""
    problems = list(framework.check_result(result))
    if workload.recovery:
        supervisor = getattr(framework, "last_supervisor", None)
        retransmits = getattr(supervisor, "retransmits", None)
        observed = (result.rejoins, retransmits, result.attempts, result.excluded)
        if observed != (1, 1, 1, []):
            problems.append(
                "recovery expected rejoins=1 retransmits=1 attempts=1 "
                f"excluded=[]; got rejoins={result.rejoins} "
                f"retransmits={retransmits} attempts={result.attempts} "
                f"excluded={result.excluded}"
            )
    return problems
