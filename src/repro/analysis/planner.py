"""Deployment planning: "what would this cost at my scale?"

The question a downstream adopter actually asks.  Packages the
evaluation machinery — counting runs, calibrated cost models, the
network simulator — into one call:

    estimate = estimate_deployment(n=40, m=12, family="ECC", level=80)

returning per-participant compute time, traffic, rounds, and (optionally)
the communication time on the paper's reference network.  Estimates come
from executing the *real protocol* on an inert counting group, so they
track every implementation detail rather than an asymptotic formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.costmodel import cost_model_for
from repro.analysis.counting import CountingGroup, counted_run
from repro.math.rng import SeededRNG


@dataclass(frozen=True)
class DeploymentEstimate:
    """Everything one framework run would cost at the given scale."""

    n: int
    family: str
    level: int
    beta_bits: int
    rounds: int
    participant_compute_seconds: float
    participant_exponentiations: int
    total_traffic_bits: int
    max_participant_sent_bits: int
    network_seconds: Optional[float] = None   # on the paper topology

    def summary(self) -> str:
        lines = [
            f"deployment estimate: n={self.n}, {self.family}-{self.level}bit tier",
            f"  masked-gain width l: {self.beta_bits} bits",
            f"  communication rounds: {self.rounds}",
            f"  participant compute: {self.participant_compute_seconds:,.1f} s "
            f"({self.participant_exponentiations:,} exponentiations, "
            f"priced in pure-Python arithmetic)",
            f"  total traffic: {self.total_traffic_bits / 8e6:,.1f} MB "
            f"(worst participant sends {self.max_participant_sent_bits / 8e6:,.1f} MB)",
        ]
        if self.network_seconds is not None:
            lines.append(
                f"  network time (80-node/2 Mbps/50 ms reference): "
                f"{self.network_seconds:,.1f} s"
            )
        return "\n".join(lines)


def estimate_deployment(
    n: int,
    m: int = 10,
    num_equal: Optional[int] = None,
    d1: int = 15,
    d2: int = 15,
    h: int = 15,
    k: Optional[int] = None,
    family: str = "ECC",
    level: int = 80,
    include_network: bool = False,
    seed: int = 1,
) -> DeploymentEstimate:
    """Execute a counting run at the requested scale and price it.

    ``family`` ∈ {"DL", "ECC"}, ``level`` ∈ {80, 112, 128}.  Runtime is
    dominated by the counting run itself — roughly quadratic in ``n``
    (seconds at n=25, a couple of minutes at n=70).

    Compute seconds are priced in pure-Python big-int arithmetic
    whatever backend is active (:mod:`repro.analysis.costmodel`
    calibrates under the python reference, like for like with the
    curves).  On a native backend DL runs faster than this: a DL-1024
    exponentiation takes 0.39 ms on libgmp against 4.9 ms in CPython
    (EXPERIMENTS.md, FIG-3a).
    """
    group = CountingGroup.for_tier(family, level)
    if include_network and n + 1 > 80:
        raise ValueError("the reference topology holds at most 79 participants")
    cost_model = cost_model_for(family, level)
    run = counted_run(
        group, n, m=m, num_equal=num_equal, d1=d1, d2=d2, h=h, k=k, seed=seed
    )
    network_seconds = None
    if include_network:
        from repro.netsim.topology import paper_topology
        from repro.netsim.transport import replay_transcript

        topology = paper_topology(SeededRNG(17))
        topology.place_parties(list(range(n + 1)), SeededRNG(18))
        network_seconds = replay_transcript(run.transcript, topology).total_time_s

    return DeploymentEstimate(
        n=n,
        family=family.upper(),
        level=level,
        beta_bits=run.beta_bits,
        rounds=run.rounds,
        participant_compute_seconds=cost_model.seconds_for(run.max_participant_ops),
        participant_exponentiations=run.max_participant_ops.exponentiations,
        total_traffic_bits=run.transcript.total_bits,
        max_participant_sent_bits=run.max_participant_sent_bits,
        network_seconds=network_seconds,
    )
