"""A no-op group for pure operation/traffic counting at large scale.

Protocol *costs* (operation counts, message sizes, round structure)
depend only on the parameters ``(n, m, l, λ)`` — not on actual element
values.  :class:`CountingGroup` exploits that: every element is the
constant 1, every operation is counted but not computed, and
``element_bits`` mimics the *target* group's wire size so transcripts
carry the exact byte counts a real 1024-bit-DL (or 161-bit-ECC) run
would.  This lets the FIG-2/FIG-3 benches execute the *real protocol
code* at the paper's n = 25…70 scales in seconds.

:func:`counted_run` is the one driver: it builds a seeded synthetic
instance, runs it on the given group and keeps what the planner and
the figure benches read.  Counting runs are cross-validated against
fully-real small-group runs of the same driver in
``benchmarks/test_validation.py``: operation counters must match
exactly.

The ranking *outputs* of a counting run are meaningless (every τ
"decrypts" to zero); anything correctness-related must use a real
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.base import Group, OperationCounter
from repro.groups.params import TIERS
from repro.math.rng import RNG, SeededRNG
from repro.runtime.transcript import Transcript


class CountingGroup(Group):
    """Structurally faithful, computationally inert group."""

    def __init__(
        self,
        element_bits: int,
        order_bits: Optional[int] = None,
        name: Optional[str] = None,
        security_bits: int = 0,
        counter: Optional[OperationCounter] = None,
    ):
        super().__init__(counter=counter or OperationCounter())
        if element_bits < 8:
            raise ValueError("element_bits unrealistically small")
        self._element_bits = element_bits
        self._order_bits = order_bits or element_bits
        # A fixed odd "order" with the requested bit length; protocols only
        # use it for ranges and bit-length accounting.
        self._order = (1 << (self._order_bits - 1)) | 1
        self._name = name or f"counting-{element_bits}"
        self._security_bits = security_bits

    @classmethod
    def like_dl(cls, modulus_bits: int) -> "CountingGroup":
        """Wire/exponent sizes of the DL group with that modulus."""
        return cls(element_bits=modulus_bits, order_bits=modulus_bits - 1,
                   name=f"counting-DL-{modulus_bits}")

    @classmethod
    def like_ecc(cls, curve_bits: int) -> "CountingGroup":
        """Wire/exponent sizes of a ``curve_bits``-bit curve (compressed)."""
        return cls(element_bits=curve_bits + 1, order_bits=curve_bits,
                   name=f"counting-ECC-{curve_bits}")

    @classmethod
    def for_tier(cls, family: str, level: int) -> "CountingGroup":
        """Sizes of the Fig. 3(a) ``family`` group ("DL" or "ECC") at a
        security ``level``; :func:`~repro.analysis.costmodel.cost_model_for`
        prices the same pair."""
        if level not in TIERS:
            raise ValueError(f"level must be one of {sorted(TIERS)}")
        tier = TIERS[level]
        family = family.upper()
        if family == "DL":
            return cls.like_dl(tier.dl_bits)
        if family == "ECC":
            return cls.like_ecc(tier.curve_bits)
        raise ValueError("family must be 'DL' or 'ECC'")

    # -- facts ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return self._order

    @property
    def element_bits(self) -> int:
        return self._element_bits

    @property
    def security_bits(self) -> int:
        return self._security_bits

    @property
    def name(self) -> str:
        return self._name

    def generator(self):
        return 1

    def identity(self):
        return 1

    # -- inert operations -----------------------------------------------------------
    def mul(self, a, b):
        self.counter.record_mul()
        return 1

    def exp(self, a, k):
        self.counter.record_exp(self._order_bits)
        return 1

    def inv(self, a):
        self.counter.record_inv()
        return 1

    def eq(self, a, b) -> bool:
        return True

    def is_element(self, a) -> bool:
        return True

    def random_element(self, rng: RNG):
        rng.randrange(self._order)  # consume randomness like a real group
        return 1

    def serialize(self, a) -> bytes:
        return b"\x00" * ((self._element_bits + 7) // 8)

    def deserialize(self, data: bytes):
        return 1

    @property
    def wire_faithful(self) -> bool:
        # All elements collapse to the constant 1; interning or
        # transcoding over this group would dedupe every transfer and
        # falsify the byte counts it exists to produce.
        return False


@dataclass
class CountedRun:
    """What one run measures: the costliest participant, the initiator,
    the transcript and its rounds."""

    n: int
    beta_bits: int
    max_participant_ops: OperationCounter
    max_participant_sent_bits: int
    initiator_ops: OperationCounter
    transcript: Transcript
    rounds: int


def counted_run(
    group: Group,
    n: int,
    m: int = 10,
    num_equal: Optional[int] = None,
    d1: int = 15,
    d2: int = 15,
    h: int = 15,
    k: Optional[int] = None,
    seed: int = 1,
) -> CountedRun:
    """Run the framework on a seeded synthetic instance over ``group``.

    The instance has ``m`` attributes (``num_equal`` of them equality
    attributes, ``m // 2`` unless given), ``d1``-bit values,
    ``d2``-bit weights and an ``h``-bit mask ρ, drawn from
    ``SeededRNG(seed)``; the run draws from ``SeededRNG(seed + 1)`` and
    selects the top ``k`` (``max(1, n // 8)`` unless given).  The
    transcript carries measured encoded bytes: a :class:`CountingGroup`
    reports its target family's element width, so sizes match a real
    run's.
    """
    schema = AttributeSchema(
        names=tuple(f"q{i}" for i in range(m)),
        num_equal=m // 2 if num_equal is None else num_equal,
        value_bits=d1,
        weight_bits=d2,
    )
    rng = SeededRNG(seed)
    bound = 1 << d1
    initiator = InitiatorInput.create(
        schema,
        [rng.randrange(bound) for _ in range(m)],
        [rng.randrange(1 << d2) for _ in range(m)],
    )
    participants = [
        ParticipantInput.create(schema, [rng.randrange(bound) for _ in range(m)])
        for _ in range(n)
    ]
    config = FrameworkConfig(
        group=group, schema=schema, num_participants=n,
        k=max(1, n // 8) if k is None else k, rho_bits=h,
    )
    result = GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(seed + 1)
    ).run()
    participant_metrics = result.participant_metrics()
    return CountedRun(
        n=n,
        beta_bits=config.beta_bits,
        max_participant_ops=max(
            (metrics.ops for metrics in participant_metrics),
            key=lambda ops: ops.equivalent_multiplications,
        ),
        max_participant_sent_bits=max(
            metrics.bits_sent for metrics in participant_metrics
        ),
        initiator_ops=result.metrics[0].ops,
        transcript=result.transcript,
        rounds=result.rounds,
    )
