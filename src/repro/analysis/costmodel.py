"""Calibrated per-operation costs → estimated execution time.

The paper reports wall-clock seconds of Crypto++ on a 2002 Pentium 4.
We reproduce the *shape* of those curves by (1) executing the real
protocols and counting operations exactly, then (2) multiplying the
counts by per-operation costs measured **on this machine at the true
group sizes** (1024/2048/3072-bit DL groups, 160-256-bit curves).
DESIGN.md §5 documents why this substitution preserves every trend the
evaluation checks.

Calibration runs under the pure-Python backend unless asked otherwise:
the figures price every group in the same CPython big-int arithmetic,
and curve point arithmetic has no native kernel here, so timing DL on
libgmp would compare C against Python rather than DL against ECC.

Calibration results are cached per process; a full calibration sweep
takes well under a second per group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from repro.groups.base import Group, OperationCounter
from repro.groups.curves import get_curve
from repro.groups.dl import DLGroup
from repro.groups.params import TIERS
from repro.math import backend
from repro.math.rng import SeededRNG

_TIER_CURVES = tuple(tier.curve for tier in TIERS.values())


@dataclass(frozen=True)
class CostModel:
    """Seconds per operation for one group (or field)."""

    name: str
    seconds_per_exponentiation: float
    seconds_per_multiplication: float

    def seconds_for(self, counter: OperationCounter) -> float:
        """Estimated seconds for a counted workload."""
        return (
            counter.exponentiations * self.seconds_per_exponentiation
            + counter.multiplications * self.seconds_per_multiplication
            + counter.inversions * self.seconds_per_multiplication * 8
        )

    def seconds_for_counts(self, exponentiations: float, multiplications: float = 0.0) -> float:
        return (
            exponentiations * self.seconds_per_exponentiation
            + multiplications * self.seconds_per_multiplication
        )


def _time_operations(
    operations: Sequence[Callable[[], object]], repetitions: int, batches: int = 5
) -> List[float]:
    """Best-of-batches per-operation time of each operation.

    The minimum over batches is robust to scheduler noise and concurrent
    load, which a mean is not — and for a deterministic arithmetic
    operation the minimum is the honest estimate of its cost.  Batches
    are interleaved (each round times every operation once), so a burst
    of load lands on all of them alike instead of skewing their ratio.
    """
    per_batch = max(1, repetitions // batches)
    best = [float("inf")] * len(operations)
    for _ in range(batches):
        for index, operation in enumerate(operations):
            start = time.perf_counter()
            for _ in range(per_batch):
                operation()
            elapsed = (time.perf_counter() - start) / per_batch
            best[index] = min(best[index], elapsed)
    return best


def _calibrate_groups(
    groups: Dict[str, Group], repetitions: int, arithmetic: str
) -> Dict[str, CostModel]:
    """Cost models for ``groups``, timed side by side under the
    ``arithmetic`` backend."""
    exps, muls = [], []
    for group in groups.values():
        rng = SeededRNG(0xCA11B)
        base = group.random_element(rng)
        other = group.random_element(rng)
        exponent = group.random_exponent(rng)
        exps.append(lambda g=group, a=base, k=exponent: g.exp(a, k))
        muls.append(lambda g=group, a=base, b=other: g.mul(a, b))
    with backend.use_backend(arithmetic):
        exp_costs = _time_operations(exps, repetitions)
        mul_costs = _time_operations(muls, repetitions * 20)
    return {
        name: CostModel(
            name=name,
            seconds_per_exponentiation=exp_cost,
            seconds_per_multiplication=mul_cost,
        )
        for name, exp_cost, mul_cost in zip(groups, exp_costs, mul_costs)
    }


@lru_cache(maxsize=None)
def calibrate_dl(
    modulus_bits: int, repetitions: int = 30, arithmetic: str = "python"
) -> CostModel:
    """Measured cost of the standardized DL group of the given size,
    timed under the ``arithmetic`` backend (the python reference unless
    asked otherwise)."""
    name = f"DL-{modulus_bits}"
    group = DLGroup.standard(modulus_bits)
    return _calibrate_groups({name: group}, repetitions, arithmetic)[name]


@lru_cache(maxsize=None)
def _calibrate_curves(names: Tuple[str, ...], repetitions: int) -> Dict[str, CostModel]:
    return _calibrate_groups(
        {name: get_curve(name) for name in names}, repetitions, "python"
    )


def calibrate_ecc(curve_name: str, repetitions: int = 30) -> CostModel:
    """Measured cost of a standard curve (exp = scalar mult, mul = add).

    A tier curve is timed together with the other two, batch by batch,
    so their order (which Fig. 3a checks) survives a noisy host."""
    names = _TIER_CURVES if curve_name in _TIER_CURVES else (curve_name,)
    return _calibrate_curves(names, repetitions)[curve_name]


@lru_cache(maxsize=None)
def calibrate_field(field_bits: int, repetitions: int = 50_000) -> CostModel:
    """Measured cost of one modular multiplication in a ``field_bits`` field.

    Used for the SS baseline, whose unit of work is the field
    multiplication.  The "exponentiation" entry is the same unit so that
    :meth:`CostModel.seconds_for_counts` reads naturally either way.

    Uses :mod:`timeit` (compiled statement loop, best of 5) because a
    single small-int ``a*b%p`` costs tens of nanoseconds — per-call
    lambda overhead would otherwise dominate the measurement.
    """
    import timeit

    from repro.math.primes import next_prime

    p = next_prime(1 << (field_bits - 1))
    a = (1 << (field_bits - 1)) - 12345
    b = (1 << (field_bits - 1)) - 67891
    timer = timeit.Timer("a * b % p", globals={"a": a, "b": b, "p": p})
    cost = min(timer.repeat(repeat=5, number=repetitions)) / repetitions
    return CostModel(
        name=f"field-{field_bits}",
        seconds_per_exponentiation=cost,
        seconds_per_multiplication=cost,
    )


def cost_model_for(family: str, security_level: int) -> CostModel:
    """The paper's Fig. 3(a) tiers: family in {"DL", "ECC"}."""
    if security_level not in TIERS:
        raise ValueError(f"unsupported security level {security_level}")
    tier = TIERS[security_level]
    family = family.upper()
    if family == "DL":
        return calibrate_dl(tier.dl_bits)
    if family == "ECC":
        return calibrate_ecc(tier.curve)
    raise ValueError("family must be 'DL' or 'ECC'")
