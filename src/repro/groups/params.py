"""Convenience constructors tying security levels to concrete groups.

The paper's Fig. 3(a) compares DL and ECC instantiations at the NIST
equivalences (FIPS 140-2 IG): 80-bit ⇔ DL-1024 / ECC-160,
112-bit ⇔ DL-2048 / ECC-224, 128-bit ⇔ DL-3072 / ECC-256.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.groups.base import Group, OperationCounter
from repro.groups.curves import get_curve
from repro.groups.dl import DLGroup
from repro.math.rng import RNG, SeededRNG


class Tier(NamedTuple):
    """One Fig. 3(a) security tier."""

    dl_bits: int      # DL modulus bits
    curve: str        # the standard curve
    curve_bits: int   # the curve width counting runs mimic (CountingGroup)


#: The paper's Fig. 3(a) tiers: symmetric security level -> :class:`Tier`.
#: The one copy; the cost model, the planner and the figure benches
#: read it from here.
TIERS = {
    80: Tier(1024, "secp160r1", 160),
    112: Tier(2048, "secp224r1", 224),
    128: Tier(3072, "secp256r1", 256),
}

#: symmetric security level -> (DL modulus bits, curve name)
SECURITY_LEVELS = {level: (tier.dl_bits, tier.curve) for level, tier in TIERS.items()}


def make_dl_group(bits: int, counter: Optional[OperationCounter] = None) -> DLGroup:
    """The standardized DL group with a ``bits``-bit safe-prime modulus."""
    return DLGroup.standard(bits, counter=counter)


def make_ecc_group(name: str, counter: Optional[OperationCounter] = None) -> Group:
    """A verified standard elliptic curve group by curve name."""
    group = get_curve(name)
    group.attach_counter(counter)
    return group


def group_for_security_level(
    level: int, family: str, counter: Optional[OperationCounter] = None
) -> Group:
    """The paper's group for a symmetric security ``level`` and ``family``.

    ``family`` is ``"DL"`` or ``"ECC"``; ``level`` one of 80, 112, 128.
    """
    if level not in TIERS:
        raise ValueError(f"unsupported level {level}; supported: {sorted(TIERS)}")
    tier = TIERS[level]
    family = family.upper()
    if family == "DL":
        return make_dl_group(tier.dl_bits, counter=counter)
    if family == "ECC":
        return make_ecc_group(tier.curve, counter=counter)
    raise ValueError("family must be 'DL' or 'ECC'")


def make_test_group(
    bits: int = 64, seed: int = 0, counter: Optional[OperationCounter] = None
) -> DLGroup:
    """A small deterministic DL group for unit tests and examples.

    Not secure; exists so full protocol runs finish in milliseconds.
    """
    return DLGroup.random(bits, rng=SeededRNG(seed), counter=counter)
