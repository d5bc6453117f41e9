"""Shared fixtures: small fast groups, deterministic RNGs, tiny schemas.

All protocol tests run over small (insecure, fast) groups so the whole
suite finishes quickly; the group *interfaces* and protocol logic are
identical at real sizes, and dedicated tests cover the standardized
1024-bit DL group and the verified standard curves.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.curves import build_tiny_curve
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG

# tests/test_config_space.py: every example runs the framework (some
# over tcp or a worker pool), so tier-1 draws a fixed, bounded sequence;
# the nightly job selects the larger profile with
# --hypothesis-profile=config-space-nightly.
_CONFIG_SPACE = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "config-space", max_examples=40, derandomize=True, database=None,
    **_CONFIG_SPACE,
)
settings.register_profile(
    "config-space-nightly", max_examples=400, **_CONFIG_SPACE
)


@pytest.fixture
def rng():
    return SeededRNG(0xDECADE)


@pytest.fixture(scope="session")
def small_dl_group():
    """A 48-bit DL group: fast, deterministic, structurally faithful."""
    return DLGroup.random(48, rng=SeededRNG(101))


@pytest.fixture(scope="session")
def tiny_dl_group():
    """A 32-bit DL group for the most exponentiation-heavy tests."""
    return DLGroup.random(32, rng=SeededRNG(202))


@pytest.fixture(scope="session")
def tiny_curve():
    """A brute-force-verified prime-order elliptic curve over a ~14-bit field."""
    return build_tiny_curve(field_bits=14, rng=SeededRNG(303))


@pytest.fixture
def small_schema():
    return AttributeSchema(
        names=("age", "pressure", "friends", "income"),
        num_equal=2,
        value_bits=6,
        weight_bits=4,
    )


@pytest.fixture
def small_initiator_input(small_schema):
    return InitiatorInput.create(
        small_schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7]
    )


def make_participants(schema, count, seed=17):
    """Deterministic random participant inputs for a schema."""
    rng = SeededRNG(seed)
    bound = 1 << schema.value_bits
    return [
        ParticipantInput.create(
            schema, [rng.randrange(bound) for _ in range(schema.dimension)]
        )
        for _ in range(count)
    ]


@pytest.fixture
def participants_factory():
    return make_participants
