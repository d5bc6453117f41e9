"""Transcript equivalence over the whole configuration space.

Each example draws a small instance (a ≤ 32-bit group, n = 2–4, k,
ρ width, inputs and seed) and a config that moves a few settable
``FrameworkConfig`` fields off their defaults.  It runs that config and
the *reference* config of the same instance (every other field at its
default) and asserts that ranks, β values and the selection, the
canonical wire digest, every party's metered group-operation counts,
the wire bytes and the rounds are the reference's, except where the
class of a moved field in :data:`FIELD_CLASS` allows a difference.
A "nothing" field moved together with others is also run against the
same move without it, and must change no aspect at all (over tcp, none
but the wall-clock ones, :data:`TCP_CLOCKED`).  Every run must also
pass the in-the-clear correctness check.

The tier-1 suite runs the bounded ``config-space`` hypothesis profile
(registered in ``tests/conftest.py``); the nightly job passes
``--hypothesis-profile=config-space-nightly`` for more examples.
"""

from __future__ import annotations

import dataclasses
import tempfile
from functools import lru_cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput
from repro.groups.curves import build_tiny_curve
from repro.groups.dl import DLGroup
from repro.math import backend
from repro.math.rng import SeededRNG
from repro.sharding.partition import shard_sizes
from tests.conftest import make_participants

NOTHING = "nothing"   # a byte-identical run
OPS = "ops"           # only the metered operation counts may move
WIRE = "wire"         # only wire bytes, framing, digest and rounds may move
OUTCOME = "outcome"   # anything may move, protocol values included

#: What each settable field may change against the reference config.
#: The instance fields (group .. rho_bits) are drawn for both runs, so
#: they never differ from the reference; they are classed for coverage.
FIELD_CLASS = {
    "group": OUTCOME,
    "schema": OUTCOME,
    "num_participants": OUTCOME,
    "k": OUTCOME,
    "rho_bits": OUTCOME,
    "rerandomize": OUTCOME,         # the paper's ablations
    "permute": OUTCOME,
    "naive_suffix": OPS,
    "zkp_mode": OUTCOME,
    "multiexp": OPS,
    "precompute": OUTCOME,          # a pool larger than the run needs draws ahead
    "workers": NOTHING,
    "batch_verify": OPS,
    "bit_proofs": OUTCOME,
    "stream_chunk_sets": WIRE,
    "recovery": NOTHING,            # the runs here are fault-free
    "timeout_rounds": NOTHING,
    "max_retries": NOTHING,
    "wire": NOTHING,                # "measured" is its only value
    "backend": NOTHING,
    "checkpoint_dir": NOTHING,
    "shard_size": OUTCOME,          # ranks below k become lower bounds
    "transport": WIRE,              # envelope attribution and round clocks
}

#: The aspects of a run each class lets differ.
ALLOWED = {
    NOTHING: frozenset(),
    OPS: frozenset({"ops"}),
    WIRE: frozenset({"digest", "wire", "rounds"}),
    OUTCOME: frozenset({"outcome", "digest", "ops", "wire", "rounds"}),
}

#: The aspects that differ between two tcp runs of one config: the round
#: clocks and the batched framing follow the wall clock.
TCP_CLOCKED = frozenset({"wire", "rounds"})

SCHEMA = AttributeSchema(
    names=("age", "pressure", "friends", "income"),
    num_equal=2, value_bits=6, weight_bits=4,
)
INITIATOR = InitiatorInput.create(SCHEMA, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7])

#: Non-default values of every field a drawn config may move.
SWITCHES = {
    "rerandomize": [False],
    "permute": [False],
    "naive_suffix": [True],
    "zkp_mode": ["fiat-shamir"],
    "multiexp": [True],
    "precompute": [4, 64],
    "workers": [2],
    "batch_verify": [True],
    "bit_proofs": [True],
    "stream_chunk_sets": [1, 2, 5],
    "recovery": [True],
    "timeout_rounds": [1, 3, 12],
    "max_retries": [0, 4],
    "backend": backend.available_backends(),
    "checkpoint_dir": ["<tmp>"],
    "shard_size": [2, 3, 4],
    "transport": ["tcp"],
}

#: The instance every single-field move runs on.
SWEEP_INSTANCE = ("dl32", 4, 2, 6, 0)


@lru_cache(maxsize=None)
def _group(name):
    if name == "dl32":
        return DLGroup.random(32, rng=SeededRNG(202))
    return build_tiny_curve(field_bits=14, rng=SeededRNG(303))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 4))
    return (
        draw(st.sampled_from(["dl32", "curve14"])),
        n,
        draw(st.integers(1, n)),
        draw(st.sampled_from([6, 4])),   # rho_bits
        draw(st.integers(0, 1)),         # input and RNG seed
    )


@st.composite
def moves(draw):
    """A few fields moved off their defaults, tcp only where it composes."""
    moved = draw(st.permutations(sorted(SWITCHES)))[:draw(st.integers(1, 3))]
    if "transport" in moved:
        moved = [name for name in moved if name not in ("shard_size", "workers")]
    return {name: draw(st.sampled_from(SWITCHES[name])) for name in moved}


def _config(instance, **moved):
    group_name, n, k, rho_bits, _ = instance
    return FrameworkConfig(
        group=_group(group_name), schema=SCHEMA, num_participants=n, k=k,
        rho_bits=rho_bits, **moved,
    )


def _run(instance, config):
    seed = instance[-1]
    participants = make_participants(SCHEMA, config.num_participants, seed=30 + seed)
    framework = GroupRankingFramework(
        config, INITIATOR, participants, rng=SeededRNG(seed)
    )
    result = framework.run()
    assert framework.check_result(result) == []
    return _aspects(result)


def _aspects(result):
    wire = result.wire_stats
    entries = result.transcript.entries
    return {
        "outcome": (
            sorted(result.ranks.items()),
            sorted(result.betas.items()),
            result.selected_ids(),
        ),
        "digest": wire.canonical_digest,
        "ops": {
            pid: (m.ops.multiplications, m.ops.exponentiations,
                  m.ops.exponent_bits, m.ops.inversions)
            for pid, m in sorted(result.metrics.items())
        },
        "wire": (
            wire.wire_bits, wire.payload_bits, wire.wire_messages,
            wire.logical_messages,
            [(e.src, e.dst, e.tag, e.size_bits, e.frames) for e in entries],
            {pid: (m.messages_sent, m.messages_received, m.bits_sent, m.bits_received)
             for pid, m in sorted(result.metrics.items())},
        ),
        "rounds": (result.rounds, [e.round for e in entries]),
    }


@lru_cache(maxsize=None)
def _reference(instance):
    return _run(instance, _config(instance))


def _two_champions(instance, moved):
    _, n, k, _, _ = instance
    shard = moved.get("shard_size", 0)
    return 0 < shard < n and sum(min(k, s) for s in shard_sizes(n, shard)) == 2


def _profile():
    name = settings.get_current_profile_name()
    return settings.get_profile(
        name if name == "config-space-nightly" else "config-space"
    )


class TestConfigSpace:
    def test_table_classes_every_settable_field(self):
        settable = [f.name for f in dataclasses.fields(FrameworkConfig) if f.init]
        assert len(settable) == 23
        assert sorted(FIELD_CLASS) == sorted(settable)
        assert set(FIELD_CLASS.values()) <= set(ALLOWED)
        assert set(SWITCHES) <= set(FIELD_CLASS)

    def test_derived_widths_are_not_settable(self):
        config = _config(("dl32", 3, 2, 6, 0))
        assert config.beta_bits > 0 and config.dp_field_prime > 1 << config.beta_bits
        for name in ("beta_bits", "dp_field_prime"):
            with pytest.raises(TypeError):
                _config(("dl32", 3, 2, 6, 0), **{name: 7})

    @pytest.mark.parametrize("moved,match", [
        (dict(transport="tcp", shard_size=2), "sharded hierarchy"),
        (dict(transport="tcp", workers=2), "workers must be 1"),
        # Two shards of 2 at k = 1 rank two champions.
        (dict(shard_size=2), "2 shard champions"),
    ], ids=["tcp-sharding", "tcp-workers", "two-champions"])
    def test_invalid_combinations_raise_when_built(self, moved, match):
        with pytest.raises(ValueError, match=match):
            _config(("dl32", 4, 1, 6, 0), **moved)

    @pytest.mark.parametrize("name,value", [
        (name, value) for name, values in sorted(SWITCHES.items()) for value in values
    ])
    def test_each_field_alone(self, name, value):
        _check(SWEEP_INSTANCE, {name: value})

    @pytest.mark.parametrize("moved", [
        dict(precompute=64, workers=2),
        dict(multiexp=True, precompute=4, workers=2),
        dict(shard_size=3, workers=2),
        dict(stream_chunk_sets=2, workers=2),
        dict(precompute=64, checkpoint_dir="<tmp>"),
    ], ids=lambda moved: "+".join(f"{k}={v}" for k, v in moved.items()))
    def test_nothing_field_on_top_of_others(self, moved):
        _check(SWEEP_INSTANCE, moved)

    @_profile()
    @given(instance=instances(), moved=moves())
    def test_moved_fields_change_only_what_their_class_allows(self, instance, moved):
        for name in moved:
            event(f"moves {name}")
        _check(instance, moved)


def _run_moved(instance, moved):
    with tempfile.TemporaryDirectory() as directory:
        if "checkpoint_dir" in moved:
            moved = dict(moved, checkpoint_dir=directory)
        return _run(instance, _config(instance, **moved))


def _check(instance, moved):
    """Run ``moved`` on ``instance`` against the instance's reference,
    and against ``moved`` without each "nothing" field in it: such a
    field changes nothing, whatever else moves with it."""
    if _two_champions(instance, moved):
        with pytest.raises(ValueError, match="2 shard champions"):
            _config(instance, **moved)
        return
    allowed = frozenset().union(*(ALLOWED[FIELD_CLASS[name]] for name in moved))
    got = _run_moved(instance, moved)
    want = _reference(instance)
    for aspect in sorted(set(want) - allowed):
        assert got[aspect] == want[aspect], (aspect, sorted(moved))
    clocked = TCP_CLOCKED if moved.get("transport") == "tcp" else frozenset()
    for name in moved:
        if FIELD_CLASS[name] == NOTHING and len(moved) > 1:
            without = {other: v for other, v in moved.items() if other != name}
            twin = _run_moved(instance, without)
            for aspect in sorted(set(want) - clocked):
                assert got[aspect] == twin[aspect], (aspect, name, sorted(moved))
