"""Wire-path benchmark: bytes and wire messages per run at ``n = 16``.

Compares one full framework instance under two wire paths:

* **baseline** — wire format v1 (fixed 4-byte length framing, no
  interning) with per-datum transport: every ciphertext, every bit of a
  bitwise broadcast, travels as its own enveloped wire message.  The v1
  codec is no longer in ``src/``; its numbers on this instance are
  frozen below as recorded, and the live run's v2 payload digest must
  equal the recorded one, so both numbers describe the same instance;
* **optimized** — wire format v2 (varint framing + per-channel element
  interning) with per-round coalescing: all messages sharing a
  (sender, receiver, round) triple leave in one framed batch.  Measured
  live.

The acceptance bars are the PR's headline, sliced to phase 2 (keying +
comparison + chain — the hot path the coalescing targets): ≥ 2× fewer
bytes and ≥ 3× fewer wire messages.  An 8-byte test group keeps element
payloads small so framing and envelope overhead dominate, which is the
regime the optimization exists for (at DL-1024 the payload dominates and
both bars are easier).

Emits machine-readable ``results/BENCH_wire.json``.  With
``REPRO_BENCH_ENFORCE=1`` the run also compares against the *committed*
numbers and fails on a > 20 % regression in the phase-2 bytes-per-run
ratio — the nightly gate.  Marked ``perf``: not part of tier-1.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.harness import RESULTS_DIR, write_result
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.core.parties import (
    PHASE_CHAIN,
    PHASE_COMPARISON,
    PHASE_KEYING,
    phase_of_tag,
)
from repro.groups.params import make_test_group
from repro.math.rng import SeededRNG
from repro.runtime.faults import FaultSpec

pytestmark = pytest.mark.perf

N = 16
ATTRIBUTES = 4
GROUP_BITS = 64
MIN_BYTE_RATIO = 2.0       # phase-2 bytes: v1-per-datum / v2-coalesced
MIN_MESSAGE_RATIO = 3.0    # phase-2 wire messages, same comparison
REGRESSION_TOLERANCE = 0.20

#: The v1 per-datum baseline on this instance, as recorded while the v1
#: codec still shipped (phase 2, then the whole run).
V1_PHASE2_BYTES = 7_349_148
V1_PHASE2_WIRE_MESSAGES = 125_434
V1_TOTAL_BYTES = 7_366_266
V1_TOTAL_WIRE_MESSAGES = 125_482
#: The v2 payload digest of the instance the v1 numbers describe.
BASELINE_DIGEST_V2 = (
    "a844d17fe6999e98f9f578ca0602762f7374d2c0ccd4b2e0948de13a5145cdac"
)

PHASE2 = (PHASE_KEYING, PHASE_COMPARISON, PHASE_CHAIN)


def _instance(seed: int = 7):
    rng = SeededRNG(seed)
    schema = AttributeSchema(
        names=tuple(f"attr{i}" for i in range(ATTRIBUTES)),
        num_equal=ATTRIBUTES // 2,
        value_bits=6,
        weight_bits=4,
    )
    initiator = InitiatorInput.create(
        schema,
        [rng.randrange(64) for _ in range(ATTRIBUTES)],
        [rng.randrange(16) for _ in range(ATTRIBUTES)],
    )
    participants = [
        ParticipantInput.create(
            schema, [rng.randrange(64) for _ in range(ATTRIBUTES)]
        )
        for _ in range(N)
    ]
    return schema, initiator, participants


#: A one-spec fault plan that never fires: the run frames every message
#: alone, as a faulted run does, and is otherwise the fault-free run.
NEVER_FIRES = [FaultSpec(kind="drop", party=1, tag="never-sent")]


def _run(schema, initiator, participants, faults=None):
    config = FrameworkConfig(
        group=make_test_group(GROUP_BITS),
        schema=schema,
        num_participants=N,
        k=3,
        rho_bits=8,
    )
    framework = GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(7)
    )
    result = framework.run(faults)
    assert framework.check_result(result) == []
    return result


def _phase2_slice(stats):
    bits = sum(
        value for tag, value in stats.bits_by_tag.items()
        if phase_of_tag(tag) in PHASE2
    )
    messages = sum(
        value for tag, value in stats.messages_by_tag.items()
        if phase_of_tag(tag) in PHASE2
    )
    return bits, messages


def test_wire_v2_coalesced_vs_v1_per_datum():
    schema, initiator, participants = _instance()

    optimized = _run(schema, initiator, participants)
    assert optimized.wire_stats.digest == BASELINE_DIGEST_V2

    opt_bits, opt_messages = _phase2_slice(optimized.wire_stats)
    byte_ratio = 8 * V1_PHASE2_BYTES / opt_bits
    message_ratio = V1_PHASE2_WIRE_MESSAGES / opt_messages

    payload = {
        "bench": "wire_path",
        "group": f"DL-{GROUP_BITS}",
        "n": N,
        "attributes": ATTRIBUTES,
        "phase2": {
            "baseline_v1_per_datum": {
                "bytes": V1_PHASE2_BYTES,
                "wire_messages": V1_PHASE2_WIRE_MESSAGES,
            },
            "optimized_v2_coalesced": {
                "bytes": opt_bits // 8,
                "wire_messages": opt_messages,
            },
            "byte_ratio": round(byte_ratio, 2),
            "message_ratio": round(message_ratio, 2),
        },
        "total": {
            "baseline_bytes": V1_TOTAL_BYTES,
            "optimized_bytes": optimized.wire_stats.wire_bits // 8,
            "baseline_wire_messages": V1_TOTAL_WIRE_MESSAGES,
            "optimized_wire_messages": optimized.wire_stats.wire_messages,
            "logical_messages": optimized.wire_stats.logical_messages,
        },
        "digest_v2": optimized.wire_stats.digest,
    }

    # Nightly regression gate: read the committed numbers BEFORE
    # overwriting them.
    committed_path = RESULTS_DIR / "BENCH_wire.json"
    committed_ratio = None
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        committed_ratio = committed.get("phase2", {}).get("byte_ratio")
    write_result("BENCH_wire", json.dumps(payload, indent=2), suffix="json")

    assert byte_ratio >= MIN_BYTE_RATIO, payload
    assert message_ratio >= MIN_MESSAGE_RATIO, payload

    if os.environ.get("REPRO_BENCH_ENFORCE", "") == "1" and committed_ratio:
        floor = committed_ratio * (1.0 - REGRESSION_TOLERANCE)
        assert byte_ratio >= floor, (
            f"phase-2 byte ratio regressed: {byte_ratio:.2f}x vs committed "
            f"{committed_ratio:.2f}x (floor {floor:.2f}x)"
        )


def test_digest_stable_across_coalescing():
    """The batching must never change what is said — only how it is
    framed.  Same instance, batched vs every message framed alone (the
    framing of a faulted run): identical ranks and payload digests,
    and transcripts that add up to their wire stats."""
    schema, initiator, participants = _instance(seed=11)
    on = _run(schema, initiator, participants)
    off = _run(schema, initiator, participants, NEVER_FIRES)
    assert on.ranks == off.ranks
    assert on.wire_stats.digest == off.wire_stats.digest
    assert on.wire_stats.wire_messages < off.wire_stats.wire_messages / 3
    for result in (on, off):
        assert result.transcript.total_bits == result.wire_stats.wire_bits
        assert result.transcript.total_frames == result.wire_stats.wire_messages
