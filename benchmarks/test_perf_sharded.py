"""Flat vs hierarchical (sharded) ranking at the crossover bench point.

Runs the full framework at n=64 twice over the same 64-bit test DL
group — once flat, once with ``shard_size=16`` — and compares the two
costs the sharding exists to cut:

* **group multiplications** — ``total_participant_multiplications()``,
  the protocol's computation currency (the aggregation layer's *field*
  multiplications are a different, far cheaper unit and are reported
  separately);
* **wire bits** — ``transcript.total_bits``, which for the sharded run
  already includes the champion-aggregation round's field messages
  (merged as the synthetic ``shard-aggregate`` transcript round).

Acceptance bars (ISSUE 8): the sharded run must beat flat by ≥3x on
both metrics, and the measured counts must agree with the symbolic
``CrossoverModel`` within documented constant factors.  The model
counts abstract units (every group multiplication equally, analytic
ciphertext sizes), the run counts concrete ones (multi-exp ladders,
wire framing), so exact equality is not expected; the band below is
the observed envelope with ~3x headroom on each side.

Emits machine-readable ``results/BENCH_sharded.json``.  With
``REPRO_BENCH_ENFORCE=1`` the measured speedups are additionally gated
against the committed numbers minus a relative margin, so an erosion
of the sharding win fails the nightly even while still above 3x.
Marked ``perf``: not part of tier-1.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.harness import RESULTS_DIR, write_result
from repro.analysis.symbolic import CrossoverModel
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.params import make_test_group
from repro.math.rng import SeededRNG

pytestmark = pytest.mark.perf

N = 64
K = 2
SHARD_SIZE = 16
MIN_SPEEDUP = 3.0
#: Measured/modeled count ratio must stay inside this band.  Observed
#: constants on the committed run: 1.03–1.10 on multiplications, 1.22
#: on flat bits and 1.46 on sharded bits (measured bits carry framing
#: and envelopes the model leaves out, and the binary search took 14
#: probes where the expected-case estimate says 5, inflating the
#: aggregation term); the band leaves ~1.7x headroom on each side.
MODEL_BAND = (0.5, 2.5)
#: Enforce mode: fail when a speedup drops below committed × (1 − this).
REGRESSION_MARGIN = 0.20


def _framework(shard_size, group):
    schema = AttributeSchema(
        names=("age", "pressure", "friends", "income"),
        num_equal=2, value_bits=6, weight_bits=4,
    )
    initiator = InitiatorInput.create(
        schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7]
    )
    rng = SeededRNG(19)
    bound = 1 << schema.value_bits
    participants = [
        ParticipantInput.create(
            schema, [rng.randrange(bound) for _ in range(schema.dimension)]
        )
        for _ in range(N)
    ]
    config = FrameworkConfig(
        group=group, schema=schema, num_participants=N, k=K, rho_bits=8,
        shard_size=shard_size,
    )
    return config, GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(5)
    )


def _timed_run(shard_size, group):
    config, framework = _framework(shard_size, group)
    start = time.perf_counter()
    result = framework.run()
    return config, framework, result, time.perf_counter() - start


def test_sharded_vs_flat_speedup():
    group = make_test_group()
    config, sharded_fw, sharded, sharded_s = _timed_run(SHARD_SIZE, group)
    _, flat_fw, flat, flat_s = _timed_run(0, group)

    # Same protocol, same answers: one global ρ means β values (and
    # therefore the top-k winners) are byte-identical across modes.
    assert flat.betas == sharded.betas
    flat_winners = sorted(j for j, r in flat.ranks.items() if r <= K)
    sharded_winners = sorted(j for j, r in sharded.ranks.items() if r <= K)
    assert flat_winners == sharded_winners
    assert flat_fw.check_result(flat) == []
    assert sharded_fw.check_result(sharded) == []

    flat_mults = flat.total_participant_multiplications()
    sharded_mults = sharded.total_participant_multiplications()
    flat_bits = flat.transcript.total_bits
    sharded_bits = sharded.transcript.total_bits
    mult_speedup = flat_mults / sharded_mults
    bit_speedup = flat_bits / sharded_bits

    model = CrossoverModel(
        SHARD_SIZE, config.beta_bits, group.order.bit_length(), K,
        ciphertext_bits=2 * group.element_bits,
    )
    agreement = {
        "flat_multiplications": flat_mults
        / model.evaluate("multiplications", N, sharded=False),
        "sharded_multiplications": sharded_mults
        / model.evaluate("multiplications", N, sharded=True),
        "flat_bits": flat_bits / model.evaluate("bits", N, sharded=False),
        "sharded_bits": sharded_bits / model.evaluate("bits", N, sharded=True),
    }
    crossovers = {
        metric: model.crossover(metric) for metric in ("multiplications", "bits")
    }

    aggregation = sharded.aggregation
    payload = {
        "bench": "sharded_vs_flat",
        "n": N,
        "k": K,
        "shard_size": SHARD_SIZE,
        "group": group.name,
        "beta_bits": config.beta_bits,
        "flat": {
            "multiplications": flat_mults,
            "bits": flat_bits,
            "seconds": round(flat_s, 2),
        },
        "sharded": {
            "multiplications": sharded_mults,
            "bits": sharded_bits,
            "seconds": round(sharded_s, 2),
            "shard_sizes": sharded.shard_sizes,
            "aggregation_field_multiplications": aggregation.metrics.multiplications,
            "aggregation_bits": sharded.aggregation_bits,
            "aggregation_field_bits": aggregation.field_bits,
            "aggregation_used_fallback": aggregation.used_fallback,
        },
        "multiplication_speedup": round(mult_speedup, 2),
        "bit_speedup": round(bit_speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "model_agreement": {k: round(v, 3) for k, v in agreement.items()},
        "model_band": MODEL_BAND,
        "model_crossover": crossovers,
        "model_predicted_speedup": {
            "multiplications": round(model.speedup("multiplications", N), 2),
            "bits": round(model.speedup("bits", N), 2),
        },
    }

    committed_path = RESULTS_DIR / "BENCH_sharded.json"
    committed = (
        json.loads(committed_path.read_text()) if committed_path.exists() else {}
    )
    write_result("BENCH_sharded", json.dumps(payload, indent=2), suffix="json")

    # Headline gates: ≥3x on both currencies.
    assert mult_speedup >= MIN_SPEEDUP, payload
    assert bit_speedup >= MIN_SPEEDUP, payload

    # The symbolic model must track every measured count within the
    # documented constant-factor band, and must place the crossover at
    # or below the bench point (sharding already winning at n=64).
    for name, ratio in agreement.items():
        assert MODEL_BAND[0] <= ratio <= MODEL_BAND[1], (name, ratio)
    for metric, crossover in crossovers.items():
        assert crossover is not None and crossover <= N, (metric, crossover)

    if os.environ.get("REPRO_BENCH_ENFORCE", "") == "1" and committed:
        for key, measured in (
            ("multiplication_speedup", mult_speedup),
            ("bit_speedup", bit_speedup),
        ):
            baseline = committed.get(key)
            if baseline is None:
                continue
            floor = baseline * (1.0 - REGRESSION_MARGIN)
            assert measured >= floor, (
                f"{key} regressed: {measured:.2f} vs committed "
                f"{baseline:.2f} (floor {floor:.2f})"
            )
