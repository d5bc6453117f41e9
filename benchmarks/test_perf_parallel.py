"""Wall-clock benchmark of the parallel comparison engine (this repo's
offline/online + multiexp + process-pool stack) against the plain serial
path, at a real group size.

Unlike the counting benches (which estimate time from metered operation
counts), this one *times* the step-6/7 workload one participant faces
for ``n = 16`` peers at 1024-bit DL: bitwise-encrypt β, then evaluate
the τ circuit against every peer's published bits.

Four configurations:

* ``baseline``     — textbook scheme, serial, over
  :class:`~repro.groups.dl.TextbookDLGroup` (one full-width ``powmod``
  per exponentiation).
* ``default``      — the same scheme over :class:`~repro.groups.dl.DLGroup`,
  whose ``exp`` takes the short-exponent and fixed-base kernels below
  its meter; reported, not gated.
* ``accelerated``  — multiexp kernels + offline randomness pool,
  workers = 1 (the pool build runs before the clock starts — that is
  the whole point of an offline phase).
* ``parallel``     — the same plus a 4-worker process pool (pre-warmed,
  as a long-lived runtime would hold it).

Emits machine-readable ``results/BENCH_parallel.json`` and asserts the
headline ratios: parallel ≥ 1.8× over baseline, accelerated serial
≥ 1.3× over baseline.  Marked ``perf``: not part of tier-1.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.harness import write_result
from repro.core.comparison import HomomorphicComparator
from repro.crypto.bitenc import BitwiseElGamal
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.precompute import RandomnessPool
from repro.groups.dl import DLGroup, TextbookDLGroup
from repro.math.rng import SeededRNG
from repro.runtime.parallel import TauJob, WorkerPool, evaluate_tau_job

pytestmark = pytest.mark.perf

N_PEERS = 15          # one participant's view of n = 16
WIDTH = 24            # β bit length l
GROUP_BITS = 1024
WORKERS = 4


def _setup():
    group = DLGroup.standard(GROUP_BITS)
    rng = SeededRNG(41)
    keypair = ExponentialElGamal(group).generate_keypair(rng)
    betas = [rng.randrange(1 << WIDTH) for _ in range(N_PEERS)]
    my_beta = rng.randrange(1 << WIDTH)
    bitwise = BitwiseElGamal(group)
    peer_bits = [
        bitwise.encrypt(beta, WIDTH, keypair.public, rng) for beta in betas
    ]
    return group, keypair, my_beta, peer_bits


def _comparison_phase_serial(group, keypair, my_beta, peer_bits, rng,
                             multiexp=False, pool=None):
    """One participant's step 6 + step 7 workload."""
    bitwise = BitwiseElGamal(group, pool=pool, multiexp=multiexp)
    bitwise.encrypt(my_beta, WIDTH, keypair.public, rng)
    comparator = HomomorphicComparator(group, multiexp=multiexp, pool=pool)
    my_set = []
    for bits in peer_bits:
        my_set.extend(comparator.encrypted_taus(my_beta, bits))
    return my_set


def _comparison_phase_parallel(group, keypair, my_beta, peer_bits, rng,
                               pool, worker_pool):
    bitwise = BitwiseElGamal(group, pool=pool, multiexp=True)
    bitwise.encrypt(my_beta, WIDTH, keypair.public, rng)
    jobs = [
        TauJob(group=group, beta=my_beta, other_bits=tuple(bits.bits),
               multiexp=True)
        for bits in peer_bits
    ]
    my_set = []
    for taus, _ in worker_pool.map(evaluate_tau_job, jobs):
        my_set.extend(taus)
    return my_set


def _count_ops(group, fn):
    group.counter.reset()
    fn()
    snapshot = group.counter.snapshot()
    group.counter.reset()
    return snapshot


def test_parallel_comparison_speedup():
    group, keypair, my_beta, peer_bits = _setup()

    # -- timed runs ---------------------------------------------------------
    textbook = TextbookDLGroup.standard(GROUP_BITS)
    t0 = time.perf_counter()
    reference = _comparison_phase_serial(
        textbook, keypair, my_beta, peer_bits, SeededRNG(7)
    )
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    default = _comparison_phase_serial(
        group, keypair, my_beta, peer_bits, SeededRNG(7)
    )
    default_s = time.perf_counter() - t0

    # Offline phase (excluded from the online clock): enough pairs for the
    # bit encryption, plus warm fixed-base tables for the circuit shifts.
    pool = RandomnessPool(group, keypair.public, SeededRNG(8), size=WIDTH)
    t0 = time.perf_counter()
    accelerated = _comparison_phase_serial(
        group, keypair, my_beta, peer_bits, SeededRNG(7),
        multiexp=True, pool=pool,
    )
    accelerated_s = time.perf_counter() - t0

    pool2 = RandomnessPool(group, keypair.public, SeededRNG(8), size=WIDTH)
    with WorkerPool(WORKERS) as workers:
        # Pre-warm: fork the worker processes before the clock starts.
        workers.map(evaluate_tau_job, [
            TauJob(group=group, beta=1,
                   other_bits=tuple(peer_bits[0].bits[:2]), multiexp=True)
            for _ in range(WORKERS)
        ])
        t0 = time.perf_counter()
        parallel = _comparison_phase_parallel(
            group, keypair, my_beta, peer_bits, SeededRNG(7), pool2, workers
        )
        parallel_s = time.perf_counter() - t0
        fanout_live = workers.parallel

    # The kernels must not change a single element.
    assert default == reference
    assert accelerated == reference
    assert parallel == reference

    # -- op-count contrast (multiexp vs plain, one pairwise circuit) --------
    comparator_plain = HomomorphicComparator(group)
    comparator_fast = HomomorphicComparator(group, multiexp=True)
    plain_ops = _count_ops(
        group, lambda: comparator_plain.encrypted_taus(my_beta, peer_bits[0])
    )
    fast_ops = _count_ops(
        group, lambda: comparator_fast.encrypted_taus(my_beta, peer_bits[0])
    )

    speedup_parallel = baseline_s / parallel_s
    speedup_serial = baseline_s / accelerated_s
    payload = {
        "bench": "parallel_comparison_engine",
        "group": f"DL-{GROUP_BITS}",
        "n": N_PEERS + 1,
        "beta_bits": WIDTH,
        "workers": WORKERS,
        "cores": os.cpu_count(),
        "fanout_live": fanout_live,
        "seconds": {
            "baseline_serial": round(baseline_s, 4),
            "default_serial": round(default_s, 4),
            "multiexp_pool_serial": round(accelerated_s, 4),
            "multiexp_pool_parallel": round(parallel_s, 4),
        },
        "speedup": {
            "parallel_vs_baseline": round(speedup_parallel, 2),
            "serial_accel_vs_baseline": round(speedup_serial, 2),
            "default_vs_baseline": round(baseline_s / default_s, 2),
        },
        "ops_per_pairwise_circuit": {
            "plain": {
                "multiplications": plain_ops.multiplications,
                "exponentiations": plain_ops.exponentiations,
                "equivalent_multiplications": plain_ops.equivalent_multiplications,
            },
            "multiexp": {
                "multiplications": fast_ops.multiplications,
                "exponentiations": fast_ops.exponentiations,
                "equivalent_multiplications": fast_ops.equivalent_multiplications,
            },
        },
    }
    write_result("BENCH_parallel", json.dumps(payload, indent=2), suffix="json")

    # Headline acceptance ratios.
    assert speedup_serial >= 1.3, payload
    assert speedup_parallel >= 1.8, payload
    # The multiexp circuit must be dramatically cheaper in the paper's unit.
    assert (
        fast_ops.equivalent_multiplications
        < plain_ops.equivalent_multiplications / 3
    ), payload
