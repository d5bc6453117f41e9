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
* ``accelerated``  — multiexp kernels + offline randomness pool, as the
  protocol runs them: pooled bit encryption, then one
  :class:`~repro.runtime.parallel.TauJob` per peer carrying the pool's
  generator table, through ``WorkerPool(1)`` (the pool build runs
  before the clock starts — that is the whole point of an offline
  phase).
* ``parallel``     — the same jobs through a 4-worker process pool
  (pre-warmed, as a long-lived runtime would hold it).

``pool_vs_serial_twin`` times the same τ jobs alone through
``WorkerPool(4)`` and ``WorkerPool(1)``, the best of interleaved passes
each, so a burst of host load lands on both alike.

Emits machine-readable ``results/BENCH_parallel.json`` and asserts the
headline ratios: parallel ≥ 1.8× over baseline, accelerated serial
≥ 1.3× over baseline, and, where ``os.cpu_count() >= MIN_CORES`` (a
2-core host cannot show a 4-worker win), the pool ≥ 1.2× over its
serial twin.  With ``REPRO_BENCH_ENFORCE=1`` the twin ratio is also
compared against the committed one when both the committed artifact and
the current runner have those cores.  Marked ``perf``: not part of
tier-1.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.harness import RESULTS_DIR, write_result
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
MIN_CORES = 4          # below this, a 4-worker pool cannot win
MIN_TWIN_SPEEDUP = 1.2
REGRESSION_TOLERANCE = 0.25


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


def _comparison_phase_serial(group, keypair, my_beta, peer_bits, rng):
    """One participant's step 6 + step 7 workload, without the pool."""
    BitwiseElGamal(group).encrypt(my_beta, WIDTH, keypair.public, rng)
    comparator = HomomorphicComparator(group)
    my_set = []
    for bits in peer_bits:
        my_set.extend(comparator.encrypted_taus(my_beta, bits))
    return my_set


def _tau_jobs(group, my_beta, peer_bits, pool):
    """The step-7 jobs a participant builds under multiexp + precompute."""
    return [
        TauJob(group=group, beta=my_beta, other_bits=tuple(bits.bits),
               multiexp=True, generator_table=pool.generator_table)
        for bits in peer_bits
    ]


def _comparison_phase_jobs(group, keypair, my_beta, peer_bits, rng, pool,
                           worker_pool):
    """Step 6 + step 7 as the protocol runs them: pooled bit encryption,
    then the τ jobs through ``worker_pool``."""
    BitwiseElGamal(group, pool=pool, multiexp=True).encrypt(
        my_beta, WIDTH, keypair.public, rng
    )
    my_set = []
    for taus, _ in worker_pool.map(
        evaluate_tau_job, _tau_jobs(group, my_beta, peer_bits, pool)
    ):
        my_set.extend(taus)
    return my_set


def _best_of_interleaved(fns, rounds=7):
    """Best wall-clock of each function over ``rounds`` passes, each
    pass running every function once, back to back."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


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
    with WorkerPool(1) as inline:
        t0 = time.perf_counter()
        accelerated = _comparison_phase_jobs(
            group, keypair, my_beta, peer_bits, SeededRNG(7), pool, inline
        )
        accelerated_s = time.perf_counter() - t0

    pool2 = RandomnessPool(group, keypair.public, SeededRNG(8), size=WIDTH)
    jobs = _tau_jobs(group, my_beta, peer_bits, pool2)
    with WorkerPool(WORKERS) as workers, WorkerPool(1) as inline:
        # Pre-warm: fork the worker processes before the clock starts.
        workers.map(evaluate_tau_job, jobs[:WORKERS])
        t0 = time.perf_counter()
        parallel = _comparison_phase_jobs(
            group, keypair, my_beta, peer_bits, SeededRNG(7), pool2, workers
        )
        parallel_s = time.perf_counter() - t0
        twin_serial_s, twin_pool_s = _best_of_interleaved([
            lambda: inline.map(evaluate_tau_job, jobs),
            lambda: workers.map(evaluate_tau_job, jobs),
        ])
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
    twin = twin_serial_s / twin_pool_s
    cores = os.cpu_count() or 1
    payload = {
        "bench": "parallel_comparison_engine",
        "group": f"DL-{GROUP_BITS}",
        "n": N_PEERS + 1,
        "beta_bits": WIDTH,
        "workers": WORKERS,
        "cores": cores,
        "fanout_live": fanout_live,
        "seconds": {
            "baseline_serial": round(baseline_s, 4),
            "default_serial": round(default_s, 4),
            "multiexp_pool_serial": round(accelerated_s, 4),
            "multiexp_pool_parallel": round(parallel_s, 4),
            "tau_jobs_serial_twin_best": round(twin_serial_s, 4),
            "tau_jobs_pool_best": round(twin_pool_s, 4),
        },
        "speedup": {
            "parallel_vs_baseline": round(speedup_parallel, 2),
            "serial_accel_vs_baseline": round(speedup_serial, 2),
            "default_vs_baseline": round(baseline_s / default_s, 2),
            "pool_vs_serial_twin": round(twin, 2),
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
    committed_path = RESULTS_DIR / "BENCH_parallel.json"
    committed = None
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
    write_result("BENCH_parallel", json.dumps(payload, indent=2), suffix="json")

    # Headline acceptance ratios.
    assert speedup_serial >= 1.3, payload
    assert speedup_parallel >= 1.8, payload
    # The multiexp circuit must be dramatically cheaper in the paper's unit.
    assert (
        fast_ops.equivalent_multiplications
        < plain_ops.equivalent_multiplications / 3
    ), payload
    if cores >= MIN_CORES:
        assert twin >= MIN_TWIN_SPEEDUP, payload
    # Nightly gate: only meaningful when the committed baseline and the
    # current runner both had the cores to show a real fan-out.
    committed_twin = (committed or {}).get("speedup", {}).get("pool_vs_serial_twin")
    if (
        os.environ.get("REPRO_BENCH_ENFORCE", "") == "1"
        and committed_twin is not None
        and committed.get("cores", 1) >= MIN_CORES
        and cores >= MIN_CORES
    ):
        floor = committed_twin * (1.0 - REGRESSION_TOLERANCE)
        assert twin >= floor, (
            f"pool-vs-serial-twin speedup regressed: {twin:.2f}x vs "
            f"committed {committed_twin:.2f}x (floor {floor:.2f}x)"
        )
