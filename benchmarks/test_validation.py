"""Validation of the benching methodology itself.

Two claims DESIGN.md §5 makes must hold for the figure benches to mean
anything:

1. **Counting runs are exact** — the inert :class:`CountingGroup`
   executes the identical protocol path, so its operation counters must
   match a fully-real group run to the operation.
2. **Quadratic extrapolation is exact (to data noise)** — per-participant
   counts are degree-2 polynomials in n, so a three-point fit predicts a
   held-out fourth point to within the input-data jitter.
"""

import pytest

from benchmarks.harness import counting_run, extrapolate_counts
from repro.analysis.counting import CountingGroup, counted_run
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG

PARAMS = dict(m=6, t=2, d1=8, d2=8, h=8)


def run_with_group(group, n):
    """The costliest participant's counts of the counting driver's
    instance, run on ``group``."""
    return counted_run(
        group, n, m=PARAMS["m"], num_equal=PARAMS["t"], d1=PARAMS["d1"],
        d2=PARAMS["d2"], h=PARAMS["h"],
    ).max_participant_ops


def test_counting_group_matches_real_group_exactly(benchmark):
    real_ops = run_with_group(DLGroup.random(20, rng=SeededRNG(5)), 6)
    counted_ops = run_with_group(CountingGroup(element_bits=1024), 6)
    assert counted_ops.exponentiations == real_ops.exponentiations
    assert counted_ops.multiplications == real_ops.multiplications
    assert counted_ops.inversions == real_ops.inversions
    benchmark(lambda: run_with_group(CountingGroup(element_bits=1024), 6))


def test_distributed_ss_round_cost_supports_fig3b_model(benchmark):
    """The Fig. 3(b) SS bracket models assume ≥ ROUNDS_PER_COMPARISON
    network rounds per comparison.  Run the *real* engine-based SS
    ranking protocol at toy scale and confirm its measured rounds per
    pairwise comparison are far above that — i.e. both brackets are
    charitable to the SS baseline, so its measured disadvantage is not
    an artifact of our modelling."""
    from benchmarks.test_fig3b_network import ROUNDS_PER_COMPARISON
    from repro.math.primes import random_prime
    from repro.math.rng import SeededRNG
    from repro.sharing.protocol import run_distributed_ss_ranking

    prime = random_prime(12, SeededRNG(44))
    n = 4
    run = run_distributed_ss_ranking([9, 3, 7, 1], prime, rng=SeededRNG(45))
    pairs = n * (n - 1) // 2
    rounds_per_comparison = run.rounds / pairs
    print(f"\ndistributed SS: {run.rounds} rounds for {pairs} comparisons "
          f"(~{rounds_per_comparison:.0f} rounds each, field of "
          f"{prime.bit_length()} bits)")
    benchmark(lambda: run_distributed_ss_ranking([2, 1, 3], prime, rng=SeededRNG(46)))
    assert rounds_per_comparison > ROUNDS_PER_COMPARISON


def test_quadratic_extrapolation_predicts_held_out_point(benchmark):
    samples = {
        n: counting_run(n=n, **PARAMS).max_participant_ops.exponentiations
        for n in (6, 10, 14)
    }
    held_out = counting_run(n=18, **PARAMS).max_participant_ops.exponentiations
    predicted = extrapolate_counts(samples, 18)
    benchmark(lambda: extrapolate_counts(samples, 18))
    # Exact up to data-dependent jitter (participants' β bit patterns
    # vary per run), which is far below 1%.
    assert abs(predicted - held_out) / held_out < 0.01, (predicted, held_out)
