"""ABL-*: ablation benches for the design choices DESIGN.md §6 calls out.

Each ablation pairs a *cost* measurement with the *security consequence*
measured by the game harness:

* ABL-shuffle — dropping the within-set permutation saves nothing
  measurable but hands the zero-position attack a ≈1.0 advantage;
* ABL-rerandomize — dropping exponent rerandomization saves one
  exponentiation per ciphertext per hop (~1/3 of the chain cost) but
  hands the τ-dictionary attack a ≈1.0 advantage;
* ABL-suffix — the paper's naive O(l²) suffix sums vs our running-sum
  O(l): identical outputs, measurable step-7 savings;
* ABL-network — Batcher vs bitonic vs brick sorting networks for the SS
  baseline: comparator counts and depths.
"""

import pytest

from benchmarks.harness import format_series_table, write_result
from repro.analysis.games import (
    estimate_advantage,
    tau_dictionary_attack,
    zero_position_attack,
)
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.groups.params import make_test_group
from repro.math.rng import SeededRNG
from repro.sorting.networks import (
    batcher_odd_even,
    bitonic,
    odd_even_transposition,
    pairwise,
)

SCHEMA = AttributeSchema(names=("a", "b", "c"), num_equal=1, value_bits=5, weight_bits=3)
INITIATOR = InitiatorInput.create(SCHEMA, [10, 0, 0], [2, 3, 1])
ADVERSARIES = {
    2: ParticipantInput.create(SCHEMA, [9, 5, 0]),
    3: ParticipantInput.create(SCHEMA, [12, 30, 31]),
}
CAND = (
    ParticipantInput.create(SCHEMA, [10, 4, 2]),
    ParticipantInput.create(SCHEMA, [10, 31, 19]),
)


def run_once(seed, **config_kwargs):
    group = make_test_group(48, seed=7)
    inputs = [CAND[0], ADVERSARIES[2], ADVERSARIES[3]]
    config = FrameworkConfig(
        group=group, schema=SCHEMA, num_participants=3, k=1, rho_bits=6,
        **config_kwargs,
    )
    framework = GroupRankingFramework(config, INITIATOR, inputs, rng=SeededRNG(seed))
    return framework.run()


def attack_advantage(attack, trials=14, **config_kwargs):
    from repro.analysis.games import FrameworkGame

    game = FrameworkGame(
        schema=SCHEMA, initiator_input=INITIATOR, adversary_inputs=ADVERSARIES,
        honest_ids=[1], candidates=CAND, **config_kwargs,
    )
    counter = [0]

    def trial(b, rng):
        counter[0] += 1
        framework, _ = game.run(b, seed=counter[0])
        return attack(game, framework, adversary_id=2, honest_id=1, rng=rng)

    return estimate_advantage(trial, trials, SeededRNG(4242))


def test_abl_shuffle_permutation(benchmark):
    with_cost = run_once(1, permute=True).max_participant_multiplications()
    without_cost = run_once(1, permute=False).max_participant_multiplications()
    broken = attack_advantage(zero_position_attack, permute=False)
    intact = attack_advantage(zero_position_attack, permute=True)
    table = format_series_table(
        "ABL-shuffle: permutation on/off",
        "on", [1, 0],
        {
            "participant mults": [with_cost, without_cost],
            "attack advantage": [intact, broken],
        },
    )
    print("\n" + table)
    write_result("abl_shuffle", table)
    benchmark(lambda: run_once(2, permute=True))
    # Permutation is computationally free ...
    assert abs(with_cost - without_cost) / with_cost < 0.01
    # ... and removing it loses the gain-hiding game outright.
    assert broken > 0.9
    assert abs(intact) < 0.6


def test_abl_rerandomization(benchmark):
    with_cost = run_once(3, rerandomize=True).max_participant_multiplications()
    without_cost = run_once(3, rerandomize=False).max_participant_multiplications()
    broken = attack_advantage(tau_dictionary_attack, rerandomize=False)
    intact = attack_advantage(tau_dictionary_attack, rerandomize=True)
    table = format_series_table(
        "ABL-rerandomize: exponent rerandomization on/off",
        "on", [1, 0],
        {
            "participant mults": [with_cost, without_cost],
            "attack advantage": [intact, broken],
        },
    )
    print("\n" + table)
    write_result("abl_rerandomize", table)
    benchmark(lambda: run_once(4, rerandomize=False))
    # Rerandomization costs real exponentiations in the chain ...
    assert without_cost < with_cost
    # ... but dropping it loses the game outright.
    assert broken > 0.9
    assert abs(intact) < 0.6


def test_abl_suffix_sums(benchmark):
    fast = run_once(5, naive_suffix=False).max_participant_multiplications()
    slow = run_once(5, naive_suffix=True).max_participant_multiplications()
    table = format_series_table(
        "ABL-suffix: running suffix sums vs the paper's O(l²) accounting",
        "naive", [0, 1],
        {"participant mults": [fast, slow]},
    )
    print("\n" + table)
    write_result("abl_suffix", table)
    benchmark(lambda: run_once(6, naive_suffix=False))
    assert slow > fast


def test_abl_rho_masking_width(benchmark):
    """ABL-rho: the deniability the mask width h buys (DESIGN.md §6).

    For a fixed true gain, census how many candidate gains remain
    consistent with the observed β as h grows — the quantitative form of
    Lemma 1's 'she cannot get them from a single β value'."""
    from repro.analysis.leakage import deniability_series

    hs = [4, 6, 8, 10, 12, 14]
    series = deniability_series(true_gain=2000, hs=hs, window_radius=500, seed=11)
    counts = [float(experiment.consistent_count) for experiment in series]
    table = format_series_table(
        "ABL-rho: consistent-gain census vs mask width h (true gain 2000, ±500)",
        "h", hs, {"consistent gains": counts},
    )
    print("\n" + table)
    write_result("abl_rho", table)
    benchmark(lambda: deniability_series(2000, [8], 500, seed=12))
    # Monotone growth, and comfortably many alternatives at the paper's h=15 scale.
    assert counts == sorted(counts)
    assert counts[-1] > 5 * counts[0]


def test_abl_fixed_base_exponentiation(benchmark):
    """ABL-fixedbase: precomputed-table generator exponentiation vs the
    generic ladder, measured on the real 1024-bit DL group, a 48-bit
    test group (the e2e proto workloads' width) and secp160r1.

    "plain" is the textbook ladder (:class:`TextbookDLGroup` on DL; the
    curve's ``exp`` has no kernels); "default" is ``group.exp_generator``,
    which on DL walks the group's own generator table below its meter
    unless the backend's ``powmod`` is native at that width.

    Every row is timed under one arithmetic backend: first the python
    reference (the table-vs-ladder gates, like for like), then each
    native backend that loads.  On every backend each DL default must be
    within 10 % of the faster of plain and table ("default/best", the
    median over rounds of the default against the faster kernel of the
    same round): that gates the kernel choice in ``DLGroup.exp``."""
    import statistics
    import time

    from repro.groups.curves import get_curve
    from repro.groups.dl import DLGroup, TextbookDLGroup
    from repro.groups.fixed_base import PrecomputedBase
    from repro.math import backend

    def timed_rounds(fns, reps, rounds=15):
        """Per-call time of each function in each round; a round times
        every function once, back to back, so a burst of host load
        lands on all of them alike."""
        rounds_s = []
        for _ in range(rounds):
            row = []
            for fn in fns:
                start = time.perf_counter()
                for _ in range(reps):
                    fn()
                row.append((time.perf_counter() - start) / reps)
            rounds_s.append(row)
        return rounds_s

    rows = {"plain us": [], "fixed-base us": [], "speedup": [], "default us": [],
            "default/best": []}
    labels = []
    dl_labels = []
    curve = get_curve("secp160r1")
    arithmetics = ["python"] + [
        name for name in backend.available_backends() if name != "python"
    ]
    for arithmetic in arithmetics:
        with backend.use_backend(arithmetic):
            for group, textbook, reps in (
                (DLGroup.standard(1024), TextbookDLGroup.standard(1024), 4),
                (DLGroup.random(48, rng=SeededRNG(7)),
                 TextbookDLGroup.random(48, rng=SeededRNG(7)), 64),
                (curve, curve, 4),
            ):
                label = f"{group.name} {arithmetic}"
                if isinstance(group, DLGroup):
                    dl_labels.append(label)
                labels.append(label)
                table = PrecomputedBase(group, group.generator(), window_bits=4)
                exponent = group.random_exponent(SeededRNG(31))
                rounds_s = timed_rounds([
                    lambda: textbook.exp_generator(exponent),
                    lambda: table.exp(exponent),
                    lambda: group.exp_generator(exponent),
                ], reps)
                plain, fixed, default = (min(column) for column in zip(*rounds_s))
                rows["plain us"].append(plain * 1e6)
                rows["fixed-base us"].append(fixed * 1e6)
                rows["speedup"].append(plain / fixed)
                rows["default us"].append(default * 1e6)
                # The default against the faster kernel of its own round.
                rows["default/best"].append(statistics.median(
                    d / min(p, f) for p, f, d in rounds_s
                ))
    table_text = format_series_table(
        "ABL-fixedbase: generator exponentiation, plain vs precomputed",
        "idx", list(range(len(labels))), rows,
    )
    table_text += "\n  idx -> " + ", ".join(
        f"{i}: {label}" for i, label in enumerate(labels)
    )
    print("\n" + table_text)
    write_result("abl_fixedbase", table_text)
    dl_group = DLGroup.standard(1024)
    dl_table = PrecomputedBase(dl_group, dl_group.generator())
    exponent = dl_group.random_exponent(SeededRNG(32))
    benchmark(lambda: dl_table.exp(exponent))

    def row(column, label):
        return rows[column][labels.index(label)]

    # Under the python reference the table wins clearly on the DL group
    # (modular multiplication is cheap relative to a full ladder).  On
    # the curve it roughly breaks even: our Group.mul is an *affine*
    # point addition costing a field inversion, which eats the saved
    # doublings — a mixed-coordinate table would be needed to win there.
    # Assert both findings so a regression in either direction is caught.
    assert row("speedup", "DL-1024 python") > 1.5, rows      # real win
    assert row("speedup", "secp160r1 python") > 0.6, rows    # no cliff
    # The default route is the faster kernel on every backend.
    for label in dl_labels:
        assert row("default/best", label) <= 1.10, (label, rows)


def test_abl_sorting_networks(benchmark):
    ns = [8, 16, 32, 64]
    rows = {
        "batcher gates": [float(batcher_odd_even(n).comparator_count) for n in ns],
        "bitonic gates": [float(bitonic(n).comparator_count) for n in ns],
        "pairwise gates": [float(pairwise(n).comparator_count) for n in ns],
        "brick gates": [float(odd_even_transposition(n).comparator_count) for n in ns],
        "batcher depth": [float(batcher_odd_even(n).depth) for n in ns],
        "brick depth": [float(odd_even_transposition(n).depth) for n in ns],
    }
    table = format_series_table(
        "ABL-network: sorting-network choices for the SS baseline",
        "n", ns, rows,
    )
    print("\n" + table)
    write_result("abl_networks", table)
    benchmark(lambda: batcher_odd_even(64))
    for i in range(len(ns)):
        # Batcher no worse than bitonic, both far below brick at scale.
        assert rows["batcher gates"][i] <= rows["bitonic gates"][i]
        assert rows["batcher depth"][i] <= rows["brick depth"][i]
    assert rows["brick gates"][-1] > 3 * rows["batcher gates"][-1]
