"""FIG-2a: participant computation time vs number of participants n.

Paper setting: m=10, d1=15, h=15; frameworks SS / DL(1024) / ECC(160).
Expected shape: SS grows ≈ cubically, ours ≈ quadratically; the ECC
framework is cheapest, the SS framework most expensive at the paper's
n=25 operating point.
"""

import pytest

from benchmarks.harness import (
    PAPER_DEFAULTS,
    counting_run,
    format_series_table,
    full_sweeps,
    growth_exponent,
    ss_participant_seconds,
    write_result,
)
from repro.analysis.costmodel import cost_model_for


def sweep_ns():
    return [10, 15, 20, 25, 30, 35, 40, 45] if full_sweeps() else [10, 15, 20, 25]


@pytest.fixture(scope="module")
def series():
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
    ns = sweep_ns()
    dl, ecc, ss = [], [], []
    for n in ns:
        run = counting_run(n=n, **params)
        ops = run.max_participant_ops
        dl.append(cost_model_for("DL", 80).seconds_for(ops))
        ecc.append(cost_model_for("ECC", 80).seconds_for(ops))
        ss.append(ss_participant_seconds(n, run.beta_bits))
    return ns, {"SS": ss, "DL-1024": dl, "ECC-160": ecc}


def test_fig2a_series(series, benchmark):
    ns, columns = series
    from repro.analysis.ascii_chart import render_chart

    table = format_series_table(
        "FIG-2a: participant computation time (s) vs n  [m=10, d1=15, h=15]",
        "n", ns, columns,
    )
    chart = render_chart("FIG-2a (log y): time vs n", ns, columns)
    print("\n" + table + "\n\n" + chart)
    write_result("fig2a_participants", table + "\n\n" + chart)
    # Timed kernel: one counted point end-to-end (run + estimate).
    benchmark(lambda: cost_model_for("ECC", 80).seconds_for(
        counting_run(
            n=10, **{k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
        ).max_participant_ops
    ))

    # Shape assertions (the paper's Fig. 2(a) claims):
    # 1. our frameworks grow ~quadratically in n ...
    for family in ("DL-1024", "ECC-160"):
        order = growth_exponent(ns, columns[family])
        assert 1.6 < order < 2.4, (family, order)
    # 2. ... the SS framework ~cubically (with (log n)³ drift upward).
    ss_order = growth_exponent(ns, columns["SS"])
    assert 2.6 < ss_order < 4.2, ss_order
    # 3. ordering at the paper's operating point n=25 (index of 25).
    i25 = ns.index(25)
    assert columns["ECC-160"][i25] < columns["DL-1024"][i25] < columns["SS"][i25]
    # 4. the SS-overtakes-DL crossover falls inside the sweep, at or
    #    before the paper's n=25 operating point (discrete version of
    #    repro.analysis.tradeoff.find_crossover on the measured series).
    crossover_n = next(
        (n for n, ss, dl in zip(ns, columns["SS"], columns["DL-1024"]) if ss >= dl),
        None,
    )
    print(f"\nSS-overtakes-DL crossover: n = {crossover_n}")
    assert crossover_n is not None and crossover_n <= 25
