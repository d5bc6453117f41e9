"""FIG-2b/2c/2d: participant computation time vs m, d1 and h.

Paper setting: n=25 fixed, one parameter swept at a time.
Expected shapes: logarithmic growth in m (only ``⌈log m⌉`` enters the
β bit-length), linear growth in d1 and in h (both enter it linearly).
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

FIXED_N = 25 if full_sweeps() else 15


def sweep(param, values):
    params = dict(PAPER_DEFAULTS)
    params["n"] = FIXED_N
    del params["n"]
    dl, ecc, ss = [], [], []
    for value in values:
        point = dict(params)
        point[param] = value
        run = counting_run(n=FIXED_N, **point)
        ops = run.max_participant_ops
        dl.append(cost_model_for("DL", 80).seconds_for(ops))
        ecc.append(cost_model_for("ECC", 80).seconds_for(ops))
        ss.append(ss_participant_seconds(FIXED_N, run.beta_bits))
    return {"SS": ss, "DL-1024": dl, "ECC-160": ecc}


def check_and_emit(name, title, x_label, xs, columns):
    table = format_series_table(title, x_label, xs, columns)
    print("\n" + table)
    write_result(name, table)
    return table


def test_fig2b_dimensions(benchmark):
    ms = [5, 10, 20, 40] if not full_sweeps() else [5, 10, 15, 20, 25, 30, 35, 40]
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k not in ("n", "m")}
    columns = {"SS": [], "DL-1024": [], "ECC-160": []}
    # The m-sweep moves l by only ⌈log m⌉ (3 bits end to end), so the SS
    # per-field-multiplication cost is constant across the sweep; measure
    # it once at the widest point instead of re-calibrating per point
    # (whose measurement jitter would swamp a 3-bit effect).
    from repro.analysis.complexity import ss_framework_participant_cost
    from repro.analysis.costmodel import calibrate_field

    widest = counting_run(n=FIXED_N, m=ms[-1], **params).beta_bits
    ss_unit = calibrate_field(widest + 9).seconds_per_multiplication
    for m in ms:
        run = counting_run(n=FIXED_N, m=m, **params)
        ops = run.max_participant_ops
        columns["DL-1024"].append(cost_model_for("DL", 80).seconds_for(ops))
        columns["ECC-160"].append(cost_model_for("ECC", 80).seconds_for(ops))
        columns["SS"].append(
            ss_framework_participant_cost(FIXED_N, run.beta_bits) * ss_unit
        )
    check_and_emit(
        "fig2b_dimensions",
        f"FIG-2b: participant computation time (s) vs m  [n={FIXED_N}, d1=15, h=15]",
        "m", ms, columns,
    )
    benchmark(lambda: counting_run(n=FIXED_N, m=ms[0], **params))
    # Logarithmic in m: time grows, but far slower than linearly —
    # m increased 8x, time should grow well under 2x.
    for family, series in columns.items():
        assert series[-1] > series[0], family
        assert series[-1] / series[0] < 8 ** 0.5, (family, series)


def test_fig2c_attribute_bits(benchmark):
    d1s = [5, 15, 25, 35] if not full_sweeps() else [5, 10, 15, 20, 25, 30, 35]
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k not in ("n", "d1")}
    columns = {"SS": [], "DL-1024": [], "ECC-160": []}
    for d1 in d1s:
        run = counting_run(n=FIXED_N, d1=d1, **params)
        ops = run.max_participant_ops
        columns["DL-1024"].append(cost_model_for("DL", 80).seconds_for(ops))
        columns["ECC-160"].append(cost_model_for("ECC", 80).seconds_for(ops))
        columns["SS"].append(ss_participant_seconds(FIXED_N, run.beta_bits))
    check_and_emit(
        "fig2c_attribute_bits",
        f"FIG-2c: participant computation time (s) vs d1  [n={FIXED_N}, m=10, h=15]",
        "d1", d1s, columns,
    )
    benchmark(lambda: counting_run(n=FIXED_N, d1=d1s[0], **params))
    # Linear in d1 for the DL/ECC frameworks (counts are exact; unit
    # costs fixed): increments must be positive and roughly even.  The
    # SS series multiplies exact counts by a *measured* per-field-mult
    # cost whose limb-boundary steps make evenness too strict — require
    # monotone growth only.
    for family in ("DL-1024", "ECC-160"):
        increments = [b - a for a, b in zip(columns[family], columns[family][1:])]
        assert all(increment > 0 for increment in increments), family
        assert max(increments) < 2.5 * min(increments), (family, increments)
    assert columns["SS"][-1] > columns["SS"][0]


def test_fig2d_rho_bits(benchmark):
    hs = [5, 15, 25, 35] if not full_sweeps() else [5, 10, 15, 20, 25, 30, 35]
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k not in ("n", "h")}
    columns = {"SS": [], "DL-1024": [], "ECC-160": []}
    for h in hs:
        run = counting_run(n=FIXED_N, h=h, **params)
        ops = run.max_participant_ops
        columns["DL-1024"].append(cost_model_for("DL", 80).seconds_for(ops))
        columns["ECC-160"].append(cost_model_for("ECC", 80).seconds_for(ops))
        columns["SS"].append(ss_participant_seconds(FIXED_N, run.beta_bits))
    check_and_emit(
        "fig2d_rho_bits",
        f"FIG-2d: participant computation time (s) vs h  [n={FIXED_N}, m=10, d1=15]",
        "h", hs, columns,
    )
    benchmark(lambda: counting_run(n=FIXED_N, h=hs[0], **params))
    for family in ("DL-1024", "ECC-160"):
        increments = [b - a for a, b in zip(columns[family], columns[family][1:])]
        assert all(increment > 0 for increment in increments), family
        assert max(increments) < 2.5 * min(increments), (family, increments)
    assert columns["SS"][-1] > columns["SS"][0]
