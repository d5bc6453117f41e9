"""FIG-3a: participant computation time vs security level, n = 70.

The paper compares the ECC and DL frameworks at the NIST-equivalent
tiers 80/112/128-bit (ECC 160/224/256 vs DL 1024/2048/3072) with n=70.
Expected shape: ECC is cheaper at every level and grows more slowly as
the level rises.

The n=70 operation counts come from exact quadratic extrapolation of
three counted runs (per-participant counts are degree-2 polynomials in
n; exactness is asserted in test_validation.py).

Both families are priced in pure-Python arithmetic, like for like.  When
a native backend is active, the DL series it would give is printed as
one extra line, not gated: it times C against the curves' Python.
"""

import pytest

from benchmarks.harness import (
    PAPER_DEFAULTS,
    extrapolated_ops,
    format_series_table,
    full_sweeps,
    write_result,
)
from repro.analysis.costmodel import calibrate_dl, calibrate_ecc
from repro.groups.params import TIERS
from repro.math import backend

LEVELS = sorted(TIERS)
TARGET_N = 70


@pytest.fixture(scope="module")
def ops_at_70():
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
    sample_ns = (6, 10, 14) if not full_sweeps() else (10, 16, 22)
    return extrapolated_ops(TARGET_N, sample_ns=sample_ns, **params)


def test_fig3a_series(ops_at_70, benchmark):
    dl_times, ecc_times = [], []
    for level in LEVELS:
        dl_times.append(calibrate_dl(TIERS[level].dl_bits).seconds_for(ops_at_70))
        ecc_times.append(calibrate_ecc(TIERS[level].curve).seconds_for(ops_at_70))
    table = format_series_table(
        f"FIG-3a: participant computation time (s) vs security level  [n={TARGET_N}]",
        "level", LEVELS, {"DL": dl_times, "ECC": ecc_times},
    )
    native = backend.active_backend_name()
    if backend.get_backend().native:
        native_times = [
            calibrate_dl(TIERS[level].dl_bits, arithmetic=native).seconds_for(ops_at_70)
            for level in LEVELS
        ]
        table += (f"\n  DL under the {native} backend (not gated): "
                  + " | ".join(f"{t:.4f}" for t in native_times))
    print("\n" + table)
    write_result("fig3a_security_levels", table)

    benchmark(lambda: calibrate_ecc(TIERS[80].curve).seconds_for(ops_at_70))

    # Paper claims: ECC cheaper at every equivalent level ...
    for dl, ecc in zip(dl_times, ecc_times):
        assert ecc < dl
    # ... and ECC grows more slowly as the level rises.
    assert ecc_times[-1] / ecc_times[0] < dl_times[-1] / dl_times[0]
    # Sanity: both grow with the security level.
    assert dl_times == sorted(dl_times)
    assert ecc_times == sorted(ecc_times)
