"""Wall-clock benchmark of the arithmetic backend seam.

Times the primitive that dominates every protocol phase — full-width
modular exponentiation — at the paper's real group sizes (DL-1024 and
DL-2048) under the pure-python reference and every native backend that
loads here (``gmp``: libgmp through ctypes; ``gmpy2`` when installed),
plus the end-to-end ``DLGroup.exp`` path (seam dispatch + metering
included) at 2048 bits.  Each side is the best of several interleaved
passes: a pass times every backend once, back to back, so a burst of
host load lands on all of them alike.

A crossover table shows ``GmpBackend``'s size rule at work:
``powmod``, ``jacobi`` and ``invert`` at 16 to 2048 bits, CPython
against each native backend called as the library calls it, through
its own routing.  Where ``gmp`` hands a call back to CPython (a
one-digit modulus, a small inverse) its column times CPython too.

Acceptance bar (enforced for every native backend that loads): ≥ 5× on
2048-bit exponentiation.  The python-only portion always runs, so the
bench also acts as a smoke test of the seam's dispatch overhead:
``DLGroup.exp`` must stay within 25 % of a raw ``pow`` call.

Emits machine-readable ``results/BENCH_backend.json``.  With
``REPRO_BENCH_ENFORCE=1`` each measured native speedup is compared
against the committed number for the same backend and fails on a
> 20 % regression.  Marked ``perf``: not part of tier-1.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import pytest

from benchmarks.harness import RESULTS_DIR, write_result
from repro.groups.dl import DLGroup
from repro.math import backend
from repro.math.backend import PythonBackend
from repro.math.rng import SeededRNG

pytestmark = pytest.mark.perf

SIZES = (1024, 2048)
REPS = {1024: 40, 2048: 12}
#: Interleaved passes per size row; each side keeps its best.
PASSES = 9
CROSSOVER_BITS = (16, 24, 32, 48, 64, 96, 128, 256, 1024, 2048)
MIN_SPEEDUP_2048 = 5.0
MAX_DISPATCH_OVERHEAD = 0.25
REGRESSION_TOLERANCE = 0.20


def _native_backends():
    names = []
    for name in backend.available_backends():
        with backend.use_backend(name) as impl:
            if impl.native:
                names.append(name)
    return names


def _workload(group, reps):
    rng = SeededRNG(7)
    p, q = group.modulus, group.order
    bases = [rng.randint(2, p - 1) for _ in range(reps)]
    exponents = [rng.randint(1, q - 1) for _ in range(reps)]
    return p, list(zip(bases, exponents))


def _checksum(impl, p, pairs):
    checksum = 0
    for base, exponent in pairs:
        checksum ^= impl.powmod(base, exponent, p)
    return checksum


def _interleaved_best(calls, args, reps=1, passes=PASSES):
    """Best seconds per call of each of ``calls`` over ``args``.

    A pass times every call once, back to back, each over ``args``
    ``reps`` times; each call keeps its fastest pass."""
    for call in calls:
        call(*args[0])  # warm
    best = [float("inf")] * len(calls)
    for _ in range(passes):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            for _ in range(reps):
                for arg in args:
                    call(*arg)
            best[i] = min(best[i], (time.perf_counter() - t0) / (reps * len(args)))
    return best


def _crossover(impl):
    """CPython against ``impl``, as routed, for each primitive and width."""
    rows = {"powmod": {}, "jacobi": {}, "invert": {}}
    python = PythonBackend()
    rng = random.Random(5)
    for bits in CROSSOVER_BITS:
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        bases = []
        while len(bases) < 4:
            base = rng.randrange(2, modulus)
            if math.gcd(base, modulus) == 1:
                bases.append(base)
        exponent = rng.getrandbits(bits) | (1 << (bits - 1))
        reps = max(2, 4096 // bits)
        cases = {
            "powmod": ("powmod", [(b, exponent, modulus) for b in bases]),
            "jacobi": ("jacobi", [(b, modulus) for b in bases]),
            "invert": ("invert", [(b, modulus) for b in bases]),
        }
        for primitive, (method, args) in cases.items():
            native = getattr(impl, method)
            assert [native(*a) for a in args] == [
                getattr(python, method)(*a) for a in args
            ]
            python_s, native_s = _interleaved_best(
                [getattr(python, method), native], args, reps, passes=3
            )
            rows[primitive][str(bits)] = {
                "python_us": round(python_s * 1e6, 2),
                "native_us": round(native_s * 1e6, 2),
                "speedup": round(python_s / native_s, 2),
            }
    return rows


def test_backend_speedup():
    python = PythonBackend()
    natives = {}
    for name in _native_backends():
        with backend.use_backend(name) as impl:
            natives[name] = impl

    sizes_payload = {}
    speedup_2048 = {}
    for bits in SIZES:
        group = DLGroup.standard(bits)
        p, pairs = _workload(group, REPS[bits])
        # Equivalence before speed: same math or the number is void.
        expected = _checksum(python, p, pairs)
        for impl in natives.values():
            assert _checksum(impl, p, pairs) == expected
        timed = [python] + list(natives.values())
        best = _interleaved_best([impl.powmod for impl in timed],
                                 [(b, e, p) for b, e in pairs])
        python_s = best[0]
        entry = {"python_modexp_ms": round(python_s * 1e3, 3)}
        for name, native_s in zip(natives, best[1:]):
            entry[f"{name}_modexp_ms"] = round(native_s * 1e3, 3)
            entry[f"{name}_speedup"] = round(python_s / native_s, 2)
            if bits == 2048:
                speedup_2048[name] = python_s / native_s
        sizes_payload[str(bits)] = entry

    crossover = {name: _crossover(impl) for name, impl in natives.items()}

    # End-to-end seam path at 2048 bits: group.exp = meter + dispatch +
    # active-backend powmod.
    group = DLGroup.standard(2048)
    p, pairs = _workload(group, REPS[2048])
    with backend.use_backend("python"):
        group_exp_s = _interleaved_best([group.exp], pairs, passes=1)[0]
    raw_s = _interleaved_best([python.powmod], [(b, e, p) for b, e in pairs],
                              passes=1)[0]
    dispatch_overhead = group_exp_s / raw_s - 1.0

    payload = {
        "bench": "arithmetic_backend",
        "native_backends": sorted(natives),
        "sizes": sizes_payload,
        "crossover": crossover,
        "group_exp_2048_ms": round(group_exp_s * 1e3, 3),
        "dispatch_overhead": round(dispatch_overhead, 4),
        "speedup_2048": {
            name: round(value, 2) for name, value in sorted(speedup_2048.items())
        },
    }

    committed_path = RESULTS_DIR / "BENCH_backend.json"
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text()).get("speedup_2048")
        if not isinstance(committed, dict):
            committed = {}  # written before per-backend numbers
    write_result("BENCH_backend", json.dumps(payload, indent=2), suffix="json")

    assert dispatch_overhead <= MAX_DISPATCH_OVERHEAD, payload
    for name, speedup in speedup_2048.items():
        assert speedup >= MIN_SPEEDUP_2048, (name, payload)

    # Nightly gate: each native backend against its own committed number.
    if os.environ.get("REPRO_BENCH_ENFORCE", "") == "1":
        for name, speedup in speedup_2048.items():
            if committed.get(name):
                floor = committed[name] * (1.0 - REGRESSION_TOLERANCE)
                assert speedup >= floor, (
                    f"{name} speedup regressed: {speedup:.2f}x vs committed "
                    f"{committed[name]:.2f}x (floor {floor:.2f}x)"
                )
