"""Unit tests for the pluggable arithmetic backend seam.

Covers the primitive contracts (both implementations return plain
``int``s computing the same functions), the selection machinery
(env autodetection, ``set_backend``/``use_backend`` semantics, the
``auto`` sentinel, strict vs. degrading resolution), the registry, and
the worker-process re-initialization hook.

The gmpy2 wrapper is exercised even without gmpy2 installed by handing
:class:`Gmpy2Backend` a stub module with the same call surface; the
real library (when present) is covered by ``test_backend_equivalence``.
:class:`GmpBackend` (libgmp through ctypes) is checked differentially
against CPython over every int, across threads and a fork, and for
crashes in a subprocess; those tests skip where libgmp does not load.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math import backend
from repro.math.backend import (
    AUTO,
    ArithmeticBackend,
    BackendUnavailable,
    GmpBackend,
    Gmpy2Backend,
    PythonBackend,
)
from repro.math.modular import jacobi_symbol


@pytest.fixture(autouse=True)
def _restore_backend_state():
    """Every test leaves the process-wide backend exactly as it found it."""
    previous_active = backend.get_backend()
    previous_factories = dict(backend._FACTORIES)
    yield
    backend._FACTORIES.clear()
    backend._FACTORIES.update(previous_factories)
    with backend._lock:
        backend._active = previous_active


class _FakeGmpy2:
    """Duck-typed stand-in for the gmpy2 module surface the wrapper uses."""

    @staticmethod
    def mpz(x):
        return x

    @staticmethod
    def powmod(base, exponent, modulus):
        return pow(base, exponent, modulus)

    @staticmethod
    def invert(a, modulus):
        try:
            return pow(a, -1, modulus)
        except ValueError:
            # gmpy2 signals non-invertibility with ZeroDivisionError.
            raise ZeroDivisionError("invert() no inverse exists")

    @staticmethod
    def gcd(a, b):
        return math.gcd(a, b)

    @staticmethod
    def jacobi(a, n):
        return PythonBackend().jacobi(a, n)


def _unavailable():
    raise ImportError("not installed")


class _RecordingPython(PythonBackend):
    name = "recording"


P = 0xFFFFFFFFFFFFFFC5  # a 64-bit prime
SAFE_P = 2 * 83 + 1  # 167, a safe prime


def both_backends():
    return [PythonBackend(), Gmpy2Backend(module=_FakeGmpy2)]


# ---------------------------------------------------------------------------
# Primitive contracts
# ---------------------------------------------------------------------------

class TestPrimitives:
    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_powmod(self, impl):
        assert impl.powmod(3, 100, P) == pow(3, 100, P)
        assert impl.powmod(2, 0, P) == 1

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_powmod_negative_exponent(self, impl):
        assert impl.powmod(3, -1, P) == pow(3, -1, P)

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_mulmod(self, impl):
        a, b = P - 2, P - 3
        assert impl.mulmod(a, b, P) == a * b % P
        # Negative operands follow Python's floored-mod convention.
        assert impl.mulmod(-5, 7, P) == -5 * 7 % P

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_invert(self, impl):
        inv = impl.invert(12345, P)
        assert 12345 * inv % P == 1

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_invert_failure_is_valueerror_and_does_not_echo_value(self, impl):
        secret = 6  # shares a factor with 12
        with pytest.raises(ValueError) as excinfo:
            impl.invert(secret, 12)
        assert str(secret) not in str(excinfo.value).split("modulo")[0]

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_gcd(self, impl):
        assert impl.gcd(0, 0) == 0
        assert impl.gcd(54, 24) == 6
        assert impl.gcd(-54, 24) == 6

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_jacobi_matches_reference(self, impl):
        for a in range(0, 50):
            assert impl.jacobi(a, SAFE_P) == jacobi_symbol(a, SAFE_P)

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_all_results_are_plain_ints(self, impl):
        # Transcript identity depends on nothing above the seam ever
        # seeing a native type (mpz hashes/pickles differently).
        for value in (
            impl.powmod(3, 100, P),
            impl.mulmod(5, 7, P),
            impl.invert(12345, P),
            impl.gcd(54, 24),
            impl.jacobi(5, SAFE_P),
        ):
            assert type(value) is int

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_callers_keep_their_tables(self, impl):
        # Only gmp has measured where its powmod beats a table walk.
        assert not impl.native_powmod(1 << 1024)
        assert not impl.native_powmod(SAFE_P)

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_primality_hooks_delegate_to_fixed_witness_schedule(self, impl):
        from repro.math.primes import is_prime, next_prime

        assert impl.is_prime(SAFE_P) is is_prime(SAFE_P) is True
        assert impl.is_prime(SAFE_P + 2) is False
        assert impl.next_prime(100) == next_prime(100) == 101

    @pytest.mark.parametrize("impl", both_backends(), ids=lambda b: b.name)
    def test_bit_helpers(self, impl):
        assert impl.bit_length(255) == 8
        assert impl.byte_length(255) == 1
        assert impl.byte_length(256) == 2


def _binary_jacobi(a, n):
    """The one-factor-of-two-per-step binary Jacobi the backend used to
    run, kept as the reference for the faster one."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


SMALL_PRIMES = [p for p in range(3, 400, 2) if all(p % d for d in range(3, p, 2))]


class TestJacobi:
    @settings(max_examples=500, deadline=None)
    @given(a=st.integers(), n=st.integers(1, 1 << 1100).map(lambda n: n | 1))
    def test_matches_binary_reference(self, a, n):
        assert PythonBackend().jacobi(a, n) == _binary_jacobi(a, n)

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(), p=st.sampled_from(SMALL_PRIMES))
    def test_euler_criterion_on_small_primes(self, a, p):
        euler = pow(a, (p - 1) // 2, p)
        assert PythonBackend().jacobi(a, p) == (-1 if euler == p - 1 else euler)


# ---------------------------------------------------------------------------
# Selection machinery
# ---------------------------------------------------------------------------

class TestSelection:
    def test_choices_include_auto_and_builtins(self):
        choices = backend.backend_choices()
        assert choices[0] == AUTO
        assert {"python", "gmp", "gmpy2"} <= set(choices)

    def test_python_backend_always_available(self):
        assert "python" in backend.available_backends()

    def test_set_backend_python(self):
        selected = backend.set_backend("python")
        assert selected.name == "python"
        assert backend.active_backend_name() == "python"
        assert backend.get_backend() is selected

    def test_auto_keeps_active_selection(self):
        backend.set_backend("python")
        before = backend.get_backend()
        assert backend.set_backend(AUTO) is before
        assert backend.get_backend() is before

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailable, match="unknown"):
            backend.set_backend("fpga")

    def test_strict_failure_raises_nonstrict_degrades(self):
        def broken():
            raise ImportError("no such native library")

        backend.register_backend("broken", broken)
        with pytest.raises(BackendUnavailable, match="not available"):
            backend.set_backend("broken")
        degraded = backend.set_backend("broken", strict=False)
        assert degraded.name == "python"

    def test_use_backend_restores_previous(self):
        backend.set_backend("python")
        marker = PythonBackend()
        with backend._lock:
            backend._active = marker
        with backend.use_backend("python") as inner:
            assert backend.get_backend() is inner
            assert inner is not marker
        assert backend.get_backend() is marker

    def test_use_backend_restores_on_exception(self):
        previous = backend.get_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with backend.use_backend("python"):
                raise RuntimeError("boom")
        assert backend.get_backend() is previous

    def test_module_level_dispatch_follows_active(self):
        class Rigged(PythonBackend):
            name = "rigged"

            def powmod(self, base, exponent, modulus):
                return 42

        backend.register_backend("rigged", Rigged)
        with backend.use_backend("rigged"):
            assert backend.powmod(2, 10, 1000) == 42
        assert backend.powmod(2, 10, 1000) == 24

    def test_register_auto_rejected(self):
        with pytest.raises(ValueError, match="sentinel"):
            backend.register_backend(AUTO, PythonBackend)

    def test_environment_detection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert backend._detect_from_environment().name == "python"
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert backend._detect_from_environment().name in (
            "python", "gmp", "gmpy2"
        )
        # A bogus env var must never break import-time detection.
        monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
        assert backend._detect_from_environment().name == "python"

    def test_gmpy2_selection_via_stubbed_module(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "gmpy2", _FakeGmpy2)
        selected = backend.set_backend("gmpy2")
        assert selected.name == "gmpy2" and selected.native
        assert backend.powmod(3, 100, P) == pow(3, 100, P)

    def test_auto_falls_through_to_python(self):
        def broken():
            raise OSError("no such native library")

        backend.register_backend("gmpy2", broken)
        backend.register_backend("gmp", broken)
        assert backend._detect(AUTO).name == "python"

    def test_auto_prefers_gmp_over_python(self):
        backend.register_backend("gmpy2", _unavailable)
        backend.register_backend("gmp", _RecordingPython)
        assert backend._detect(AUTO).name == "recording"

    def test_missing_libgmp_raises_oserror(self):
        with pytest.raises(OSError, match="libgmp not found"):
            backend._Libgmp(("libnot-gmp.so.0",))

    def test_python_backend_never_imports_ctypes(self):
        # ctypes is the gmp backend's cost alone: a process pinned to
        # the reference must not load it.
        env = dict(os.environ, REPRO_BACKEND="python",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.math.backend as b; "
             "print(b.active_backend_name(), 'ctypes' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert probe.stdout.split() == ["python", "False"], probe.stderr

    def test_worker_initializer_reselects_nonstrict(self):
        backend.set_backend("python")
        backend.worker_initializer("definitely-not-registered")
        assert backend.active_backend_name() == "python"
        backend.worker_initializer("python")
        assert backend.active_backend_name() == "python"
        backend.worker_initializer(None)  # no-op
        assert backend.active_backend_name() == "python"


# ---------------------------------------------------------------------------
# Config / CLI plumbing
# ---------------------------------------------------------------------------

class TestConfigPlumbing:
    def test_framework_config_validates_backend(
        self, small_dl_group, small_schema
    ):
        from repro.core.parties import FrameworkConfig

        with pytest.raises(ValueError, match="backend"):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=3, k=2, backend="fpga",
            )

    def test_framework_config_accepts_choices(self, small_dl_group, small_schema):
        from repro.core.parties import FrameworkConfig

        for choice in (AUTO, "python"):
            config = FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=3, k=2, backend=choice,
            )
            assert config.backend == choice

    def test_cli_exposes_backend_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["demo", "--help"])
        assert "--backend" in capsys.readouterr().out

    def test_worker_pool_initializer_matches_active_backend(self):
        from repro.runtime.parallel import _worker_select_backend

        backend.set_backend("python")
        _worker_select_backend(backend.active_backend_name())
        assert backend.active_backend_name() == "python"


# ---------------------------------------------------------------------------
# libgmp through ctypes: differential, threads, fork, crash probes
# ---------------------------------------------------------------------------

HAVE_GMP = "gmp" in backend.available_backends()
needs_gmp = pytest.mark.skipif(not HAVE_GMP, reason="libgmp does not load")

LIMB = 1 << 64
#: The word edges: a single-limb operand crosses as one ``unsigned long``
#: (64 bits here, 32 where ``long`` is), and ctypes silently masks a
#: wider one (``c_ulong(2**64).value == 0``).
WORD_EDGES = [
    edge + delta for edge in (1 << 32, LIMB) for delta in (-1, 0, 1)
]
#: The single-limb crossovers of :class:`GmpBackend`.
CROSSOVERS = [
    edge + delta
    for edge in (backend._NATIVE_POWMOD, backend._NATIVE_INVERT)
    for delta in (-1, 0, 1)
]
#: Moduli around and past every routing boundary, at every sign.
MODULI = st.one_of(
    st.sampled_from([
        0, 1, -1, 2, 3, 4, -LIMB, -LIMB - 1, (1 << 1024) - 105, 12 << 100,
    ] + WORD_EDGES + CROSSOVERS),
    st.integers(-(1 << 200), 1 << 200),
    st.integers(3, LIMB - 1),                         # one limb
    st.integers(backend._NATIVE_POWMOD, LIMB - 1).map(lambda m: m & ~1),
    st.integers(LIMB, 1 << 1100),                     # native, odd or even
    st.integers(LIMB, 1 << 1100).map(lambda m: m & ~1),  # even
    st.integers(max_value=-LIMB),                     # negative, > 64 bits
    st.integers(1 << 8000, 1 << 8300),                # above 8,000 bits
)
EXPONENTS = st.one_of(
    st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 7, 8, 9, 255, 256]
                    + WORD_EDGES),
    st.integers(-(1 << 300), 1 << 300),
    st.integers(0, LIMB + 1),
)
BASES = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]
                    + WORD_EDGES + [-edge for edge in WORD_EDGES]),
    st.integers(),
    st.integers(-(1 << 8300), 1 << 8300),             # above 8,000 bits
)


def _outcome(function, *args):
    """The value, or the exception's type and message."""
    try:
        return function(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _power_cases(draw):
    modulus = draw(MODULI)
    if draw(st.booleans()):
        # A base sharing a factor with the modulus: no inverse exists.
        factor = draw(st.sampled_from([2, 3, abs(modulus) or 1]))
        base = factor * draw(st.integers(-(1 << 80), 1 << 80))
    else:
        base = draw(BASES)
    if abs(modulus) < 1 << 200:
        # Long exponents stay cheap over a short modulus.
        exponent = draw(st.one_of(EXPONENTS,
                                  st.integers(-(1 << 8300), 1 << 8300)))
    else:
        exponent = draw(EXPONENTS)
    return base, exponent, modulus


@needs_gmp
class TestGmpBackend:
    @settings(max_examples=600, deadline=None)
    @given(case=_power_cases())
    def test_powmod_matches_cpython(self, case):
        base, exponent, modulus = case
        assert (_outcome(GmpBackend().powmod, base, exponent, modulus)
                == _outcome(pow, base, exponent, modulus))

    @settings(max_examples=400, deadline=None)
    @given(case=_power_cases())
    def test_invert_matches_cpython(self, case):
        a, _, modulus = case
        result = _outcome(GmpBackend().invert, a, modulus)
        assert result == _outcome(PythonBackend().invert, a, modulus)
        if isinstance(result, int):
            assert result == pow(a, -1, modulus)
        else:
            # The message names only the modulus, never the value.
            assert result == ("ValueError",
                              f"value is not invertible modulo {modulus}")

    @settings(max_examples=400, deadline=None)
    @given(a=BASES, n=st.one_of(MODULI, MODULI.map(lambda n: n | 1)))
    def test_jacobi_matches_python_reference(self, a, n):
        assert (_outcome(GmpBackend().jacobi, a, n)
                == _outcome(PythonBackend().jacobi, a, n))

    def test_results_are_plain_ints(self):
        gmp, p = GmpBackend(), (1 << 1024) - 105
        for value in (gmp.powmod(3, p - 2, p), gmp.powmod(3, -5, p),
                      gmp.invert(3, p), gmp.jacobi(3, p), gmp.powmod(0, 9, p)):
            assert type(value) is int

    def test_routing_by_operand_size(self):
        # Tables stay where a table walk beats one native power: below
        # one CPython digit (30 bits), where powmod itself runs CPython.
        gmp = GmpBackend()
        assert backend._NATIVE_POWMOD == 1 << 30
        assert not gmp.native_powmod((1 << 30) - 1)
        assert not gmp.native_powmod(-(1 << 100))
        for modulus in (1 << 30, (1 << 48) - 59, LIMB - 1, LIMB, 1 << 1024):
            assert gmp.native_powmod(modulus)

    @pytest.mark.parametrize("modulus", WORD_EDGES + CROSSOVERS + [
        (1 << 48) - 59, (1 << 48) - 58, 3, 4, 1, 2, 0, -((1 << 48) - 59),
    ])
    def test_word_edges_match_cpython(self, modulus):
        # Every operand at and around the word and the crossovers, with
        # negative bases: a guard one off would mask an operand to a
        # wrong element, or hand libgmp a zero modulus (SIGFPE).
        gmp, python = GmpBackend(), PythonBackend()
        operands = WORD_EDGES + [-edge for edge in WORD_EDGES] + [
            0, 1, -1, 2, -2, 255, 256, -256, modulus - 1, -modulus - 1,
        ]
        for base in operands:
            for exponent in WORD_EDGES + [0, 1, 7, 8, 255, 256, -1, -3]:
                assert (_outcome(gmp.powmod, base, exponent, modulus)
                        == _outcome(pow, base, exponent, modulus))
            assert (_outcome(gmp.invert, base, modulus)
                    == _outcome(python.invert, base, modulus))
            for n in (modulus, modulus | 1):
                assert (_outcome(gmp.jacobi, base, n)
                        == _outcome(python.jacobi, base, n))

    def test_single_limb_path_reaches_libgmp(self, monkeypatch):
        # A 48-bit modulus takes the one-word entry points and reloads
        # the resident modulus only when it changes.
        lib = backend._load_libgmp()
        calls = []
        for name in ("set_ui", "get_ui", "powm_ui", "ui_kronecker",
                     "invert", "import_bytes"):
            original = getattr(lib, name)
            monkeypatch.setattr(lib, name, lambda *args, _name=name,
                                _original=original: calls.append(_name)
                                or _original(*args))
        gmp, p = GmpBackend(), (1 << 48) - 59
        assert gmp.powmod(-3, p - 2, p) == pow(-3, p - 2, p)
        assert calls == ["import_bytes", "set_ui", "powm_ui", "get_ui"]
        del calls[:]
        assert gmp.jacobi(-5, p) == PythonBackend().jacobi(-5, p)
        assert gmp.invert(-5, p) == pow(-5, -1, p)
        assert calls == ["ui_kronecker", "set_ui", "invert", "get_ui"]
        del calls[:]
        assert gmp.powmod(3, 255, p) == pow(3, 255, p)       # CPython
        assert gmp.powmod(3, LIMB, p) == pow(3, LIMB, p)     # CPython
        assert gmp.powmod(3, -7, p) == pow(3, -7, p)         # CPython
        assert calls == []

    def test_threads_share_no_operands(self):
        # ctypes drops the GIL for each foreign call: four threads
        # hammering one backend object, switching as often as the
        # interpreter allows, must never see each other's operands.
        gmp = GmpBackend()
        errors = []

        def work(seed):
            # Mersenne primes of growing width: every base is invertible.
            modulus = (1 << (521, 607, 1279, 2203)[seed]) - 1
            for i in range(60):
                base = (seed + 2) ** (300 + i) % modulus
                exponent = (1 << (500 + 17 * seed)) + i
                cases = (
                    (gmp.powmod(base, exponent, modulus),
                     pow(base, exponent, modulus)),
                    (gmp.powmod(base, -exponent, modulus),
                     pow(base, -exponent, modulus)),
                    (gmp.jacobi(base, modulus),
                     PythonBackend().jacobi(base, modulus)),
                )
                errors.extend(case for case in cases if case[0] != case[1])

        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_threads_switching_resident_modulus(self):
        # Each thread alternates a 48-bit and a 1024-bit modulus, so its
        # resident modulus register is reloaded on every other call while
        # the other threads do the same with theirs.
        gmp, python = GmpBackend(), PythonBackend()
        errors = []

        def work(seed):
            moduli = ((1 << 48) - 59 - 2 * seed, (1 << 1024) - 105 - 2 * seed)
            for i in range(150):
                modulus = moduli[i % 2]
                base = (seed + 3) ** (40 + i) % modulus
                exponent = (1 << (40 + seed)) + i
                cases = (
                    (gmp.powmod(base, exponent, modulus),
                     pow(base, exponent, modulus)),
                    (_outcome(gmp.powmod, base, -exponent, modulus),
                     _outcome(pow, base, -exponent, modulus)),
                    (_outcome(gmp.invert, base, modulus),
                     _outcome(python.invert, base, modulus)),
                    (gmp.jacobi(base, modulus), python.jacobi(base, modulus)),
                )
                errors.extend(case for case in cases if case[0] != case[1])

        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_like_its_parent_at_48_bits(self):
        # The parent leaves a 48-bit modulus resident; the child inherits
        # it, computes on it, then switches to another modulus and back.
        gmp = GmpBackend()
        p, other = (1 << 48) - 59, (1 << 1024) - 105
        expected = [pow(3 + i, p - 2 - i, p) for i in range(8)]
        assert [gmp.powmod(3 + i, p - 2 - i, p) for i in range(8)] == expected
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                if ([gmp.powmod(3 + i, p - 2 - i, p) for i in range(8)] == expected
                        and gmp.invert(3, p) == pow(3, -1, p)
                        and gmp.jacobi(3, p) == PythonBackend().jacobi(3, p)
                        and gmp.powmod(3, other - 2, other) == pow(3, -1, other)
                        and gmp.powmod(5, p - 2, p) == pow(5, -1, p)):
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_like_its_parent(self):
        # The tcp launcher forks parties from a process whose backend is
        # already warm: the child inherits the parent's registers.
        gmp = GmpBackend()
        p = (1 << 1024) - 105
        expected = [pow(3 + i, p - 2 - i, p) for i in range(8)]
        assert [gmp.powmod(3 + i, p - 2 - i, p) for i in range(8)] == expected
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                if ([gmp.powmod(3 + i, p - 2 - i, p) for i in range(8)] == expected
                        and gmp.invert(3, p) == pow(3, -1, p)):
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def _probe(self, body):
        code = textwrap.dedent(f"""
            from repro.math.backend import GmpBackend
            gmp = GmpBackend()
            {body}
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_crash_cases_never_reach_libgmp(self):
        # Each would be SIGFPE inside libgmp (zero modulus, negative
        # power with no inverse): the backend must raise instead.
        probe = self._probe("""
            big = 12 << 100
            for call in (lambda: gmp.powmod(5, 3, 0),
                         lambda: gmp.powmod(5, -3, 0),
                         lambda: gmp.powmod(6, -1, big),
                         lambda: gmp.powmod(0, -5, big),
                         lambda: gmp.powmod(big, -2, big),
                         lambda: gmp.invert(6, big),
                         lambda: gmp.invert(6, 0),
                         lambda: gmp.jacobi(3, 0)):
                try:
                    call()
                except (ValueError, ZeroDivisionError) as exc:
                    print(type(exc).__name__)
        """)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == (
            ["ValueError"] * 7 + ["ZeroDivisionError"]
        )

    def test_single_limb_edge_moduli_never_reach_libgmp(self):
        # Moduli 0, 1 and 2 stay on CPython at every primitive (0 is
        # SIGFPE in libgmp); an even single-limb modulus runs powmod and
        # invert natively but jacobi on the reference, where
        # mpz_ui_kronecker would return the Kronecker symbol instead.
        probe = self._probe("""
            from repro.math.backend import PythonBackend
            python = PythonBackend()

            def outcome(function, *args):
                try:
                    return function(*args)
                except (ValueError, ZeroDivisionError) as exc:
                    return type(exc).__name__, str(exc)

            even = (1 << 47) + 6
            for m in (0, 1, 2, 4, 10, even, (1 << 63) + 2, -7, -even):
                for a in (-(1 << 64), -3, 0, 3, 7, even + 1, 1 << 64):
                    for e in (0, 3, 300, (1 << 64) - 1, -1, -300):
                        assert outcome(gmp.powmod, a, e, m) == outcome(
                            pow, a, e, m), (a, e, m)
                    assert outcome(gmp.invert, a, m) == outcome(
                        python.invert, a, m), (a, m)
                    assert outcome(gmp.jacobi, a, m) == outcome(
                        python.jacobi, a, m), (a, m)
            # The control: on an even modulus the Kronecker symbol is not
            # the reference's answer.
            regs = gmp._registers(10)
            print(gmp._kronecker(3, regs.m), python.jacobi(3, 10))
        """)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["1", "-1"]

    def test_libgmp_itself_dies_on_a_zero_modulus(self):
        # The control for the probe above: the raw call does crash.
        probe = self._probe("""
            regs = gmp._local.registers
            gmp._load(regs.a, 5)
            gmp._load(regs.b, 3)
            gmp._lib.powm(regs.out, regs.a, regs.b, regs.m)
        """)
        assert probe.returncode == -signal.SIGFPE
