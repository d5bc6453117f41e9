"""Unit tests for the pluggable arithmetic backend seam.

Covers the primitive contracts (both implementations return plain
``int``s computing the same functions), the selection machinery
(env autodetection, ``set_backend``/``use_backend`` semantics, the
``auto`` sentinel, strict vs. degrading resolution), the registry, and
the worker-process re-initialization hook.

The gmpy2 wrapper is exercised even without gmpy2 installed by handing
:class:`Gmpy2Backend` a stub module with the same call surface; the
real library (when present) is covered by ``test_backend_equivalence``.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.math import backend
from repro.math.backend import (
    AUTO,
    ArithmeticBackend,
    BackendUnavailable,
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
        assert "python" in choices and "gmpy2" in choices

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
        assert backend._detect_from_environment().name in ("python", "gmpy2")
        # A bogus env var must never break import-time detection.
        monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
        assert backend._detect_from_environment().name == "python"

    def test_gmpy2_selection_via_stubbed_module(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "gmpy2", _FakeGmpy2)
        selected = backend.set_backend("gmpy2")
        assert selected.name == "gmpy2" and selected.native
        assert backend.powmod(3, 100, P) == pow(3, 100, P)

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
