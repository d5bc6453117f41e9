"""Pluggable arithmetic backend: the native-speed seam under every group.

All hot arithmetic in the library — group multiplication and
exponentiation, Paillier's Z_{n²} operations, Shamir field arithmetic,
Miller-Rabin, Tonelli-Shanks — bottoms out in a handful of bigint
primitives.  This module defines that primitive set once
(:class:`ArithmeticBackend`) with two interchangeable implementations:

* :class:`PythonBackend` — pure CPython ``pow``/``%`` arithmetic, always
  available, the reference the rest of the stack is tested against;
* :class:`Gmpy2Backend` — the same primitives on :mod:`gmpy2` (GMP),
  auto-detected at import, typically 5-20x faster at 2048-bit sizes.

Design invariants (enforced by ``tests/test_backend_equivalence.py``):

* **Determinism.**  A backend is *arithmetic only*.  Both
  implementations compute the same mathematical function and always
  return plain Python ``int``s, so serialized elements, transcripts,
  and fingerprints are byte-identical whichever backend ran.
* **No randomness crosses the seam.**  Backends expose no sampling
  interface at all; every random draw stays in :mod:`repro.math.rng`
  and the precompute pool, so the R-RNG/R-POOL lint invariants hold
  whatever backend is active (this module is *not* in the linter's
  RNG-allowed set — see ``repro.lint.registry``).
* **Metering is unchanged.**  :class:`~repro.groups.base.OperationCounter`
  accounting happens above the seam (in ``group.mul``/``group.exp``),
  so operation counts are backend-independent by construction.

Selection:

* at import, the active backend is resolved from the ``REPRO_BACKEND``
  environment variable (``python`` / ``gmpy2`` / ``auto``, default
  ``auto`` = gmpy2 when importable, else python);
* :func:`set_backend` / :func:`use_backend` override it at runtime
  (``FrameworkConfig.backend`` and the CLI ``--backend`` flag call
  these); the sentinel ``"auto"`` means "keep whatever is active", so
  wrapping code can pin a backend without every callee re-detecting;
* worker processes re-select the parent's choice via
  :func:`worker_initializer` (plumbed through
  :class:`repro.runtime.parallel.WorkerPool`), so a fork/spawn child
  never silently diverges from the parent's configuration.

Callers must go through the module-level functions (``backend.powmod``)
or :func:`get_backend` at *call* time — never ``from repro.math.backend
import powmod`` — so a runtime switch reaches every call site.
"""

from __future__ import annotations

import importlib
import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "ArithmeticBackend",
    "BackendUnavailable",
    "PythonBackend",
    "Gmpy2Backend",
    "available_backends",
    "backend_choices",
    "get_backend",
    "active_backend_name",
    "set_backend",
    "use_backend",
    "register_backend",
    "worker_initializer",
    "powmod",
    "mulmod",
    "invert",
    "gcd",
    "jacobi",
    "bit_length",
]


class BackendUnavailable(RuntimeError):
    """Raised when an explicitly requested backend cannot be constructed."""


class ArithmeticBackend:
    """The minimal primitive set every implementation must provide.

    All methods take and return plain Python ``int``s; implementations
    may use native types internally but must convert back, so values
    are interchangeable across backends (hashing, pickling, and
    serialization see no difference).
    """

    #: Stable identifier used by selection and worker re-initialization.
    name: str = "abstract"
    #: True when the backend is backed by a native (non-CPython) library.
    native: bool = False

    # -- core modular arithmetic -------------------------------------------
    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` (exponent may be negative)."""
        raise NotImplementedError

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        """``a * b mod modulus``."""
        raise NotImplementedError

    def invert(self, a: int, modulus: int) -> int:
        """Inverse of ``a`` modulo ``modulus``.

        Raises :class:`ValueError` when no inverse exists; the message
        must not echo ``a`` (callers pass secret exponents).
        """
        raise NotImplementedError

    # -- number-theoretic helpers ------------------------------------------
    def gcd(self, a: int, b: int) -> int:
        raise NotImplementedError

    def jacobi(self, a: int, n: int) -> int:
        """Jacobi symbol ``(a/n)`` for odd positive ``n``."""
        raise NotImplementedError

    # -- primality hooks ----------------------------------------------------
    # Both hooks delegate to the library's own *deterministic*
    # Miller-Rabin (repro.math.primes), which itself runs on this
    # backend's powmod/mulmod.  gmpy2 ships a native is_prime, but its
    # witness selection is implementation-defined — routing through our
    # fixed witness schedule keeps prime generation bit-reproducible
    # across backends, which the transcript-equivalence guarantee needs.
    def is_prime(self, n: int) -> bool:
        from repro.math.primes import is_prime as _is_prime

        return _is_prime(n)

    def next_prime(self, n: int) -> int:
        from repro.math.primes import next_prime as _next_prime

        return _next_prime(n)

    # -- bit-length helpers --------------------------------------------------
    def bit_length(self, n: int) -> int:
        return int(n).bit_length()

    def byte_length(self, n: int) -> int:
        return (int(n).bit_length() + 7) // 8

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, native={self.native})"


class PythonBackend(ArithmeticBackend):
    """Pure-CPython reference implementation (always available)."""

    name = "python"
    native = False

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return a * b % modulus

    def invert(self, a: int, modulus: int) -> int:
        try:
            return pow(a, -1, modulus)
        except ValueError:
            raise ValueError(
                f"value is not invertible modulo {modulus}"
            ) from None

    def gcd(self, a: int, b: int) -> int:
        a, b = abs(a), abs(b)
        while b:
            a, b = b, a % b
        return a

    def jacobi(self, a: int, n: int) -> int:
        # Binary Jacobi; n validated odd/positive by the caller
        # (repro.math.modular.jacobi_symbol).  Each pass strips every
        # factor of two at once: (2/n) = -1 iff n ≡ 3, 5 (mod 8), so an
        # odd count of them flips the sign.  Reciprocity flips when both
        # a and n are ≡ 3 (mod 4), i.e. bit 1 is set in both.
        a %= n
        result = 1
        while a:
            if not a & 1:
                twos = (a & -a).bit_length() - 1
                a >>= twos
                if twos & 1 and (n & 7) in (3, 5):
                    result = -result
            if a & n & 2:
                result = -result
            a, n = n % a, a
        return result if n == 1 else 0


class Gmpy2Backend(ArithmeticBackend):
    """GMP-backed implementation via :mod:`gmpy2` (optional).

    Every method converts its result back to a plain ``int`` so nothing
    above the seam ever sees an ``mpz`` — element hashing, pickling to
    workers, and wire serialization behave exactly as on the python
    backend.
    """

    name = "gmpy2"
    native = True

    def __init__(self, module=None):
        g = module if module is not None else importlib.import_module("gmpy2")
        self._gmpy2 = g
        self._mpz = g.mpz
        self._powmod = g.powmod
        self._invert = g.invert
        self._gcd = g.gcd
        self._jacobi = g.jacobi

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._powmod(base, exponent, modulus))

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return int(self._mpz(a) * b % modulus)

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._invert(a, modulus))
        except ZeroDivisionError:
            raise ValueError(
                f"value is not invertible modulo {modulus}"
            ) from None

    def gcd(self, a: int, b: int) -> int:
        return int(self._gcd(a, b))

    def jacobi(self, a: int, n: int) -> int:
        return int(self._jacobi(a, n))


# ---------------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------------

#: Choices FrameworkConfig / the CLI accept.
AUTO = "auto"

_FACTORIES: Dict[str, Callable[[], ArithmeticBackend]] = {
    "python": PythonBackend,
    "gmpy2": Gmpy2Backend,
}

_lock = threading.Lock()
_active: ArithmeticBackend


def register_backend(name: str, factory: Callable[[], ArithmeticBackend]) -> None:
    """Register an additional backend implementation (tests, extensions)."""
    if name == AUTO:
        raise ValueError("'auto' is a selection sentinel, not a backend name")
    _FACTORIES[name] = factory


def backend_choices() -> List[str]:
    """Every name :func:`set_backend` accepts, including ``auto``."""
    return [AUTO] + sorted(_FACTORIES)


def available_backends() -> List[str]:
    """Registered backends that can actually be constructed right now."""
    names = []
    for name in sorted(_FACTORIES):
        try:
            _FACTORIES[name]()
        # repro-lint: ignore[R-EXCEPT] -- availability probe: construction
        # failure IS the signal; nothing protocol-blamed can be in flight
        except Exception:
            continue
        names.append(name)
    return names


def _detect(choice: str) -> ArithmeticBackend:
    """Resolve ``python``/``gmpy2``/``auto`` to a constructed backend.

    ``auto`` prefers gmpy2 and falls back to python; an explicit name
    raises :class:`BackendUnavailable` when construction fails.
    """
    if choice == AUTO:
        try:
            return _FACTORIES["gmpy2"]()
        # repro-lint: ignore[R-EXCEPT] -- optional-dependency probe at
        # selection time; falling back to the reference is the contract
        except Exception:
            return PythonBackend()
    try:
        factory = _FACTORIES[choice]
    except KeyError:
        raise BackendUnavailable(
            f"unknown arithmetic backend {choice!r}; "
            f"registered: {sorted(_FACTORIES)}"
        ) from None
    try:
        return factory()
    except BackendUnavailable:
        raise
    except Exception as exc:
        raise BackendUnavailable(
            f"arithmetic backend {choice!r} is not available: {exc}"
        ) from exc


def _detect_from_environment() -> ArithmeticBackend:
    choice = os.environ.get("REPRO_BACKEND", AUTO).strip().lower() or AUTO
    try:
        return _detect(choice)
    except BackendUnavailable:
        # Import must never fail because of an env var: fall back to the
        # always-available reference (explicit set_backend still raises).
        return PythonBackend()


def get_backend() -> ArithmeticBackend:
    """The currently active backend object."""
    return _active


def active_backend_name() -> str:
    return _active.name


def set_backend(choice: str, *, strict: bool = True) -> ArithmeticBackend:
    """Activate a backend process-wide and return it.

    ``choice`` is a registered name or ``"auto"``; ``auto`` keeps the
    currently active backend (detection already ran at import), so
    config defaults never clobber an explicit earlier selection.  With
    ``strict=False`` an unavailable choice degrades to the python
    reference instead of raising — the worker-process path uses this,
    which is safe precisely because backends are transcript-equivalent.
    """
    global _active
    if choice == AUTO:
        return _active
    try:
        selected = _detect(choice)
    except BackendUnavailable:
        if strict:
            raise
        selected = PythonBackend()
    with _lock:
        _active = selected
    return selected


@contextmanager
def use_backend(choice: str, *, strict: bool = True) -> Iterator[ArithmeticBackend]:
    """Scoped :func:`set_backend`: restores the previous backend on exit."""
    global _active
    previous = _active
    selected = set_backend(choice, strict=strict)
    try:
        yield selected
    finally:
        with _lock:
            _active = previous


def worker_initializer(backend_name: Optional[str]) -> None:
    """Re-select the parent's backend inside a freshly spawned/forked worker.

    Non-strict: a child that cannot construct the parent's backend
    (e.g. gmpy2 present in the parent venv only) degrades to the python
    reference — values are identical either way, only speed differs.
    """
    if backend_name:
        set_backend(backend_name, strict=False)


# ---------------------------------------------------------------------------
# Module-level convenience wrappers (always dispatch to the ACTIVE backend)
# ---------------------------------------------------------------------------

def powmod(base: int, exponent: int, modulus: int) -> int:
    return _active.powmod(base, exponent, modulus)


def mulmod(a: int, b: int, modulus: int) -> int:
    return _active.mulmod(a, b, modulus)


def invert(a: int, modulus: int) -> int:
    return _active.invert(a, modulus)


def gcd(a: int, b: int) -> int:
    return _active.gcd(a, b)


def jacobi(a: int, n: int) -> int:
    return _active.jacobi(a, n)


def bit_length(n: int) -> int:
    return _active.bit_length(n)


_active = _detect_from_environment()
