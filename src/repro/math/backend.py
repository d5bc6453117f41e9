"""Pluggable arithmetic backend: the native-speed seam under every group.

All hot arithmetic in the library — group multiplication and
exponentiation, Paillier's Z_{n²} operations, Shamir field arithmetic,
Miller-Rabin, Tonelli-Shanks — bottoms out in a handful of bigint
primitives.  This module defines that primitive set once
(:class:`ArithmeticBackend`) with three interchangeable implementations:

* :class:`PythonBackend` — pure CPython ``pow``/``%`` arithmetic, always
  available, the reference the rest of the stack is tested against;
* :class:`GmpBackend` — ``powmod``, ``invert`` and ``jacobi`` on the
  system's libgmp through :mod:`ctypes` (nothing to install), routed by
  operand size: a modulus that fits one machine word crosses as that
  word, one foreign call per operand (about 3.5x CPython's ``powmod``
  at 48 bits), a wider one as bytes (10-12x at 1024-2048 bits); CPython
  keeps the few cases where it is faster (one-digit moduli, short
  exponents, small inverses);
* :class:`Gmpy2Backend` — the same primitives on :mod:`gmpy2` (GMP),
  when that package is installed.

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
  environment variable (``python`` / ``gmp`` / ``gmpy2`` / ``auto``,
  default ``auto`` = gmpy2 when importable, else gmp when libgmp loads,
  else python);
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
import powmod`` — so a runtime switch reaches every call site.  A caller
that picks between a kernel of its own and ``powmod`` (the fixed-base
tables of :class:`repro.groups.dl.DLGroup`) asks :func:`native_powmod`,
so the backend alone decides where its native arithmetic starts; only
``gmp`` has measured that crossover, so it alone answers yes (from a
30-bit modulus up).
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ArithmeticBackend",
    "BackendUnavailable",
    "PythonBackend",
    "GmpBackend",
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
    "native_powmod",
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

    def native_powmod(self, modulus: int) -> bool:
        """True when a full-width :meth:`powmod` modulo ``modulus`` is
        measured to beat a Python-level fixed-base table walk, so a
        caller with tables of its own should call it instead.

        False unless a backend has measured its crossover: only
        :class:`GmpBackend` has, so the python and gmpy2 backends keep
        the callers' tables at every width.
        """
        return False

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


# ---------------------------------------------------------------------------
# libgmp through ctypes
# ---------------------------------------------------------------------------

#: Non-negative exponents below this stay on CPython at every width (the
#: curves' ``z^4`` and ``x^3``).
_TINY_EXPONENT = 8

#: Single-limb crossovers, below which CPython beats the foreign calls
#: (measured in EXPERIMENTS.md, NATIVE-WORD; the crossover rows of
#: benchmarks/results/BENCH_backend.json time this routing):
#:
#: * ``powmod`` runs native from this modulus up.  Below it every
#:   operand is one 30-bit CPython digit, CPython's fastest case.  From
#:   here up one native power also beats a fixed-base table walk, so
#:   :meth:`GmpBackend.native_powmod` says yes;
_NATIVE_POWMOD = 1 << 30
#: * a single-limb ``powmod`` needs a non-negative exponent of at least
#:   this;
_WORD_EXPONENT = 1 << 8
#: * ``invert`` runs native from this modulus up.
_NATIVE_INVERT = 1 << 40

#: libgmp's shared-object names, loaded by soname: ``ctypes.util.
#: find_library`` would fork ``ldconfig`` in every process.
_GMP_LIBRARIES = ("libgmp.so.10", "libgmp.10.dylib")


class _Libgmp:
    """The libgmp entry points :class:`GmpBackend` calls, and the
    :mod:`ctypes` pieces that reach them.  ``ctypes`` is imported here,
    not with the module, so a process on another backend never loads
    it."""

    def __init__(self, names: Tuple[str, ...]):
        import ctypes

        if sys.byteorder != "little":
            raise OSError("limbs are read back as little-endian bytes")
        dll = None
        for name in names:
            try:
                dll = ctypes.CDLL(name)
                break
            except OSError:
                continue
        if dll is None:
            raise OSError(f"libgmp not found (tried {', '.join(names)})")
        pointer, size, flag = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
        word = ctypes.c_ulong

        def bind(symbol, argtypes, restype=None):
            function = getattr(dll, symbol)
            function.argtypes = argtypes
            function.restype = restype
            return function

        self.init = bind("__gmpz_init", [pointer])
        self.clear = bind("__gmpz_clear", [pointer])
        self.import_bytes = bind(
            "__gmpz_import",
            [pointer, size, flag, size, flag, size, ctypes.c_char_p],
        )
        self.powm = bind("__gmpz_powm", [pointer] * 4)
        self.invert = bind("__gmpz_invert", [pointer] * 3, flag)
        self.jacobi = bind("__gmpz_jacobi", [pointer] * 2, flag)
        # One-word entry points: an operand below 2^(8·sizeof(unsigned
        # long)) crosses as the machine word itself.  ctypes silently
        # masks a wider int to that width, so every caller must
        # range-check first.
        self.set_ui = bind("__gmpz_set_ui", [pointer, word])
        self.get_ui = bind("__gmpz_get_ui", [pointer], word)
        self.powm_ui = bind("__gmpz_powm_ui", [pointer, pointer, word, pointer])
        self.ui_kronecker = bind("__gmpz_ui_kronecker", [word, pointer], flag)
        self.word_limit = 1 << (8 * ctypes.sizeof(word))
        self.limb_bytes = ctypes.c_int.in_dll(dll, "__gmp_bits_per_limb").value // 8

        class Mpz(ctypes.Structure):
            """GMP's ``__mpz_struct``."""

            _fields_ = [
                ("_mp_alloc", ctypes.c_int),
                ("_mp_size", ctypes.c_int),
                ("_mp_d", ctypes.c_void_p),
            ]

        self.four_mpz = Mpz * 4
        self.addressof = ctypes.addressof
        self.string_at = ctypes.string_at


@lru_cache(maxsize=None)
def _load_libgmp() -> _Libgmp:
    return _Libgmp(_GMP_LIBRARIES)


class _Registers:
    """Four ``mpz_t`` owned by one thread: operands ``a``, ``b``, ``m``
    and the result ``out``, as addresses for the foreign calls.
    ``modulus`` is the value resident in ``m`` (``mpz_init`` leaves 0)."""

    def __init__(self, lib: _Libgmp):
        self._clear = lib.clear
        self._mpz = lib.four_mpz()
        self._addresses = [lib.addressof(z) for z in self._mpz]
        for address in self._addresses:
            lib.init(address)
        self.a, self.b, self.m, self.out = self._addresses
        self.result = self._mpz[3]
        self.modulus = 0

    def __del__(self) -> None:
        for address in self._addresses:
            self._clear(address)


class _ThreadRegisters(threading.local):
    """Per-thread :class:`_Registers`: ctypes drops the GIL for every
    foreign call, so threads sharing operands would overwrite them
    mid-call.  A forked child keeps its parent thread's copy."""

    def __init__(self, lib: _Libgmp):
        self.registers = _Registers(lib)


class GmpBackend(PythonBackend):
    """``powmod``, ``invert`` and ``jacobi`` on libgmp through :mod:`ctypes`.

    Every method still takes and returns plain ``int``s; ``mulmod`` and
    ``gcd`` stay on CPython.  Each thread keeps its modulus resident in
    a register and reloads it only when the modulus changes.  Each call
    is routed by its operands:

    * a *single-limb* modulus, ``2 < m < 2^(8·sizeof(unsigned long))``,
      crosses as one machine word: operands are reduced in Python and
      each crosses in one foreign call (``mpz_set_ui`` in, ``mpz_get_ui``
      out, ``mpz_powm_ui``, ``mpz_ui_kronecker``).  Exponents must fit
      the word too; a wider or negative one runs on CPython;
    * a *multi-limb* modulus crosses as little-endian bytes
      (``mpz_import``) and the result's limbs are read back.  A negative
      exponent is an inverse (``mpz_invert``), then a power of it;
    * CPython keeps what it does faster (``_TINY_EXPONENT`` and the
      single-limb crossovers) and what libgmp must not see: it kills
      the process with SIGFPE on a zero modulus and on a negative power
      with no inverse, so moduli up to 2 and negative moduli stay on
      CPython, and a missing inverse raises CPython's own ``ValueError``;
    * ``jacobi`` with an even modulus, or one below 3, runs the python
      reference: for even ``n``, ``mpz_ui_kronecker`` is the Kronecker
      symbol, not the Jacobi symbol.
    """

    name = "gmp"
    native = True

    def __init__(self) -> None:
        self._lib = lib = _load_libgmp()
        self._local = _ThreadRegisters(lib)
        self._word = lib.word_limit
        self._set_ui, self._get_ui = lib.set_ui, lib.get_ui
        self._powm_ui, self._kronecker = lib.powm_ui, lib.ui_kronecker

    def native_powmod(self, modulus: int) -> bool:
        return modulus >= _NATIVE_POWMOD

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        if modulus < self._word:
            if (_NATIVE_POWMOD <= modulus
                    and _WORD_EXPONENT <= exponent < self._word):
                regs = self._local.registers
                if regs.modulus != modulus:
                    regs = self._registers(modulus)
                self._set_ui(regs.a, base % modulus)
                self._powm_ui(regs.out, regs.a, exponent, regs.m)
                return self._get_ui(regs.out)
            return pow(base, exponent, modulus)
        if exponent < 0:
            return self._negative_power(base, exponent, modulus)
        if exponent < _TINY_EXPONENT:
            return pow(base, exponent, modulus)
        regs = self._registers(modulus)
        self._load(regs.a, base % modulus if base < 0 else base)
        self._load(regs.b, exponent)
        self._lib.powm(regs.out, regs.a, regs.b, regs.m)
        return self._read(regs.result)

    def _negative_power(self, base: int, exponent: int, modulus: int) -> int:
        regs = self._registers(modulus)
        self._load(regs.a, base % modulus)
        if not self._lib.invert(regs.out, regs.a, regs.m):
            return pow(base, exponent, modulus)  # raises: no inverse
        if exponent != -1:
            self._load(regs.b, -exponent)
            self._lib.powm(regs.out, regs.out, regs.b, regs.m)
        return self._read(regs.result)

    def invert(self, a: int, modulus: int) -> int:
        if modulus < _NATIVE_INVERT:
            return PythonBackend.invert(self, a, modulus)
        regs = self._registers(modulus)
        word = modulus < self._word
        if word:
            self._set_ui(regs.a, a % modulus)
        else:
            self._load(regs.a, a % modulus if a < 0 else a)
        if not self._lib.invert(regs.out, regs.a, regs.m):
            raise ValueError(f"value is not invertible modulo {modulus}")
        return self._get_ui(regs.out) if word else self._read(regs.result)

    def jacobi(self, a: int, n: int) -> int:
        if n < 3 or not n & 1:
            return PythonBackend.jacobi(self, a, n)
        regs = self._local.registers
        if regs.modulus != n:
            regs = self._registers(n)
        if n < self._word:
            return self._kronecker(a % n, regs.m)
        self._load(regs.a, a % n if a < 0 else a)
        return self._lib.jacobi(regs.a, regs.m)

    def _registers(self, modulus: int) -> _Registers:
        """This thread's registers, with ``modulus`` resident in ``m``.

        The word paths inline the check for a modulus already resident
        and call this only to reload it."""
        regs = self._local.registers
        if regs.modulus != modulus:
            self._load(regs.m, modulus)
            regs.modulus = modulus
        return regs

    def _load(self, address: int, value: int) -> None:
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        self._lib.import_bytes(address, len(data), -1, 1, 0, 0, data)

    def _read(self, mpz: Any) -> int:
        lib = self._lib
        return int.from_bytes(
            lib.string_at(mpz._mp_d, mpz._mp_size * lib.limb_bytes), "little"
        )


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
    "gmp": GmpBackend,
    "gmpy2": Gmpy2Backend,
}

#: What ``auto`` tries, in order, before the always-available reference.
_AUTO_ORDER = ("gmpy2", "gmp")

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
    """Resolve a backend name or ``auto`` to a constructed backend.

    ``auto`` takes the first of gmpy2, gmp that constructs and falls
    back to python; an explicit name raises :class:`BackendUnavailable`
    when construction fails.
    """
    if choice == AUTO:
        for name in _AUTO_ORDER:
            try:
                return _FACTORIES[name]()
            # repro-lint: ignore[R-EXCEPT] -- optional-dependency probe at
            # selection time; falling back to the reference is the contract
            except Exception:
                continue
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


def native_powmod(modulus: int) -> bool:
    return _active.native_powmod(modulus)


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
