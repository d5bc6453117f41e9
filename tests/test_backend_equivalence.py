"""Transcript-equivalence guarantee: backends change speed, never bytes.

The backend seam's contract is that swapping the arithmetic
implementation perturbs NOTHING observable: ranks, retry/exclusion
bookkeeping, every transcript entry, measured wire bytes and the wire
digest, and — on faulted runs — which party gets blamed.

Two "other" backends are exercised against the pure-python reference:

* ``shim`` — the :class:`~repro.math.backend.Gmpy2Backend` wrapper over
  a stub module with gmpy2's call surface.  Always available, so the
  wrapper code path (mpz round-trips, ZeroDivisionError translation) is
  end-to-end covered on every CI run;
* ``gmp`` — :class:`~repro.math.backend.GmpBackend`, libgmp through
  ctypes, skipped when libgmp does not load.  At the 48-bit test group
  ``powmod``, ``invert`` and ``jacobi`` take its single-limb path, one
  machine word per operand (a spy on the libgmp entry points checks
  that the ranking reaches them); the full ranking is also run over a
  96-bit group, where every operand crosses as bytes;
* ``gmpy2`` — the real library, skipped when not installed (CI's
  dedicated backend job installs it).
"""

from __future__ import annotations

import collections
import importlib.util

import pytest

from repro.anonmsg.collection import run_anonymous_collection
from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.math import backend
from repro.math.backend import Gmpy2Backend
from repro.math.rng import SeededRNG
from repro.runtime.errors import ProtocolAbort
from repro.runtime.faults import FaultSpec
from tests.conftest import make_participants
from tests.test_math_backend import _FakeGmpy2
from tests.test_runtime_faults import outcome_fingerprint

HAVE_GMPY2 = importlib.util.find_spec("gmpy2") is not None

N = 8  # full-size enough that every protocol phase does real work


class _ShimBackend(Gmpy2Backend):
    name = "shim"
    native = False

    def __init__(self):
        super().__init__(module=_FakeGmpy2)


@pytest.fixture(scope="module", autouse=True)
def _register_shim():
    backend.register_backend("shim", _ShimBackend)
    previous = backend.active_backend_name()
    yield
    backend._FACTORIES.pop("shim", None)
    backend.set_backend(previous, strict=False)


needs_gmp = pytest.mark.skipif(
    "gmp" not in backend.available_backends(), reason="libgmp does not load"
)

OTHER_BACKENDS = [
    "shim",
    pytest.param("gmp", marks=needs_gmp),
    pytest.param(
        "gmpy2",
        marks=pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed"),
    ),
]


def build_framework(group, schema, initiator_input, backend_name, **overrides):
    config_kwargs = dict(
        group=group, schema=schema, num_participants=N, k=3, rho_bits=6,
        wire="measured", backend=backend_name,
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    participants = make_participants(schema, N, seed=23)
    return GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(7)
    )


def wire_fingerprint(result):
    stats = result.wire_stats
    return (stats.digest, stats.wire_bytes, stats.wire_messages,
            stats.logical_messages)


@pytest.mark.parametrize("other", OTHER_BACKENDS)
class TestRankingEquivalence:
    def test_full_ranking_is_transcript_identical(
        self, small_dl_group, small_schema, small_initiator_input, other
    ):
        reference = build_framework(
            small_dl_group, small_schema, small_initiator_input, "python"
        ).run()
        candidate = build_framework(
            small_dl_group, small_schema, small_initiator_input, other
        ).run()
        assert outcome_fingerprint(candidate) == outcome_fingerprint(reference)
        assert wire_fingerprint(candidate) == wire_fingerprint(reference)
        assert candidate.selected_ids() == reference.selected_ids()

    def test_operation_counts_are_backend_independent(
        self, small_schema, small_initiator_input, other
    ):
        # Metering happens above the seam, so even the op-count report
        # must not move.  Fresh per-run groups: the session group's
        # counter/membership cache would leak state across runs.
        from repro.groups.dl import DLGroup

        counts = []
        for name in ("python", other):
            group = DLGroup.random(48, rng=SeededRNG(101))
            result = build_framework(
                group, small_schema, small_initiator_input, name
            ).run()
            counts.append(
                (result.max_participant_multiplications(),
                 group.counter.snapshot())
            )
        assert counts[0] == counts[1]

    def test_blame_is_backend_independent(
        self, small_dl_group, small_schema, small_initiator_input, other
    ):
        outcomes = []
        for name in ("python", other):
            framework = build_framework(
                small_dl_group, small_schema, small_initiator_input, name,
                recovery=False,
            )
            specs = [FaultSpec(kind="corrupt", party=3, tag="beta-bits")]
            with pytest.raises(ProtocolAbort) as excinfo:
                framework.run(faults=specs)
            outcomes.append(
                (excinfo.value.blamed, excinfo.value.phase, str(excinfo.value))
            )
        assert outcomes[0] == outcomes[1]


@needs_gmp
def test_48_bit_gmp_ranking_reaches_libgmp(
    small_dl_group, small_schema, small_initiator_input, monkeypatch
):
    # Count every call into the one-word entry points and mpz_invert;
    # the spies go in before the framework builds its GmpBackend, and
    # the backend active before the test is restored after it.
    monkeypatch.setattr(backend, "_active", backend.get_backend())
    lib = backend._load_libgmp()
    calls = collections.Counter()
    for name in ("powm_ui", "ui_kronecker", "invert", "set_ui", "get_ui"):
        original = getattr(lib, name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lib, name, spy)
    reference = build_framework(
        small_dl_group, small_schema, small_initiator_input, "python"
    ).run()
    assert not calls
    candidate = build_framework(
        small_dl_group, small_schema, small_initiator_input, "gmp"
    ).run()
    assert outcome_fingerprint(candidate) == outcome_fingerprint(reference)
    assert wire_fingerprint(candidate) == wire_fingerprint(reference)
    # Powers, Jacobi symbols and inverses all ran on libgmp, and each
    # power and inverse moved one word in and one word out.
    assert calls["powm_ui"] > 1000
    assert calls["ui_kronecker"] > 1000
    assert calls["invert"] > 1000
    assert calls["set_ui"] == calls["powm_ui"] + calls["invert"]
    assert calls["get_ui"] == calls["set_ui"]


@needs_gmp
def test_native_width_ranking_is_transcript_identical(
    small_schema, small_initiator_input
):
    from repro.groups.dl import DLGroup

    reference, candidate = (
        build_framework(
            DLGroup.random(96, rng=SeededRNG(101)), small_schema,
            small_initiator_input, name,
        ).run()
        for name in ("python", "gmp")
    )
    assert outcome_fingerprint(candidate) == outcome_fingerprint(reference)
    assert wire_fingerprint(candidate) == wire_fingerprint(reference)


@pytest.mark.parametrize("other", OTHER_BACKENDS)
class TestCollectionEquivalence:
    def test_mixnet_collection_is_transcript_identical(
        self, small_dl_group, other
    ):
        messages = list(range(1, N + 1))
        runs = [
            run_anonymous_collection(
                small_dl_group, messages, SeededRNG(11), backend=name,
            )
            for name in ("python", other)
        ]
        reference, candidate = runs
        assert candidate.messages == reference.messages
        assert candidate.rounds == reference.rounds
        assert candidate.wire_stats.digest == reference.wire_stats.digest
        assert candidate.wire_stats.wire_bytes == reference.wire_stats.wire_bytes
        assert [
            (e.round, e.src, e.dst, e.tag, e.size_bits)
            for e in candidate.transcript
        ] == [
            (e.round, e.src, e.dst, e.tag, e.size_bits)
            for e in reference.transcript
        ]


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
class TestRealGmpy2:
    def test_gmpy2_detected_as_available(self):
        assert "gmpy2" in backend.available_backends()

    def test_primitives_agree_with_python_at_width(self):
        from repro.math.backend import PythonBackend

        g = Gmpy2Backend()
        ref = PythonBackend()
        p = (1 << 2048) - 1942289  # 2048-bit odd modulus (cryptographic width)
        base, exponent = 0xDEADBEEF, (1 << 2047) + 12345
        assert g.powmod(base, exponent, p) == ref.powmod(base, exponent, p)
        assert g.invert(base, p) == ref.invert(base, p)
        assert g.jacobi(base, p) == ref.jacobi(base, p)
