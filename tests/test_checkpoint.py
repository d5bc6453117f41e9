"""Durable checkpoint/resume: kill-and-rejoin must be invisible.

The acceptance bar for the checkpoint layer, mirroring the fault
matrix's: a party killed mid-run and rebuilt from its durable state
must *rejoin* the same attempt — no exclusion, no rerun — and the
restored run must be transcript-equivalent to an uninterrupted one:
identical outcome fingerprints, wire digests, and operation counts, on
every arithmetic backend.  The on-disk records themselves must be
crash-safe (torn tails truncate, snapshots are atomic) and sealed
(plaintext secrets never touch the store).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.math import backend
from repro.math.rng import SeededRNG
from repro.runtime.channels import Message
from repro.runtime.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointManager,
    CheckpointStore,
    open_state,
    seal_state,
)
from repro.runtime.errors import PartyTimeout
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.parallel import WorkerPool
from tests.conftest import make_participants
from tests.test_backend_equivalence import _ShimBackend, wire_fingerprint
from tests.test_runtime_faults import PHASE_TAGS, outcome_fingerprint

N = 3
FAULTY = 2
KEY = b"k" * 32
NONCE = bytes(16)


@pytest.fixture(scope="module", autouse=True)
def _register_shim():
    registered = "shim" not in backend._FACTORIES
    if registered:
        backend.register_backend("shim", _ShimBackend)
    previous = backend.active_backend_name()
    yield
    if registered:
        backend._FACTORIES.pop("shim", None)
    backend.set_backend(previous, strict=False)


def build(group, schema, initiator_input, n=N, seed=5, **overrides):
    config_kwargs = dict(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6,
        recovery=True, timeout_rounds=3, max_retries=2, wire="measured",
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    participants = make_participants(schema, n, seed=19)
    return GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )


def kill(party, tag, **kwargs):
    return FaultSpec(kind="kill_restart", party=party, tag=tag, **kwargs)


# ---------------------------------------------------------------------------
# Sealed records
# ---------------------------------------------------------------------------

class TestSealedRecords:
    def test_round_trip(self):
        token = seal_state(KEY, b"share=12345", nonce=NONCE, aad=b"hdr")
        assert open_state(KEY, token, aad=b"hdr") == b"share=12345"
        assert b"share=12345" not in token

    def test_empty_body_round_trip(self):
        token = seal_state(KEY, b"", nonce=NONCE, aad=b"hdr")
        assert open_state(KEY, token, aad=b"hdr") == b""

    def test_tamper_detected(self):
        token = bytearray(seal_state(KEY, b"payload", nonce=NONCE))
        token[-1] ^= 0x01
        with pytest.raises(CheckpointError, match="integrity"):
            open_state(KEY, bytes(token))

    def test_wrong_key_rejected(self):
        token = seal_state(KEY, b"payload", nonce=NONCE)
        with pytest.raises(CheckpointError, match="integrity"):
            open_state(b"x" * 32, token)

    def test_header_rides_as_aad(self):
        """Header tampering is caught even when the body is untouched."""
        token = seal_state(KEY, b"payload", nonce=NONCE, aad=b'{"round": 3}')
        with pytest.raises(CheckpointError, match="integrity"):
            open_state(KEY, token, aad=b'{"round": 4}')

    def test_bad_nonce_length(self):
        with pytest.raises(CheckpointError, match="nonce"):
            seal_state(KEY, b"payload", nonce=b"short")

    def test_truncated_token_rejected(self):
        with pytest.raises(CheckpointError, match="short"):
            open_state(KEY, b"tiny")


# ---------------------------------------------------------------------------
# Crash-safe store
# ---------------------------------------------------------------------------

class TestStore:
    def _records(self, count):
        return [(f'{{"seq": {i}}}'.encode(), bytes([i]) * 40) for i in range(count)]

    def test_journal_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        records = self._records(3)
        for header, sealed in records:
            store.append_record(0, 1, header, sealed)
        store.close()
        assert CheckpointStore(tmp_path).read_journal(0, 1) == records

    def test_torn_tail_is_truncated(self, tmp_path):
        """A crash mid-append loses only the unfinished record (WAL)."""
        store = CheckpointStore(tmp_path)
        records = self._records(4)
        for header, sealed in records:
            store.append_record(0, 1, header, sealed)
        store.close()
        path = tmp_path / "attempt-0000" / "party-0001" / "journal.log"
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the last record mid-body
        assert CheckpointStore(tmp_path).read_journal(0, 1) == records[:3]

    def test_bad_magic_rejected(self, tmp_path):
        directory = tmp_path / "attempt-0000" / "party-0001"
        directory.mkdir(parents=True)
        (directory / "journal.log").write_bytes(b"NOPE\n" + b"junk")
        with pytest.raises(CheckpointError, match="magic"):
            CheckpointStore(tmp_path).read_journal(0, 1)

    def test_missing_journal_is_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).read_journal(0, 9) == []

    def test_snapshots_ordered_and_atomic(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_snapshot(0, 1, 4, b"h4", b"later")
        store.write_snapshot(0, 1, 2, b"h2", b"earlier")
        assert store.read_snapshots(0, 1) == [(b"h2", b"earlier"), (b"h4", b"later")]
        # The write-rename discipline leaves no temp files behind.
        assert not list(tmp_path.rglob("*.tmp"))
        for path in (tmp_path / "attempt-0000" / "party-0001").glob("snap-*"):
            assert path.read_bytes().startswith(MAGIC)

    def test_master_key_is_created_once_and_private(self, tmp_path):
        first = CheckpointStore(tmp_path).master_key()
        second = CheckpointStore(tmp_path).master_key()
        assert first == second and len(first) == 32
        mode = (tmp_path / "checkpoint.key").stat().st_mode & 0o777
        assert mode == 0o600

    def test_attempts_listing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_record(0, 1, b"h", b"b")
        store.append_record(3, 1, b"h", b"b")
        assert store.attempts() == [0, 3]


# ---------------------------------------------------------------------------
# Precompute-pool cursor
# ---------------------------------------------------------------------------

class TestPoolCursor:
    def _pool(self, group, seed=9, size=8):
        from repro.crypto.precompute import RandomnessPool

        return RandomnessPool(
            group, group.exp_generator(5), SeededRNG(seed), size=size
        )

    def test_fast_forward_matches_served_stream(self, small_dl_group):
        """A rebuilt pool fast-forwarded to the dead pool's cursor serves
        the exact pairs the uninterrupted pool would have."""
        first = self._pool(small_dl_group)
        for _ in range(5):
            first.take()
        expected = [first.take() for _ in range(3)]
        twin = self._pool(small_dl_group)
        twin.fast_forward(5)
        assert twin.cursor == 5
        assert [twin.take() for _ in range(3)] == expected

    def test_fast_forward_past_precomputed_size_stays_aligned(
        self, small_dl_group
    ):
        first = self._pool(small_dl_group, size=2)
        for _ in range(4):  # runs dry after 2: online generation kicks in
            first.take()
        expected = first.take()
        twin = self._pool(small_dl_group, size=2)
        twin.fast_forward(4)
        assert twin.take() == expected

    def test_fast_forward_rejects_negative(self, small_dl_group):
        with pytest.raises(ValueError):
            self._pool(small_dl_group).fast_forward(-1)


# ---------------------------------------------------------------------------
# Worker-pool drain hooks
# ---------------------------------------------------------------------------

class TestDrainHooks:
    def test_hooks_fire_once_on_orderly_shutdown(self):
        pool = WorkerPool(workers=1)
        calls = []
        pool.register_drain(lambda: calls.append("drained"))
        pool.shutdown()
        pool.shutdown()
        assert calls == ["drained"]

    def test_context_manager_drains(self):
        calls = []
        with WorkerPool(workers=1) as pool:
            pool.register_drain(lambda: calls.append("drained"))
        assert calls == ["drained"]

    def test_internal_teardown_does_not_drain(self):
        """Broken-pool/mid-run teardown is not a persistence boundary."""
        pool = WorkerPool(workers=1)
        calls = []
        pool.register_drain(lambda: calls.append("drained"))
        pool._stop_executor()
        assert calls == []
        pool.shutdown()
        assert calls == ["drained"]


# ---------------------------------------------------------------------------
# kill_restart injector semantics
# ---------------------------------------------------------------------------

class TestInjectorKillRestart:
    def test_kind_registered(self):
        assert "kill_restart" in FaultSpec.KINDS
        FaultSpec(kind="kill_restart", party=1)  # does not raise

    def test_verdict_flags_restart(self):
        injector = FaultInjector([kill(1, "t")], rng=SeededRNG(1))
        msg = Message(src=1, dst=2, tag="t", payload=0, size_bits=1)
        verdict = injector.on_send(msg, round=0)
        assert verdict.crashed and verdict.restart

    def test_crash_verdict_is_commit_free(self):
        """The lookahead neither logs an event nor consumes the match
        window — the real on_send that follows commits exactly once."""
        injector = FaultInjector([kill(1, "t")], rng=SeededRNG(1))
        msg = Message(src=1, dst=2, tag="t", payload=0, size_bits=1)
        assert injector.crash_verdict(msg) is True
        assert injector.crash_verdict(msg) is True  # idempotent
        assert injector.events == []
        assert injector.on_send(msg, round=0).crashed
        assert len(injector.events) == 1
        assert injector.crash_verdict(msg) is False  # window consumed

    def test_plain_crash_also_prechecks(self):
        injector = FaultInjector(
            [FaultSpec(kind="crash", party=1, tag="t")], rng=SeededRNG(1)
        )
        msg = Message(src=1, dst=2, tag="t", payload=0, size_bits=1)
        assert injector.crash_verdict(msg) is True
        other = Message(src=1, dst=2, tag="other", payload=0, size_bits=1)
        assert injector.crash_verdict(other) is False


# ---------------------------------------------------------------------------
# Kill-and-rejoin: the transcript-equivalence matrix
# ---------------------------------------------------------------------------

class TestKillRejoin:
    """kill × phase: the rejoined run must equal the uninterrupted one."""

    def _pair(self, group, schema, initiator_input, tmp_path, specs,
              **overrides):
        # An injector that never fires frames every message alone, as an
        # injected run does, so baseline and killed runs are
        # byte-comparable; an empty plan is no plan, and both coalesce.
        baseline = build(group, schema, initiator_input, **overrides).run(
            faults=FaultInjector([]) if specs else None
        )
        framework = build(
            group, schema, initiator_input,
            checkpoint_dir=str(tmp_path / "ckpt"), **overrides,
        )
        restored = framework.run(faults=specs)
        return baseline, restored, framework

    @pytest.mark.parametrize("phase", sorted(PHASE_TAGS))
    def test_kill_rejoins_transcript_equivalent(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path,
        phase,
    ):
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, PHASE_TAGS[phase])],
        )
        assert restored.attempts == 1
        assert restored.excluded == []
        assert restored.rejoins >= 1
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert wire_fingerprint(restored) == wire_fingerprint(baseline)
        assert framework.check_result(restored) == []

    @pytest.mark.parametrize("other", ["python", "shim"])
    def test_rejoin_is_backend_independent(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path,
        other,
    ):
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, "beta-bits")], backend=other,
        )
        assert restored.rejoins >= 1
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert wire_fingerprint(restored) == wire_fingerprint(baseline)
        assert framework.check_result(restored) == []

    def test_checkpointing_alone_does_not_perturb(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """With no fault injected, the checkpoint plumbing must change
        nothing observable (same RNG draws, same rounds, same bytes)."""
        baseline, checkpointed, _ = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path, []
        )
        assert checkpointed.rejoins == 0
        assert outcome_fingerprint(checkpointed) == outcome_fingerprint(baseline)
        assert wire_fingerprint(checkpointed) == wire_fingerprint(baseline)

    def test_op_counts_match_uninterrupted(
        self, small_schema, small_initiator_input, tmp_path
    ):
        """Replay must not re-meter work: a rejoined run reports the
        same operation counts as one that never died."""
        from repro.groups.dl import DLGroup

        counts = []
        for specs, ckpt in (([], None), ([kill(FAULTY, "beta-bits")], "ckpt")):
            group = DLGroup.random(48, rng=SeededRNG(101))
            overrides = {}
            if ckpt:
                overrides["checkpoint_dir"] = str(tmp_path / ckpt)
            result = build(
                group, small_schema, small_initiator_input, **overrides
            ).run(faults=specs)
            counts.append(
                (result.max_participant_multiplications(),
                 group.counter.snapshot())
            )
        assert counts[0] == counts[1]

    def test_double_kill_rejoins_twice(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, "beta-bits", count=2)],
        )
        assert restored.attempts == 1
        assert restored.rejoins >= 2
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert wire_fingerprint(restored) == wire_fingerprint(baseline)
        assert framework.check_result(restored) == []

    def test_kill_with_periodic_sync(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, "tau-sets")], checkpoint_every=2,
        )
        assert restored.rejoins >= 1
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert framework.check_result(restored) == []

    def test_kill_with_precompute_pool(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """The rebuilt party fast-forwards its randomness pool to the
        dead party's cursor instead of re-drawing — same transcript."""
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, "tau-sets")], precompute=8,
        )
        assert restored.rejoins >= 1
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert wire_fingerprint(restored) == wire_fingerprint(baseline)
        assert framework.check_result(restored) == []

    def test_same_seed_same_outcome(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """Determinism holds across checkpoint directories: the (random)
        master key seals records but never touches the transcript."""
        fingerprints = []
        for name in ("a", "b"):
            framework = build(
                small_dl_group, small_schema, small_initiator_input,
                checkpoint_dir=str(tmp_path / name),
            )
            result = framework.run(faults=[kill(FAULTY, "beta-bits")])
            fingerprints.append(outcome_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]

    def test_rejoin_round_is_recorded(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        _, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(FAULTY, "beta-bits")],
        )
        assert restored.rejoins == 1
        assert FAULTY in framework.last_checkpoints.rejoined

    def test_initiator_kill_rejoins(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """The initiator-crash gap closes when checkpointing is on: P0 is
        rebuilt from its init record and replayed from round zero."""
        baseline, restored, framework = self._pair(
            small_dl_group, small_schema, small_initiator_input, tmp_path,
            [kill(0, "dp-response")],
        )
        assert restored.attempts == 1
        assert restored.excluded == []
        assert restored.rejoins >= 1
        assert outcome_fingerprint(restored) == outcome_fingerprint(baseline)
        assert wire_fingerprint(restored) == wire_fingerprint(baseline)
        assert framework.check_result(restored) == []

    def test_initiator_kill_without_checkpoints_still_aborts_typed(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """Without durable state the gap stays: blame on P0 cannot be
        excluded away, but the failure is still a typed abort."""
        framework = build(small_dl_group, small_schema, small_initiator_input)
        with pytest.raises(PartyTimeout) as excinfo:
            framework.run(faults=[kill(0, "dp-response")])
        assert excinfo.value.blamed == 0

    def test_kill_without_checkpoints_degrades_to_crash(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """No checkpoint_dir: kill_restart behaves exactly like crash —
        the party is blamed, excluded, and the attempt reruns."""
        framework = build(small_dl_group, small_schema, small_initiator_input)
        result = framework.run(faults=[kill(FAULTY, "beta-bits")])
        assert result.attempts == 2
        assert result.excluded == [FAULTY]
        assert result.rejoins == 0
        assert framework.check_result(result) == []


# ---------------------------------------------------------------------------
# Cross-process --resume
# ---------------------------------------------------------------------------

class TestResume:
    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(transport="tcp"),
        dict(n=4, shard_size=2),
    ], ids=["inproc", "tcp", "sharded"])
    def test_resume_requires_checkpoint_dir(
        self, small_dl_group, small_schema, small_initiator_input, overrides
    ):
        """Every runner shares the resume guard: the flat engine, the
        socket coordinator and the hierarchy's phase 1."""
        framework = build(
            small_dl_group, small_schema, small_initiator_input, **overrides
        )
        with pytest.raises(ValueError, match="checkpoint_dir"):
            framework.run(resume=True)

    def test_resume_skips_phase_one_when_betas_survived(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """A fresh process pointed at the durable state of a run whose
        β snapshots all survived re-enters at phase 2: no dot-product
        traffic in the resumed transcript, same final ranks."""
        first = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=str(tmp_path),
        )
        completed = first.run()
        second = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=str(tmp_path),
        )
        resumed = second.run(resume=True)
        # Attempt numbering continues across processes: the dead
        # process's attempt 0 counts, the resumed run is attempt 1.
        assert resumed.attempts == 2
        assert "dp-request" not in set(resumed.transcript.tags())
        assert resumed.ranks == completed.ranks
        assert second.check_result(resumed) == []

    def test_sharded_resume_numbers_attempts_like_the_flat_run(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """A sharded run that dies in a shard after phase 1 resumes at
        phase 2 as the resumed process's second attempt."""
        first = build(
            small_dl_group, small_schema, small_initiator_input, n=8,
            shard_size=3, checkpoint_dir=str(tmp_path), recovery=False,
        )
        with pytest.raises(PartyTimeout):
            first.run(faults=[FaultSpec(kind="crash", party=5,
                                        tag="beta-bits")])
        second = build(
            small_dl_group, small_schema, small_initiator_input, n=8,
            shard_size=3, checkpoint_dir=str(tmp_path),
        )
        resumed = second.run(resume=True)
        assert resumed.attempts == 2
        assert resumed.phase1_rounds == 0
        assert "dp-request" not in set(resumed.transcript.tags())
        assert sorted(resumed.ranks) == list(range(1, 9))
        assert second.check_result(resumed) == []

    def test_resume_from_incomplete_state_restarts_from_scratch(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """A process that died before every participant's β was durable
        resumes from the start — and completes."""
        first = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=str(tmp_path), recovery=False,
        )
        with pytest.raises(PartyTimeout):
            first.run(faults=[FaultSpec(kind="crash", party=FAULTY,
                                        tag="dp-request")])
        second = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=str(tmp_path),
        )
        resumed = second.run(resume=True)
        assert "dp-request" in set(resumed.transcript.tags())
        assert sorted(resumed.ranks) == [1, 2, 3]
        assert second.check_result(resumed) == []

    def test_resume_state_empty_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        try:
            assert manager.resume_state([1, 2, 3]) == ({}, 0)
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Secrecy: nothing readable on disk
# ---------------------------------------------------------------------------

class TestEncryptedAtRest:
    def _run_with_checkpoints(self, group, schema, initiator_input, tmp_path):
        framework = build(
            group, schema, initiator_input, checkpoint_dir=str(tmp_path),
            precompute=4,
        )
        framework.run(faults=[kill(FAULTY, "beta-bits")])

    def _decoded_secrets(self, tmp_path):
        """Decode the snapshots with the persisted master key and pull
        out every key-share secret exponent they carry."""
        manager = CheckpointManager(tmp_path)
        secrets = []
        try:
            for pid in range(1, N + 1):
                for _, state in manager._decoded_snapshots(pid, attempt=0):
                    share = state.get("share")
                    if share is not None:
                        secrets.append(int(share[1]))
        finally:
            manager.close()
        return secrets

    def test_no_plaintext_secrets_in_any_checkpoint_file(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        self._run_with_checkpoints(
            small_dl_group, small_schema, small_initiator_input, tmp_path
        )
        secrets = self._decoded_secrets(tmp_path)
        assert secrets, "expected at least one snapshotted key share"
        blob = b"".join(
            path.read_bytes()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file() and path.name != "checkpoint.key"
        )
        assert blob
        for secret in secrets:
            width = max(1, (secret.bit_length() + 7) // 8)
            assert secret.to_bytes(width, "big") not in blob
            assert secret.to_bytes(width, "little") not in blob
            assert str(secret).encode() not in blob
            assert pickle.dumps(secret) not in blob

    def test_records_unreadable_without_the_master_key(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        self._run_with_checkpoints(
            small_dl_group, small_schema, small_initiator_input, tmp_path
        )
        (tmp_path / "checkpoint.key").write_bytes(b"\x42" * 32)
        manager = CheckpointManager(tmp_path)
        try:
            with pytest.raises(CheckpointError, match="integrity"):
                manager._decoded_snapshots(FAULTY, attempt=0)
        finally:
            manager.close()

    def test_headers_carry_routing_metadata_only(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        """Plaintext journal headers name kinds/tags/rounds — never a
        key named like a secret."""
        import json

        self._run_with_checkpoints(
            small_dl_group, small_schema, small_initiator_input, tmp_path
        )
        store = CheckpointStore(tmp_path)
        seen = 0
        for pid in range(N + 1):
            for header_bytes, _ in store.read_journal(0, pid):
                header = json.loads(header_bytes.decode())
                seen += 1
                assert not {"beta", "share", "secret", "rho"} & set(header)
        store.close()
        assert seen > 0


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_negative_checkpoint_every_rejected(
        self, small_dl_group, small_schema
    ):
        with pytest.raises(ValueError):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=N, k=2, rho_bits=6, checkpoint_every=-1,
            )
