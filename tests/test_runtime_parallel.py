"""Tests for the parallel execution engine.

The load-bearing property: for the same seed, a parallel run must be
indistinguishable from the serial run — same ranks, same β values, a
byte-identical message transcript and the same per-party metrics.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import InitiatorInput, ParticipantInput
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from repro.runtime.parallel import TauJob, WorkerPool, evaluate_tau_job
from tests.conftest import make_participants


def _time_out(job):
    from repro.runtime.errors import PartyTimeout

    raise PartyTimeout(5, phase="chain", round=4, waiting={1: "x"})


def _run(group, schema, initiator_input, participants, seed=3, **config_kwargs):
    config = FrameworkConfig(
        group=group,
        schema=schema,
        num_participants=len(participants),
        k=2,
        rho_bits=6,
        **config_kwargs,
    )
    framework = GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )
    return framework, framework.run()


class TestWorkerPool:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_single_worker_is_serial(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_map_preserves_order(self, small_dl_group):
        group = small_dl_group
        from repro.crypto.bitenc import BitwiseElGamal
        from repro.crypto.elgamal import ExponentialElGamal

        rng = SeededRNG(21)
        keypair = ExponentialElGamal(group).generate_keypair(rng)
        other = BitwiseElGamal(group).encrypt(9, 6, keypair.public, rng)
        jobs = [
            TauJob(group=group, beta=beta, other_bits=tuple(other.bits))
            for beta in (1, 5, 30, 60)
        ]
        with WorkerPool(2) as pool:
            results = pool.map(evaluate_tau_job, jobs)
        inline = [evaluate_tau_job(job) for job in jobs]
        for (got, ops), (want, want_ops) in zip(results, inline):
            assert got == want
            assert ops.exponentiations == want_ops.exponentiations
            assert ops.multiplications == want_ops.multiplications

    def test_unpicklable_job_falls_back_inline(self):
        pool = WorkerPool(2)
        jobs = [lambda: 1, lambda: 2]  # lambdas cannot cross processes
        results = pool.map(lambda f: f(), jobs)
        assert results == [1, 2]
        assert not pool.parallel  # pool marked broken, future maps stay inline
        pool.shutdown()

    def test_inline_fallback_restores_attached_counter(self, small_dl_group):
        """The engine's party counter must survive in-process job runs."""
        group = small_dl_group
        from repro.crypto.bitenc import BitwiseElGamal
        from repro.crypto.elgamal import ExponentialElGamal
        from repro.groups.base import OperationCounter

        rng = SeededRNG(22)
        keypair = ExponentialElGamal(group).generate_keypair(rng)
        other = BitwiseElGamal(group).encrypt(3, 4, keypair.public, rng)
        party_counter = OperationCounter()
        group.attach_counter(party_counter)
        try:
            job = TauJob(group=group, beta=2, other_bits=tuple(other.bits))
            _, ops = evaluate_tau_job(job)
            assert group.counter is party_counter
            assert party_counter.exponentiations == 0  # job metered privately
            assert ops.exponentiations > 0
        finally:
            group.attach_counter(None)


class TestParallelEquivalence:
    def test_parallel_matches_serial_exactly(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 4, seed=13)
        _, serial = _run(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        _, parallel = _run(
            small_dl_group, small_schema, small_initiator_input, participants,
            workers=3,
        )
        assert parallel.ranks == serial.ranks
        assert parallel.betas == serial.betas
        assert parallel.transcript.entries == serial.transcript.entries
        assert parallel.rounds == serial.rounds

    def test_parallel_metrics_match_serial(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """With no pool, worker-side counters merge to the serial totals."""
        participants = make_participants(small_schema, 3, seed=14)
        _, serial = _run(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        _, parallel = _run(
            small_dl_group, small_schema, small_initiator_input, participants,
            workers=2,
        )
        for pid in serial.metrics:
            s, p = serial.metrics[pid].ops, parallel.metrics[pid].ops
            assert (s.multiplications, s.exponentiations, s.exponent_bits,
                    s.inversions) == (
                p.multiplications, p.exponentiations, p.exponent_bits,
                p.inversions)

    def test_accelerated_parallel_matches_plain_serial(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """multiexp + pool + workers all on: still value-identical."""
        participants = make_participants(small_schema, 4, seed=15)
        framework, serial = _run(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        _, fast = _run(
            small_dl_group, small_schema, small_initiator_input, participants,
            workers=3, multiexp=True, precompute=32,
        )
        assert fast.ranks == serial.ranks
        assert fast.betas == serial.betas
        assert fast.transcript.entries == serial.transcript.entries
        assert framework.check_result(fast) == []

    @pytest.mark.parametrize("accelerated", [
        dict(precompute=64), dict(multiexp=True, precompute=64),
    ], ids=["precompute", "multiexp-precompute"])
    def test_every_metric_matches_across_widths(
        self, small_schema, small_initiator_input, accelerated
    ):
        """Under ``precompute`` the comparison jobs walk the party's
        generator table at every width, so nothing a party meters
        depends on how its jobs were spread over processes.  Each run
        gets a fresh group: its membership memo (whose hits are metered)
        would otherwise carry over from the run before."""
        participants = make_participants(small_schema, 4, seed=18)
        serial, pooled = (
            _run(
                DLGroup.random(48, rng=SeededRNG(101)), small_schema,
                small_initiator_input, participants, workers=workers,
                **accelerated,
            )[1]
            for workers in (1, 2)
        )
        assert pooled.ranks == serial.ranks
        assert pooled.betas == serial.betas
        assert (pooled.wire_stats.canonical_digest
                == serial.wire_stats.canonical_digest)
        assert pooled.transcript.entries == serial.transcript.entries
        # Dataclass equality: every PartyMetrics and OperationCounter field.
        assert pooled.metrics == serial.metrics

    def test_multiexp_serial_matches_plain_serial(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 3, seed=16)
        _, plain = _run(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        _, fast = _run(
            small_dl_group, small_schema, small_initiator_input, participants,
            multiexp=True,
        )
        assert fast.ranks == plain.ranks
        assert fast.transcript.entries == plain.transcript.entries

    def test_precompute_serial_matches_plain_serial(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 3, seed=17)
        _, plain = _run(
            small_dl_group, small_schema, small_initiator_input, participants
        )
        _, pooled = _run(
            small_dl_group, small_schema, small_initiator_input, participants,
            precompute=16,
        )
        assert pooled.ranks == plain.ranks
        assert pooled.transcript.entries == plain.transcript.entries

    def test_config_validation(self, small_dl_group, small_schema):
        with pytest.raises(ValueError):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=3, k=1, workers=0,
            )
        with pytest.raises(ValueError):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=3, k=1, precompute=-1,
            )


class TestPoolCleanup:
    def test_job_exception_shuts_pool_down(self):
        """A job raising a protocol error must not leak worker processes:
        the pool shuts its executor down before re-raising."""
        from repro.runtime.errors import ProtocolAbort

        def explode(job):
            raise ProtocolAbort("boom", blamed=1, phase="test")

        pool = WorkerPool(2)
        with pytest.raises(ProtocolAbort):
            pool.map(explode, [1, 2, 3])
        assert pool._executor is None

    def test_timeout_crosses_a_worker_intact(self):
        """A sharded run's timeout leaves a worker process pickled; it
        must arrive with its message and fields whole."""
        from repro.runtime.errors import PartyTimeout

        pool = WorkerPool(2)
        with pytest.raises(PartyTimeout) as failure:
            pool.map(_time_out, [1, 2])
        want = PartyTimeout(5, phase="chain", round=4, waiting={1: "x"})
        assert str(failure.value) == str(want)
        assert (failure.value.blamed, failure.value.phase, failure.value.round,
                failure.value.waiting) == (5, "chain", 4, {1: "x"})

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(sorted, [[2, 1], [4, 3]])
        pool.shutdown()
        pool.shutdown()
        assert pool._executor is None


class TestImports:
    def test_default_run_imports_no_process_machinery(self):
        """A pool imports its process machinery when it first fans out,
        so a default in-process run never loads it."""
        script = textwrap.dedent("""
            import sys
            from repro.core.framework import FrameworkConfig, GroupRankingFramework
            from repro.core.gain import (
                AttributeSchema, InitiatorInput, ParticipantInput)
            from repro.groups.dl import DLGroup
            from repro.math.rng import SeededRNG

            schema = AttributeSchema(names=("a", "b", "c", "d"), num_equal=2,
                                     value_bits=6, weight_bits=4)
            initiator = InitiatorInput.create(
                schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7])
            participants = [ParticipantInput.create(schema, [i, 2 * i, 3, 4])
                            for i in range(1, 5)]
            config = FrameworkConfig(
                group=DLGroup.random(32, rng=SeededRNG(1)), schema=schema,
                num_participants=4, k=2, rho_bits=6)
            GroupRankingFramework(config, initiator, participants,
                                  rng=SeededRNG(0)).run()
            print(sorted(name for name in sys.modules if name in (
                "multiprocessing", "concurrent.futures.process")))
        """)
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert completed.stdout.strip() == "[]"
