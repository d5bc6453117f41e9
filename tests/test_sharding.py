"""Hierarchical sharded tournament ranking: correctness, determinism,
fault routing, checkpointed recovery, and parallel-shard parity.

The contract under test (docs/PROTOCOL.md "Hierarchical composition"):

* one global phase 1 (one ρ) — a sharded run's β values are
  byte-identical to a flat run's under the same seed;
* global top-k winners get *exact* global ranks equal to the flat
  protocol's, everyone else only a sound lower bound (> k, never
  exceeding their worst possible true rank — ``check_result`` encodes
  the band);
* the composition inherits the runtime's recovery machinery at every
  level: gain faults hit phase 1, submission faults phase 3, the rest
  the shard containing the targeted party, and a shard-level
  ``kill_restart`` with durable checkpoints rejoins instead of
  excluding.
"""

from __future__ import annotations

import importlib.util

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.parties import TAG_AGGREGATE
from repro.math.rng import SeededRNG
from repro.runtime.errors import ProtocolError
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.sharding.aggregate import aggregation_prime, rank_champions
from repro.sharding.hierarchy import HierarchicalResult
from repro.sharding.partition import (
    auto_shard_size,
    plan_shards,
    shard_sizes,
    two_champions,
)
from tests.conftest import make_participants
from tests.test_runtime_faults import outcome_fingerprint

HAVE_GMPY2 = importlib.util.find_spec("gmpy2") is not None

N = 8
SHARD = 3


def build(group, schema, initiator_input, n=N, seed=5, **overrides):
    config_kwargs = dict(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6,
        shard_size=SHARD, recovery=True, timeout_rounds=4, max_retries=2,
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    participants = make_participants(schema, n, seed=19)
    return GroupRankingFramework(
        config, initiator_input, participants, rng=SeededRNG(seed)
    )


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

class TestPartition:
    def test_balanced_and_no_singletons(self):
        for n in range(2, 40):
            for s in range(2, 12):
                sizes = shard_sizes(n, s)
                assert sum(sizes) == n
                assert min(sizes) >= 2
                # Balanced split may exceed s by one to avoid singletons.
                assert max(sizes) <= s + 1
                assert max(sizes) - min(sizes) <= 1

    def test_divisible_case_is_exact(self):
        assert shard_sizes(64, 16) == [16, 16, 16, 16]
        assert shard_sizes(8, 4) == [4, 4]

    def test_remainder_spreads(self):
        assert shard_sizes(10, 4) == [4, 3, 3]
        assert shard_sizes(7, 3) == [3, 2, 2]
        # Singleton avoidance: fewer shards rather than a 1-member one.
        assert shard_sizes(3, 2) == [3]
        assert shard_sizes(5, 2) == [3, 2]

    def test_two_champions(self):
        # Each shard sends its top min(k, size).
        assert two_champions([3, 3], k=1)
        assert two_champions([2], k=2)
        assert not two_champions([3, 2, 2], k=1)
        assert not two_champions([3, 3], k=2)
        assert not two_champions([4], k=1)

    def test_auto_shard_size(self, small_dl_group, small_schema):
        """``--shard-size auto`` proposes the closed forms' cheapest
        shard, max(2, k), when it is below n; flat otherwise and where
        that plan would rank exactly 2 champions.  Every answer builds
        a valid config."""
        for n in range(2, 40):
            for k in range(1, n + 1):
                s = auto_shard_size(n, k)
                FrameworkConfig(
                    group=small_dl_group, schema=small_schema,
                    num_participants=n, k=k, shard_size=s,
                )
                if (n, k) in {(3, 2), (4, 1), (5, 1)}:
                    assert s == 0, (n, k)
                else:
                    assert s == (max(2, k) if max(2, k) < n else 0), (n, k)
        assert auto_shard_size(1000, 128) == 128
        assert auto_shard_size(1000, 129) == 0
        with pytest.raises(ValueError):
            auto_shard_size(1, 1)

    def test_plan_shards_consecutive(self):
        shards = plan_shards([3, 1, 7, 5, 9, 11, 2], 3)
        assert [m for shard in shards for m in shard] == sorted(
            [3, 1, 7, 5, 9, 11, 2]
        )
        assert all(len(shard) >= 2 for shard in shards)

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_sizes(1, 4)
        with pytest.raises(ValueError):
            shard_sizes(8, 1)


# ---------------------------------------------------------------------------
# Correctness against the flat protocol
# ---------------------------------------------------------------------------

class TestHierarchicalCorrectness:
    @pytest.fixture
    def runs(self, small_dl_group, small_schema, small_initiator_input):
        sharded_fw = build(small_dl_group, small_schema, small_initiator_input)
        sharded = sharded_fw.run()
        flat_fw = build(
            small_dl_group, small_schema, small_initiator_input, shard_size=0
        )
        flat = flat_fw.run()
        return sharded_fw, sharded, flat_fw, flat

    def test_is_hierarchical_result(self, runs):
        _, sharded, _, flat = runs
        assert isinstance(sharded, HierarchicalResult)
        assert not isinstance(flat, HierarchicalResult)
        assert sharded.shard_sizes == [3, 3, 2]
        assert sorted(m for shard in sharded.shards for m in shard) == list(
            range(1, N + 1)
        )

    def test_betas_match_flat_run(self, runs):
        """One global ρ + identical fork labels ⇒ identical β values."""
        _, sharded, _, flat = runs
        assert sharded.betas == flat.betas

    def test_winners_and_exact_ranks_match_flat(self, runs):
        _, sharded, _, flat = runs
        k = 2
        flat_winners = {j: r for j, r in flat.ranks.items() if r <= k}
        sharded_winners = {j: r for j, r in sharded.ranks.items() if r <= k}
        assert sharded_winners == flat_winners
        assert sharded.selected_ids() == flat.selected_ids()

    def test_non_winner_bounds_sound(self, runs):
        _, sharded, _, flat = runs
        k = 2
        for j, bound in sharded.ranks.items():
            if bound <= k:
                continue
            assert bound > k
            # A lower bound may be loose but must never exceed the worst
            # possible true rank (flat rank + tie slack is the ceiling).
            ties = sum(
                1 for other in flat.betas.values()
                if other == flat.betas[j]
            )
            assert bound <= flat.ranks[j] + ties - 1 + (N - flat.ranks[j])

    def test_check_result_passes_both(self, runs):
        sharded_fw, sharded, flat_fw, flat = runs
        assert sharded_fw.check_result(sharded) == []
        assert flat_fw.check_result(flat) == []

    def test_candidates_are_shard_top_k(self, runs):
        _, sharded, _, _ = runs
        assert len(sharded.candidates) == sum(
            min(2, size) for size in sharded.shard_sizes
        )
        assert set(sharded.selected_ids()) <= set(sharded.candidates)

    def test_merged_accounting(self, runs):
        _, sharded, _, _ = runs
        assert sharded.transcript.meta["hierarchical"] is True
        assert sharded.transcript.meta["shards"] == 3
        assert sharded.rounds == sharded.transcript.rounds
        agg_entries = [
            e for e in sharded.transcript if e.tag == TAG_AGGREGATE
        ]
        assert agg_entries, "aggregation traffic missing from transcript"
        assert sum(e.size_bits for e in agg_entries) == sharded.aggregation_bits
        assert sharded.aggregation_bits == (
            sharded.aggregation.metrics.field_messages
            * sharded.aggregation.field_bits
        )
        # Every global party id appears in the merged metrics.
        assert set(sharded.metrics) == {0, *range(1, N + 1)}

    def test_known_betas_skip_phase_one(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        betas = {j: 100 + 10 * j for j in range(1, N + 1)}  # P8 best
        result = framework.run(known_betas=betas)
        assert result.phase1_rounds == 0
        assert result.ranks[N] == 1
        assert result.ranks[N - 1] == 2

    def test_shard_size_of_n_runs_flat(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(
            small_dl_group, small_schema, small_initiator_input, shard_size=N
        )
        assert not isinstance(framework.run(), HierarchicalResult)

    def test_config_validation(self, small_dl_group, small_schema):
        with pytest.raises(ValueError, match="shard_size"):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=4, k=2, rho_bits=6, shard_size=1,
            )
        with pytest.raises(ValueError, match="shard_size"):
            FrameworkConfig(
                group=small_dl_group, schema=small_schema,
                num_participants=4, k=2, rho_bits=6, shard_size=-3,
            )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_same_everything(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        first = build(
            small_dl_group, small_schema, small_initiator_input
        ).run()
        second = build(
            small_dl_group, small_schema, small_initiator_input
        ).run()
        assert outcome_fingerprint(first) == outcome_fingerprint(second)
        assert first.aggregation_bits == second.aggregation_bits
        assert first.candidates == second.candidates

    @pytest.mark.parametrize(
        "backend_name",
        [
            "python",
            pytest.param(
                "gmpy2",
                marks=pytest.mark.skipif(
                    not HAVE_GMPY2, reason="gmpy2 not installed"
                ),
            ),
        ],
    )
    def test_backend_equivalence(
        self, small_dl_group, small_schema, small_initiator_input, backend_name
    ):
        """The sharded transcript is backend-invariant under a fixed seed."""
        reference = build(
            small_dl_group, small_schema, small_initiator_input,
            backend="python",
        ).run()
        candidate = build(
            small_dl_group, small_schema, small_initiator_input,
            backend=backend_name,
        ).run()
        assert outcome_fingerprint(candidate) == outcome_fingerprint(reference)
        assert candidate.aggregation_bits == reference.aggregation_bits

    def test_worker_pool_matches_inline(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        inline = build(
            small_dl_group, small_schema, small_initiator_input, workers=1
        ).run()
        pooled = build(
            small_dl_group, small_schema, small_initiator_input, workers=3
        ).run()
        assert outcome_fingerprint(pooled) == outcome_fingerprint(inline)
        assert pooled.betas == inline.betas


# ---------------------------------------------------------------------------
# Fault routing and recovery
# ---------------------------------------------------------------------------

class TestFaults:
    def test_gain_fault_excludes_and_recovers(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        specs = [FaultSpec(kind="crash", party=3, tag="dp-request")]
        result = framework.run(specs)
        assert result.excluded == [3]
        assert 3 not in result.ranks
        assert framework.check_result(result) == []

    def test_shard_fault_excludes_within_shard(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        # P5 lives in the middle shard [4, 5, 6]; a phase-2 crash there
        # must exclude exactly P5 (global id) and leave other shards be.
        specs = [FaultSpec(kind="crash", party=5, tag="beta-bits")]
        result = framework.run(specs)
        assert result.excluded == [5]
        assert 5 not in result.ranks
        assert set(result.ranks) == set(range(1, N + 1)) - {5}
        assert framework.check_result(result) == []

    def test_submission_fault_routed_to_phase_three(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        clean = build(
            small_dl_group, small_schema, small_initiator_input
        ).run()
        winner = clean.selected_ids()[0]
        # A duplicated submission is benign (the initiator keeps the
        # first) but proves the spec reached the phase-3 engine.
        specs = [
            FaultSpec(kind="duplicate", party=winner, tag="submission")
        ]
        result = framework.run(specs)
        assert result.selected_ids() == clean.selected_ids()
        assert framework.check_result(result) == []

    def test_recovery_into_two_champions_cannot_recover(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        """Excluding P7 at n = 7 leaves shards [3, 3], whose champion
        round at k = 1 would rank exactly 2: the run stops with a typed
        error, not inside the secret sharing."""
        framework = build(
            small_dl_group, small_schema, small_initiator_input, n=7, k=1
        )
        with pytest.raises(ProtocolError, match="cannot recover"):
            framework.run([FaultSpec(kind="crash", party=7, tag="dp-request")])

    def test_initiator_shard_fault_rejected(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        with pytest.raises(ValueError, match="ambiguous"):
            framework.run([FaultSpec(kind="crash", party=0, tag="beta-bits")])

    def test_prebuilt_injector_rejected(
        self, small_dl_group, small_schema, small_initiator_input
    ):
        framework = build(small_dl_group, small_schema, small_initiator_input)
        injector = FaultInjector([], rng=SeededRNG(1))
        with pytest.raises(ValueError, match="FaultSpec"):
            framework.run(injector)


# ---------------------------------------------------------------------------
# Durable checkpoints across levels
# ---------------------------------------------------------------------------

class TestCheckpoints:
    def test_shard_kill_restart_rejoins(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        bare = build(
            small_dl_group, small_schema, small_initiator_input
        ).run()
        framework = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        specs = [FaultSpec(kind="kill_restart", party=5, tag="beta-bits")]
        result = framework.run(specs)
        assert result.rejoins >= 1
        assert result.excluded == []
        assert result.ranks == bare.ranks
        assert framework.check_result(result) == []

    def test_resume_harvests_phase_one(
        self, small_dl_group, small_schema, small_initiator_input, tmp_path
    ):
        from repro.runtime.errors import PartyTimeout, ProtocolAbort

        directory = str(tmp_path / "ckpt")
        first = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=directory, recovery=False,
        )
        with pytest.raises((PartyTimeout, ProtocolAbort)):
            first.run([FaultSpec(kind="crash", party=5, tag="beta-bits")])

        second = build(
            small_dl_group, small_schema, small_initiator_input,
            checkpoint_dir=directory, recovery=False,
        )
        resumed = second.run(resume=True)
        assert resumed.phase1_rounds == 0  # β recovered from durable state
        clean = build(
            small_dl_group, small_schema, small_initiator_input
        ).run()
        assert resumed.ranks == clean.ranks
        assert resumed.betas == clean.betas


# ---------------------------------------------------------------------------
# The champion-aggregation round in isolation
# ---------------------------------------------------------------------------

class TestAggregation:
    def test_prime_sits_under_power_of_two(self):
        for l in (8, 13, 29):
            p = aggregation_prime(l)
            assert p.bit_length() == l + 2
            assert p < (1 << (l + 2))

    def test_ranks_and_winners(self):
        outcome = rank_champions(
            {2: 500, 7: 100, 11: 900, 13: 300}, k=2, beta_bits=10,
            rng=SeededRNG(41),
        )
        assert outcome.winners == [11, 2]
        assert outcome.ranks[11] == 1 and outcome.ranks[2] == 2
        assert not outcome.used_fallback
        assert outcome.topk is not None and outcome.topk.succeeded
        # Losers' exact ranks stay hidden after a successful search.
        assert 7 not in outcome.ranks and 13 not in outcome.ranks

    def test_tie_straddling_k_falls_back_to_full_ranking(self):
        outcome = rank_champions(
            {1: 400, 2: 400, 3: 400, 4: 100}, k=2, beta_bits=10,
            rng=SeededRNG(42),
        )
        assert outcome.used_fallback
        # The fallback ranks everyone; ties get adjacent ranks.
        assert sorted(outcome.ranks) == [1, 2, 3, 4]
        assert sorted(outcome.ranks[j] for j in (1, 2, 3)) == [1, 2, 3]
        assert outcome.ranks[4] == 4
        assert len(outcome.winners) == 2

    def test_singleton_candidate_set(self):
        outcome = rank_champions({9: 123}, k=2, beta_bits=10, rng=SeededRNG(43))
        assert outcome.ranks == {9: 1}
        assert outcome.winners == [9]
        assert outcome.metrics.multiplications == 0

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            rank_champions({}, k=2, beta_bits=10, rng=SeededRNG(44))

    def test_k_covers_all_candidates_skips_search(self):
        outcome = rank_champions(
            {1: 50, 2: 70, 3: 60}, k=3, beta_bits=8, rng=SeededRNG(45)
        )
        assert outcome.topk is None
        assert not outcome.used_fallback
        assert outcome.ranks == {2: 1, 3: 2, 1: 3}
