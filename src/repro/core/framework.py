"""One-call orchestration of a full framework run (paper Fig. 1).

:class:`GroupRankingFramework` wires an initiator and ``n`` participants
into the runtime engine, runs the three phases to completion, and
returns a :class:`FrameworkResult` carrying the per-participant ranks,
the initiator's verified top-k selection, the full message transcript
and per-party metrics — everything the evaluation section consumes.

Dropout recovery (``config.recovery=True``, an extension — the paper
assumes every party stays live): when an attempt fails with a *typed,
blamed* error (a crash surfacing as :class:`PartyTimeout`, or a
:class:`ProtocolAbort` from validation), the blamed participant is
excluded and the run deterministically restarts over the survivors:

* if every survivor already recovered its masked gain β in the failed
  attempt (the faulty party died *after* phase 1 — e.g. mid-keying,
  before publishing its β-bit encryptions, or mid-chain), only phase 2
  restarts: the survivors establish a fresh distributed key and re-run
  the comparison and the decrypt–rerandomize–shuffle chain among
  themselves, reusing their β values (all masked under the same ρ, so
  their order is still the gain order);
* otherwise (the fault hit phase 1 itself) the whole protocol restarts
  over the survivors, including a fresh ρ.

Restart determinism: attempt ``a > 0`` forks every party RNG under an
``"A{a}|"``-prefixed label, so reruns are seeded functions of (base
seed, attempt number) and a replay with the same fault plan is
byte-identical.  The fault injector itself is shared across attempts —
its per-spec match counters keep counting, so a ``count=1`` fault does
not re-fire on the rerun.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.gain import (
    AttributeSchema,
    InitiatorInput,
    ParticipantInput,
    partial_gain,
)
from repro.core.parties import (
    INITIATOR_ID,
    FrameworkConfig,
    InitiatorOutput,
    InitiatorParty,
    ParticipantParty,
    phase_of_tag,
)
from repro.math import backend
from repro.math.rng import RNG, SeededRNG
from repro.runtime.channels import WireStats, WireTransport
from repro.runtime.engine import Engine
from repro.runtime.errors import PartyTimeout, ProtocolAbort, ProtocolError
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.supervisor import Supervisor
from repro.runtime.transcript import Transcript

__all__ = ["FrameworkConfig", "FrameworkResult", "GroupRankingFramework"]


@dataclass
class FrameworkResult:
    """Everything observable after a run."""

    ranks: Dict[int, int]                  # participant id -> final rank
    initiator_output: InitiatorOutput
    transcript: Transcript
    metrics: Dict[int, PartyMetrics]
    rounds: int
    betas: Dict[int, int]                  # participant id -> unsigned β (for analysis)
    attempts: int = 1                      # 1 = no recovery was needed
    excluded: List[int] = field(default_factory=list)  # blamed & dropped ids
    # Parties killed by a restartable fault and brought back from their
    # durable checkpoints (they are NOT in ``excluded``).
    rejoins: int = 0
    # Measured wire-path accounting.  After a recovery, stats cover the
    # final (successful) attempt.
    wire_stats: Optional[WireStats] = None

    def selected_ids(self) -> List[int]:
        return [party_id for party_id, _, _ in self.initiator_output.selected]

    def participant_metrics(self) -> List[PartyMetrics]:
        return [m for pid, m in sorted(self.metrics.items()) if pid != 0]

    def max_participant_multiplications(self) -> int:
        return max(
            m.ops.equivalent_multiplications for m in self.participant_metrics()
        )

    def total_participant_multiplications(self) -> int:
        """Whole-cohort group work: the benchmark's flat-vs-sharded metric."""
        return sum(
            m.ops.equivalent_multiplications for m in self.participant_metrics()
        )


class GroupRankingFramework:
    """Build, run and check a privacy-preserving group ranking instance."""

    def __init__(
        self,
        config: FrameworkConfig,
        initiator_input: InitiatorInput,
        participant_inputs: Sequence[ParticipantInput],
        rng: Optional[RNG] = None,
    ):
        if len(participant_inputs) != config.num_participants:
            raise ValueError(
                f"config says n={config.num_participants} but "
                f"{len(participant_inputs)} inputs given"
            )
        self.config = config
        self.initiator_input = initiator_input
        self.participant_inputs = list(participant_inputs)
        self._rng = rng or SeededRNG(0)

    def run(
        self,
        faults: Union[FaultInjector, Sequence[FaultSpec], None] = None,
        *,
        resume: bool = False,
        known_betas: Optional[Dict[int, int]] = None,
    ) -> FrameworkResult:
        """Run the framework, optionally under an injected fault plan.

        Without ``config.recovery`` any typed failure propagates to the
        caller (naming the blamed party).  With it, blamed participants
        are excluded and the run restarts over the survivors until it
        completes or fewer than 2 participants remain.

        ``resume=True`` (requires ``config.checkpoint_dir``) restarts a
        run whose *process* died: durable β values are harvested from
        the newest on-disk attempt, and when every active participant
        has one the new attempt re-enters at phase 2 — the crashed
        process's phase-1 work is not redone.

        ``known_betas`` (every active participant's masked gain, all
        drawn under one ρ) skips phase 1 entirely and runs phase 2
        onward — the hierarchical composition uses this to hand each
        shard its members' β, and benchmarks use it to meter phase 2 in
        isolation.

        With ``0 < config.shard_size < n`` the run is dispatched to the
        hierarchical composition (:mod:`repro.sharding.hierarchy`):
        phase 1 once globally, phase 2 inside concurrent shards, a
        secret-shared champion-aggregation round, then the global
        submission phase.  The result is then a
        :class:`~repro.sharding.hierarchy.HierarchicalResult`.

        The whole run (every retry attempt included) executes under
        ``config.backend``; the previous process-wide backend is
        restored on exit.  Backends are transcript-equivalent, so this
        scoping affects speed only.
        """
        config = self.config
        if config.transport == "tcp":
            from repro.runtime.transport import run_distributed

            # Party processes pick their own backend from the config;
            # the coordinator itself does no group arithmetic.
            return run_distributed(
                self, faults, resume=resume, known_betas=known_betas
            )
        if 0 < config.shard_size < config.num_participants:
            from repro.sharding.hierarchy import run_hierarchical

            with backend.use_backend(config.backend):
                return run_hierarchical(
                    self, faults, resume=resume, known_betas=known_betas
                )
        with backend.use_backend(config.backend):
            return self._run_with_recovery(faults, resume, known_betas)

    def _make_checkpoints(self):
        """A checkpoint manager when the config asks for one."""
        if self.config.checkpoint_dir is None:
            return None
        from repro.runtime.checkpoint import CheckpointManager

        return CheckpointManager(
            self.config.checkpoint_dir, sync_every=self.config.checkpoint_every
        )

    def _run_with_recovery(
        self,
        faults: Union[FaultInjector, Sequence[FaultSpec], None],
        resume: bool = False,
        seed_betas: Optional[Dict[int, int]] = None,
    ) -> FrameworkResult:
        config = self.config
        injector = self._make_injector(faults)
        active = list(config.participant_ids)
        excluded: List[int] = []
        known_betas: Dict[int, int] = dict(seed_betas) if seed_betas else {}
        attempt = 0
        manager = self._make_checkpoints()
        # Exposed for tests/operators: rejoin bookkeeping lives here.
        self.last_checkpoints = manager
        if resume and not known_betas:
            if manager is None:
                raise ValueError("resume=True requires config.checkpoint_dir")
            known_betas, attempt = manager.resume_state(active)
        try:
            while True:
                try:
                    result = self._run_attempt(
                        active, known_betas, attempt, injector, manager
                    )
                except (PartyTimeout, ProtocolAbort) as failure:
                    blamed = failure.blamed
                    if not (
                        config.recovery
                        and blamed is not None
                        and blamed != INITIATOR_ID
                        and blamed in active
                    ):
                        raise
                    if len(active) - 1 < 2:
                        raise ProtocolError(
                            f"cannot recover: excluding P{blamed} leaves fewer "
                            "than 2 participants"
                        ) from failure
                    active = [j for j in active if j != blamed]
                    excluded.append(blamed)
                    known_betas = self._harvest_betas(active)
                    attempt += 1
                    continue
                result.attempts = attempt + 1
                result.excluded = list(excluded)
                return result
        finally:
            if manager is not None:
                manager.close()

    def _make_injector(self, faults):
        # Anything exposing on_send (a FaultInjector, netsim's
        # LossyLinkFaults, a test double) plugs in directly; a bare
        # sequence of FaultSpec is wrapped into an injector.  An empty
        # plan is no plan: an injector makes the engine frame every
        # message alone, which would change the wire accounting of a
        # fault-free run.
        if hasattr(faults, "on_send"):
            return faults
        if not faults:
            return None
        return FaultInjector(
            list(faults), rng=_fork(self._rng, "faults"), phase_of=phase_of_tag
        )

    def _harvest_betas(self, survivors: Sequence[int]) -> Dict[int, int]:
        """β values recoverable from the failed attempt's survivor objects.

        Valid for a phase-2-only restart iff *every* survivor completed
        phase 1 in the failed attempt — all such β share one ρ, so their
        order is the gain order.  A partial harvest is discarded (mixing
        β masked under different ρ would corrupt the ranking).
        """
        harvested: Dict[int, int] = {}
        for j in survivors:
            party = getattr(self, "last_parties", {}).get(j)
            beta = getattr(party, "beta_unsigned", None)
            if beta is None:
                return {}
            harvested[j] = beta
        return harvested

    def _run_attempt(
        self,
        active: List[int],
        known_betas: Dict[int, int],
        attempt: int,
        injector: Optional[FaultInjector],
        manager=None,
    ) -> FrameworkResult:
        config = self.config
        worker_pool = None
        if config.workers > 1:
            from repro.runtime.parallel import WorkerPool

            worker_pool = WorkerPool(config.workers)
        supervisor = Supervisor(
            timeout_rounds=config.timeout_rounds,
            max_retries=config.max_retries,
            phase_of=phase_of_tag,
            adaptive=config.adaptive_timeouts,
        )
        transport = WireTransport(config.group, coalesce=config.coalesce)
        rng = self._rng
        prefix = "" if attempt == 0 else f"A{attempt}|"
        resume = bool(known_betas) and all(j in known_betas for j in active)

        def build_party(party_id: int, known_beta: Optional[int] = None):
            """Construct one party exactly as this attempt does.

            Doubles as the checkpoint manager's rebuild factory: a
            killed-and-rejoining party is reconstructed through the very
            same closure (same RNG fork labels, same active set), so its
            deterministic replay starts from an identical object.
            ``known_beta`` is the phase-2 rehydration variant, where the
            restored RNG state replaces the fork-label determinism.
            """
            if party_id == INITIATOR_ID:
                return InitiatorParty(
                    config,
                    self.initiator_input,
                    _fork(rng, prefix + "initiator"),
                    active_ids=active,
                    run_gain_phase=not resume,
                )
            beta = known_beta
            if beta is None and resume:
                beta = known_betas.get(party_id)
            return ParticipantParty(
                config,
                party_id,
                self.participant_inputs[party_id - 1],
                _fork(rng, prefix + f"P{party_id}"),
                active_ids=active,
                known_beta=beta,
            )

        if manager is not None:
            manager.start_attempt(attempt, build_party)
        engine = Engine(
            metered_groups=[config.group],
            worker_pool=worker_pool,
            faults=injector,
            supervisor=supervisor,
            wire=transport,
            checkpoints=manager,
        )
        engine.add_party(build_party(INITIATOR_ID))
        participants: List[ParticipantParty] = []
        for j in active:
            party = build_party(j)
            engine.add_party(party)
            participants.append(party)
        if worker_pool is not None and manager is not None:
            worker_pool.register_drain(
                lambda: manager.persist_pool_cursors(engine.parties)
            )
        # Kept for the security-game harness (which inspects *adversarial*
        # parties' internals) and for β harvesting after a failed attempt.
        self.last_parties = engine.parties
        # Kept so tests/operators can read retransmit/timeout counters
        # and the adaptive-deadline state after the run.
        self.last_supervisor = supervisor
        try:
            outputs = engine.run()
        finally:
            if worker_pool is not None:
                worker_pool.shutdown()
        # A rejoined party's live object replaced the original in the
        # engine; read final state from the engine's view, not the
        # construction-time list.
        participants = [engine.parties[j] for j in active]
        ranks = {party.party_id: party.rank for party in participants}
        betas = {party.party_id: party.beta_unsigned for party in participants}
        return FrameworkResult(
            rejoins=supervisor.rejoins,
            ranks=ranks,
            initiator_output=outputs[0],
            transcript=engine.transcript,
            metrics={pid: party.metrics for pid, party in engine.parties.items()},
            rounds=engine.transcript.rounds,
            betas=betas,
            wire_stats=transport.stats(),
        )

    # -- reference computations for verification --------------------------------
    def expected_partial_gains(self) -> Dict[int, int]:
        return {
            j: partial_gain(self.config.schema, self.initiator_input, values)
            for j, values in enumerate(self.participant_inputs, start=1)
        }

    def expected_ranks(self, among: Optional[Sequence[int]] = None) -> Dict[int, int]:
        """Rank each participant would get with in-the-clear sorting.

        Rank of ``j`` is ``1 + #{i : p_i > p_j}``; equal partial gains
        share a rank, exactly as the framework's zero-count does for
        equal β values.  ``among`` restricts the comparison to a
        survivor subset (ranks are relative to the parties actually
        ranked, so dropout runs rank among survivors only).
        """
        gains = self.expected_partial_gains()
        if among is not None:
            gains = {j: gains[j] for j in among}
        return {
            j: 1 + sum(1 for other in gains.values() if other > mine)
            for j, mine in gains.items()
        }

    def check_result(self, result: FrameworkResult) -> List[str]:
        """Compare a run against the in-the-clear reference.

        Returns a list of discrepancies (empty means the run is correct).
        Participants whose partial gains tie may legitimately receive
        adjacent ranks depending on the masking draw, so ties accept a
        range.  After a recovery run, ranks are checked among the
        survivors (``result.ranks``'s key set) only.

        Hierarchical results carry exact ranks for top-k winners only
        (everyone else holds a lower bound), so the sharded branch
        checks winners against the in-the-clear reference and only the
        bound's validity for the rest.
        """
        if getattr(result, "shard_sizes", None):
            return self._check_hierarchical(result)
        problems: List[str] = []
        gains = {
            j: g for j, g in self.expected_partial_gains().items() if j in result.ranks
        }
        for j, rank in result.ranks.items():
            strictly_better = sum(1 for g in gains.values() if g > gains[j])
            ties = sum(1 for g in gains.values() if g == gains[j])  # includes self
            if not strictly_better + 1 <= rank <= strictly_better + ties:
                problems.append(
                    f"P{j}: rank {rank} outside [{strictly_better + 1}, "
                    f"{strictly_better + ties}]"
                )
        expected_selected = {
            j for j, rank in result.ranks.items() if rank <= self.config.k
        }
        if set(result.selected_ids()) != expected_selected:
            problems.append(
                f"initiator selected {sorted(result.selected_ids())}, "
                f"ranks imply {sorted(expected_selected)}"
            )
        if not result.initiator_output.verified:
            problems.append(
                f"initiator flagged anomalies: {result.initiator_output.anomalies}"
            )
        return problems

    def _check_hierarchical(self, result: FrameworkResult) -> List[str]:
        """Sharded-run counterpart of :meth:`check_result`.

        Winners (rank ≤ k) must sit inside their in-the-clear tie range
        and must all be gain-eligible for the top k; non-winners carry a
        rank *lower bound*, which must exceed k and never undercut the
        true rank.  Under a gain tie that straddles the k-th place the
        aggregation sort breaks the tie arbitrarily, so the selected set
        is checked for eligibility and size, not exact identity.
        """
        problems: List[str] = []
        k = self.config.k
        gains = {
            j: g for j, g in self.expected_partial_gains().items() if j in result.ranks
        }
        winners = {j: r for j, r in result.ranks.items() if r <= k}
        for j, rank in result.ranks.items():
            strictly_better = sum(1 for g in gains.values() if g > gains[j])
            ties = sum(1 for g in gains.values() if g == gains[j])  # includes self
            if j in winners:
                if not strictly_better + 1 <= rank <= strictly_better + ties:
                    problems.append(
                        f"P{j}: winner rank {rank} outside "
                        f"[{strictly_better + 1}, {strictly_better + ties}]"
                    )
                if strictly_better >= k:
                    problems.append(
                        f"P{j}: selected as a winner but {strictly_better} "
                        f"parties have strictly higher gain (k={k})"
                    )
            elif rank <= k:
                problems.append(f"P{j}: non-winner bound {rank} not above k={k}")
            elif rank > strictly_better + ties:
                problems.append(
                    f"P{j}: rank bound {rank} exceeds worst possible rank "
                    f"{strictly_better + ties}"
                )
        if len(winners) < min(k, len(result.ranks)):
            problems.append(
                f"only {len(winners)} winners for k={k} among "
                f"{len(result.ranks)} ranked parties"
            )
        if set(result.selected_ids()) != set(winners):
            problems.append(
                f"initiator selected {sorted(result.selected_ids())}, "
                f"winner ranks imply {sorted(winners)}"
            )
        if not result.initiator_output.verified:
            problems.append(
                f"initiator flagged anomalies: {result.initiator_output.anomalies}"
            )
        return problems


def _fork(rng: RNG, label: str) -> RNG:
    """Give each party its own stream when the base RNG supports forking."""
    fork = getattr(rng, "fork", None)
    if callable(fork):
        return fork(label)
    return rng
