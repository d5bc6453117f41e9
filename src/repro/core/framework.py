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

Restart determinism: every runner (this one, the hierarchy's phase 1
and the tcp coordinator) keeps its attempt state in one
:class:`Attempts`, which forks each party's RNG under an
attempt-prefixed label, so reruns are seeded functions of (base seed,
attempt number) and a replay with the same fault plan is
byte-identical.  The fault injector itself is shared across attempts —
its per-spec match counters keep counting, so a ``count=1`` fault does
not re-fire on the rerun.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.runtime.errors import PartyTimeout, ProtocolAbort
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.parallel import WorkerPool
from repro.runtime.supervisor import Supervisor, exclude_blamed
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
    # durable checkpoints, over every attempt (they are NOT in
    # ``excluded``).
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
    """Build, run and check a privacy-preserving group ranking instance.

    ``roles`` are the initiator's and the participants' party classes
    for an in-process run (a sharded run's shards decline in step 9).
    """

    def __init__(
        self,
        config: FrameworkConfig,
        initiator_input: InitiatorInput,
        participant_inputs: Sequence[ParticipantInput],
        rng: Optional[RNG] = None,
        *,
        roles: Tuple[type, type] = (InitiatorParty, ParticipantParty),
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
        self.roles = roles

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

        Every run starts with the group's memos empty, as a worker or a
        party process that unpickled the group does, so its membership
        tallies depend on this run alone.
        """
        config = self.config
        config.group.clear_memos()
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
            injector = self._make_injector(faults)
            manager = make_checkpoints(config)
            # Exposed for tests/operators: rejoin bookkeeping lives here.
            self.last_checkpoints = manager
            attempts = Attempts(config, self._rng, known_betas)
            try:
                if resume:
                    attempts.resume(manager)
                return attempts.until_done(
                    lambda: self._run_attempt(attempts, injector, manager),
                    lambda j: self.last_parties[j].beta_unsigned,
                )
            finally:
                if manager is not None:
                    manager.close()

    def secret_input(self, party_id: int):
        """The party's own private input (for P_0, the criterion and
        weights)."""
        if party_id == INITIATOR_ID:
            return self.initiator_input
        return self.participant_inputs[party_id - 1]

    def _make_injector(self, faults, label: str = "faults"):
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
            list(faults), rng=_fork(self._rng, label), phase_of=phase_of_tag
        )

    def _run_attempt(
        self,
        attempts: Attempts,
        injector: Optional[FaultInjector],
        manager=None,
    ) -> FrameworkResult:
        with WorkerPool(self.config.workers) as worker_pool:
            engine = self.attempt_engine(
                attempts, injector, manager, self.roles, worker_pool
            )
            # Kept for the security-game harness (which inspects
            # *adversarial* parties' internals) and for β harvesting
            # after a failed attempt.
            self.last_parties = engine.parties
            # Kept so tests/operators can read retransmit/timeout
            # counters after the run.
            self.last_supervisor = engine.supervisor
            outputs = engine.run()
        return engine_result(engine, outputs, attempts.active)

    def attempt_engine(
        self,
        attempts: Attempts,
        injector: Optional[FaultInjector],
        manager=None,
        roles: Tuple[type, type] = (InitiatorParty, ParticipantParty),
        worker_pool=None,
    ) -> Engine:
        """An engine holding every party of the current attempt, built
        from ``roles`` (the initiator's class, the participants').

        The party factory doubles as the checkpoint manager's rebuild
        factory: a killed-and-rejoining party is reconstructed through
        the very same closure (same RNG fork labels, same active set),
        so its deterministic replay starts from an identical object.
        ``build_party(pid, beta)`` is the phase-2 rehydration variant,
        where the restored RNG state replaces the fork-label determinism.
        """
        config = self.config

        def build_party(party_id: int, known_beta: Optional[int] = None):
            return make_party(
                config,
                party_id,
                self.secret_input(party_id),
                attempts.party_rng(party_id),
                attempts.active,
                run_gain_phase=not attempts.phase_two,
                known_beta=(
                    attempts.known_beta(party_id) if known_beta is None
                    else known_beta
                ),
                roles=roles,
            )

        if manager is not None:
            manager.start_attempt(attempts.attempt, build_party)
        engine = make_engine(config, injector, manager, worker_pool)
        attempts.supervisor = engine.supervisor
        for party_id in [INITIATOR_ID] + attempts.active:
            engine.add_party(build_party(party_id))
        return engine

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


class Attempts:
    """A run's attempt state, the one copy every runner shares.

    The flat framework, the hierarchy's phase 1 and the tcp coordinator
    each loop over attempts; this object carries what passes between
    them: the active set, the excluded ids, the β an attempt may start
    from, the attempt number, which prefixes every party's RNG fork
    label (:meth:`party_rng`), and the rejoins of the attempts that
    failed.  It changes only between attempts.
    """

    def __init__(self, config: FrameworkConfig, rng: RNG,
                 known_betas: Optional[Dict[int, int]] = None):
        self.config = config
        self.rng = rng
        self.active: List[int] = list(config.participant_ids)
        self.excluded: List[int] = []
        self.betas: Dict[int, int] = dict(known_betas) if known_betas else {}
        self.attempt = 0
        # The running attempt's supervisor (its runner sets it), and the
        # rejoins of every attempt before it: a run reports their sum.
        self.supervisor = None
        self.rejoins = 0

    def resume(self, manager) -> None:
        """Continue a run whose *process* died (``run(resume=True)``):
        take the newest on-disk attempt's durable β and the next attempt
        number.  β the caller already knows take precedence."""
        if self.betas:
            return
        if manager is None:
            raise ValueError("resume=True requires config.checkpoint_dir")
        self.betas, self.attempt = manager.resume_state(self.active)

    @property
    def phase_two(self) -> bool:
        """Whether this attempt re-enters at phase 2: every active
        participant holds a β, all drawn under one ρ."""
        return bool(self.betas) and all(j in self.betas for j in self.active)

    def party_rng(self, party_id: int) -> RNG:
        """The party's RNG for this attempt, forked under ``"initiator"``
        or ``"P{j}"`` behind the attempt's prefix (none for attempt 0),
        so reruns are seeded functions of (base seed, attempt number)."""
        prefix = f"A{self.attempt}|" if self.attempt else ""
        label = "initiator" if party_id == INITIATOR_ID else f"P{party_id}"
        return _fork(self.rng, prefix + label)

    def known_beta(self, party_id: int) -> Optional[int]:
        """The β a participant starts a phase-2 attempt with."""
        return self.betas.get(party_id) if self.phase_two else None

    def retry(self, failure: Exception,
              beta_of: Optional[Callable[[int], Optional[int]]] = None) -> None:
        """Turn a blamed failure into the next attempt.

        :func:`exclude_blamed` drops the blamed participant (and
        re-raises what recovery cannot absorb).  ``beta_of`` reads each
        survivor's β from the failed attempt: they are kept for a
        phase-2-only restart iff *every* survivor has one, since those
        share one ρ; a partial harvest is discarded (β masked under
        different ρ would corrupt the ranking).  Without ``beta_of`` the
        next attempt starts from scratch.
        """
        blamed, self.active = exclude_blamed(
            failure, self.active, self.config.recovery
        )
        if self.supervisor is not None:
            self.rejoins += self.supervisor.rejoins
            self.supervisor = None
        self.excluded.append(blamed)
        betas = {j: beta_of(j) for j in self.active} if beta_of else {}
        # int(): a tcp party reports its β in a JSON control frame.
        self.betas = (
            {} if None in betas.values()
            else {j: int(beta) for j, beta in betas.items()}
        )
        self.attempt += 1

    def until_done(
        self,
        run_attempt: Callable[[], FrameworkResult],
        beta_of: Optional[Callable[[int], Optional[int]]] = None,
    ) -> FrameworkResult:
        """Run attempts until one completes and stamp its result."""
        while True:
            try:
                result = run_attempt()
            except (PartyTimeout, ProtocolAbort) as failure:
                self.retry(failure, beta_of)
                continue
            return self.stamp(result)

    def stamp(self, result: FrameworkResult) -> FrameworkResult:
        result.attempts = self.attempt + 1
        result.excluded = list(self.excluded)
        result.rejoins += self.rejoins
        return result


def make_party(
    config: FrameworkConfig,
    party_id: int,
    secret_input,
    rng: RNG,
    active_ids: Sequence[int],
    *,
    run_gain_phase: bool = True,
    known_beta: Optional[int] = None,
    roles: Tuple[type, type] = (InitiatorParty, ParticipantParty),
):
    """Construct P_0 (``roles[0]``) or P_j (``roles[1]``) for one attempt,
    in process or in a tcp party process alike."""
    initiator_role, participant_role = roles
    if party_id == INITIATOR_ID:
        return initiator_role(
            config, secret_input, rng,
            active_ids=active_ids, run_gain_phase=run_gain_phase,
        )
    return participant_role(
        config, party_id, secret_input, rng,
        active_ids=active_ids, known_beta=known_beta,
    )


def engine_result(engine: Engine, outputs: Dict[int, object],
                  active: Sequence[int]) -> FrameworkResult:
    """The result of one finished engine run over ``active``."""
    # A rejoined party's live object replaced the original in the
    # engine; read final state from the engine's view.
    participants = [engine.parties[j] for j in active]
    return FrameworkResult(
        ranks={party.party_id: party.rank for party in participants},
        initiator_output=outputs[INITIATOR_ID],
        transcript=engine.transcript,
        metrics={pid: party.metrics for pid, party in engine.parties.items()},
        rounds=engine.transcript.rounds,
        betas={party.party_id: party.beta_unsigned for party in participants},
        rejoins=engine.supervisor.rejoins,
        wire_stats=engine.wire.stats(),
    )


def make_checkpoints(config: FrameworkConfig, leaf: Optional[str] = None):
    """A checkpoint manager when the config asks for one, over
    ``config.checkpoint_dir`` or its ``leaf`` subdirectory."""
    if config.checkpoint_dir is None:
        return None
    from repro.runtime.checkpoint import CheckpointManager

    directory = config.checkpoint_dir
    if leaf is not None:
        directory = os.path.join(directory, leaf)
    return CheckpointManager(directory)


def make_engine(config: FrameworkConfig, injector=None, manager=None,
                worker_pool=None) -> Engine:
    """An engine as every framework stage runs one: metering the config's
    group, under its deadline supervisor, on a measured wire."""
    return Engine(
        metered_groups=[config.group],
        worker_pool=worker_pool,
        faults=injector,
        supervisor=Supervisor(
            timeout_rounds=config.timeout_rounds,
            max_retries=config.max_retries,
            phase_of=phase_of_tag,
        ),
        wire=WireTransport(config.group),
        checkpoints=manager,
    )


def _fork(rng: RNG, label: str) -> RNG:
    """Give each party its own stream when the base RNG supports forking."""
    fork = getattr(rng, "fork", None)
    if callable(fork):
        return fork(label)
    return rng
