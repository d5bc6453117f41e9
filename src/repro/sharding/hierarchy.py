"""Orchestration of the hierarchical (sharded) ranking run.

Level structure (one ``GroupRankingFramework.run`` call dispatches here
whenever ``0 < config.shard_size < n``):

1. **Global phase 1** — one engine, one ρ: the initiator serves every
   dot-product request exactly as in a flat run (identical RNG fork
   labels, so the β values are byte-identical to a flat run's).  One ρ
   for everyone is the soundness anchor: β order is gain order *across*
   shard boundaries, so shard champions are comparable.
2. **Shard-level phase 2** — the active set splits into shards
   (:mod:`repro.sharding.partition`); each shard runs the unmodified
   paper protocol (keying + ZKPs, bitwise β broadcast, pairwise
   comparisons, shuffle chain) among its ≤ ``shard_size`` members via a
   phase-2-only sub-framework (``known_betas``).  Shards are
   independent engines and execute concurrently through
   :class:`~repro.runtime.parallel.WorkerPool` when ``config.workers >
   1`` — results are identical either way (each shard owns a
   deterministic RNG fork).
3. **Champion aggregation** — each shard's local top-``min(k, s)`` form
   the candidate set; :func:`~repro.sharding.aggregate.rank_champions`
   ranks them over the secret-sharing substrate.  A winner's candidate
   rank *is* her global rank (every non-candidate is dominated by ≥ k
   candidates from her own shard), so global top-k winners get exact
   ranks; everyone else keeps only the lower bound
   ``max(k+1, shard rank)``.
4. **Global phase 3** — one submission engine: winners submit their
   information vectors, everyone ranked declines or submits exactly as
   the flat protocol's step 9, and P_0 re-verifies the gains.

Transcripts, per-party metrics, wire stats, recovery bookkeeping and
checkpoint state all aggregate across levels into one
:class:`HierarchicalResult`.  Fault plans are split by phase: gain
faults hit the phase-1 engine, submission faults the phase-3 engine,
everything else the shard containing the targeted party (ids remapped
to shard-local numbering).  Checkpoint directories nest:
``<dir>/phase1`` for the global phase-1 engine and ``<dir>/shard-<i>``
per shard, so a shard-level ``kill_restart`` rejoins from durable state
and ``resume=True`` harvests phase-1 β after process death.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.framework import FrameworkResult, GroupRankingFramework, _fork
from repro.core.parties import (
    INITIATOR_ID,
    PHASE_GAIN,
    PHASE_SUBMISSION,
    TAG_AGGREGATE,
    TAG_DP_REQUEST,
    TAG_DP_RESPONSE,
    TAG_SUBMISSION,
    FrameworkConfig,
    phase_of_tag,
)
from repro.runtime.channels import WireStats, WireTransport
from repro.runtime.engine import Engine
from repro.runtime.errors import PartyTimeout, ProtocolAbort, ProtocolError
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.supervisor import Supervisor
from repro.runtime.transcript import Transcript, TranscriptEntry
from repro.sharding.aggregate import AggregationOutcome, rank_champions
from repro.sharding.parties import (
    GainOnlyParticipant,
    GainServiceInitiator,
    RankedSubmitter,
    SubmissionInitiator,
)
from repro.sharding.partition import plan_shards

__all__ = ["HierarchicalResult", "run_hierarchical"]


@dataclass
class HierarchicalResult(FrameworkResult):
    """A :class:`FrameworkResult` plus the hierarchy's own observables.

    ``ranks`` carries exact global ranks for top-k winners and rank
    *lower bounds* (> k) for everyone else — the reduced-disclosure
    contract of the composition.  ``transcript`` merges all levels
    (phase-1 rounds, then the concurrent shard rounds, then one
    synthetic aggregation round of ``shard-aggregate`` entries, then the
    submission rounds); ``metrics`` is per *global* party id with every
    shard initiator folded into P_0.
    """

    shards: List[List[int]] = field(default_factory=list)
    candidates: List[int] = field(default_factory=list)
    aggregation: Optional[AggregationOutcome] = None
    #: Field-element bits the champion round moved (also present in the
    #: merged transcript under the ``shard-aggregate`` tag).
    aggregation_bits: int = 0
    #: Sequential SS rounds inside the aggregation (the merged
    #: transcript compresses them into one synthetic round).
    aggregation_rounds: int = 0
    phase1_rounds: int = 0

    @property
    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self.shards]


def run_hierarchical(
    framework: GroupRankingFramework,
    faults: Union[Sequence[FaultSpec], None] = None,
    *,
    resume: bool = False,
    known_betas: Optional[Dict[int, int]] = None,
) -> HierarchicalResult:
    """Run the sharded composition end to end (see module docstring)."""
    config = framework.config
    specs = _fault_specs(faults)
    gain_specs, shard_specs, submission_specs = _split_faults(specs)
    rng = framework._rng

    active = list(config.participant_ids)
    excluded: List[int] = []
    attempts = 1
    rejoins = 0
    wire_parts: List[WireStats] = []

    # ---- Level 1: global phase 1 (or a β hand-off that skips it) ----
    phase1 = _Phase1Outcome(Transcript(), {}, None)
    betas = dict(known_betas) if known_betas else {}
    if not (betas and all(j in betas for j in active)):
        betas = {}
        manager = _make_manager(config, "phase1")
        start_attempt = 0
        if resume:
            if manager is None:
                raise ValueError("resume=True requires config.checkpoint_dir")
            betas, start_attempt = manager.resume_state(active)
        try:
            if not (betas and all(j in betas for j in active)):
                phase1, betas, active, excluded, attempts = _run_phase1(
                    framework, active, gain_specs, manager, start_attempt
                )
        finally:
            if manager is not None:
                manager.close()
        if phase1.wire_stats is not None:
            wire_parts.append(phase1.wire_stats)
    phase1_rounds = phase1.transcript.rounds if phase1.transcript.entries else 0

    # ---- Level 2: concurrent shard-local phase 2 ----
    shards = plan_shards(active, config.shard_size)
    shard_results = _run_shards(framework, shards, betas, shard_specs)
    shard_rank: Dict[int, int] = {}
    shard_rounds = 0
    for shard, result in zip(shards, shard_results):
        attempts += result.attempts - 1
        rejoins += result.rejoins
        excluded.extend(shard[local - 1] for local in result.excluded)
        shard_rounds = max(shard_rounds, result.rounds)
        for local, rank in result.ranks.items():
            shard_rank[shard[local - 1]] = rank
        wire_parts.append(result.wire_stats)

    # ---- Level 3: champion aggregation ----
    candidates: List[int] = []
    for shard, result in zip(shards, shard_results):
        local_k = min(config.k, len(result.ranks))
        candidates.extend(
            shard[local - 1]
            for local, rank in result.ranks.items()
            if rank <= local_k
        )
    candidates.sort()
    aggregation = rank_champions(
        {j: betas[j] for j in candidates},
        config.k,
        config.beta_bits,
        _fork(rng, "aggregate"),
    )
    ranks: Dict[int, int] = {}
    for j in sorted(shard_rank):
        won = j in aggregation.ranks and aggregation.ranks[j] <= aggregation.k
        if won:
            ranks[j] = aggregation.ranks[j]
        else:
            # Lower bound only: below the k-th place globally, and never
            # better than the in-shard rank.
            ranks[j] = max(config.k + 1, shard_rank[j],
                           aggregation.ranks.get(j, 0))

    # ---- Level 4: global submission round ----
    submission = _run_submission(
        framework, sorted(ranks), ranks, betas, submission_specs
    )
    rejoins += phase1.rejoins + submission.rejoins
    wire_parts.append(submission.wire_stats)

    # ---- Merge transcripts, metrics and wire accounting ----
    transcript = _merge_transcripts(
        phase1.transcript, phase1_rounds, shards, shard_results, shard_rounds,
        candidates, aggregation, submission.transcript,
    )
    metrics = _merge_metrics(
        phase1.metrics, shards, shard_results, submission.metrics
    )
    wire_stats = _combine_wire(wire_parts, aggregation)
    return HierarchicalResult(
        ranks=ranks,
        initiator_output=submission.output,
        transcript=transcript,
        metrics=metrics,
        rounds=transcript.rounds,
        betas={j: betas[j] for j in sorted(ranks)},
        attempts=attempts,
        excluded=excluded,
        rejoins=rejoins,
        wire_stats=wire_stats,
        shards=shards,
        candidates=candidates,
        aggregation=aggregation,
        aggregation_bits=aggregation.wire_bits,
        aggregation_rounds=aggregation.metrics.rounds,
        phase1_rounds=phase1_rounds,
    )


# ---------------------------------------------------------------------------
# Fault-plan handling
# ---------------------------------------------------------------------------

def _fault_specs(faults) -> List[FaultSpec]:
    if faults is None:
        return []
    if hasattr(faults, "on_send"):
        raise ValueError(
            "the hierarchical composition takes fault plans as FaultSpec "
            "sequences (they are split per level), not pre-built injectors"
        )
    return list(faults)


def _split_faults(
    specs: Sequence[FaultSpec],
) -> Tuple[List[FaultSpec], List[FaultSpec], List[FaultSpec]]:
    """Route each spec to the engine that will see its traffic."""
    gain: List[FaultSpec] = []
    shard: List[FaultSpec] = []
    submission: List[FaultSpec] = []
    for spec in specs:
        if spec.phase == PHASE_GAIN or spec.tag in (
            TAG_DP_REQUEST, TAG_DP_RESPONSE
        ):
            gain.append(spec)
        elif spec.phase == PHASE_SUBMISSION or spec.tag == TAG_SUBMISSION:
            submission.append(spec)
        else:
            shard.append(spec)
    return gain, shard, submission


def _localize_specs(
    specs: Sequence[FaultSpec], shard: Sequence[int]
) -> List[FaultSpec]:
    """Shard-level view of the specs targeting this shard's members.

    Party and destination ids are remapped to the shard-local numbering
    (global id at sorted position ``i`` becomes local ``i+1``; the
    initiator stays 0).  A spec whose destination lives in another shard
    can never match here and is dropped.
    """
    local_of = {g: i + 1 for i, g in enumerate(shard)}
    localized: List[FaultSpec] = []
    for spec in specs:
        if spec.party == INITIATOR_ID:
            raise ValueError(
                "initiator-targeted faults in shard-level phases are "
                "ambiguous under sharding; target a participant instead"
            )
        if spec.party not in local_of:
            continue
        dst = spec.dst
        if dst is not None and dst != INITIATOR_ID:
            if dst not in local_of:
                continue
            dst = local_of[dst]
        localized.append(
            dataclasses.replace(spec, party=local_of[spec.party], dst=dst)
        )
    return localized


# ---------------------------------------------------------------------------
# Level runners
# ---------------------------------------------------------------------------

@dataclass
class _Phase1Outcome:
    transcript: Transcript
    metrics: Dict[int, PartyMetrics]
    wire_stats: Optional[WireStats]
    rejoins: int = 0


@dataclass
class _StageOutcome:
    transcript: Transcript
    metrics: Dict[int, PartyMetrics]
    wire_stats: WireStats
    output: object
    rejoins: int = 0


def _make_manager(config: FrameworkConfig, leaf: str):
    if config.checkpoint_dir is None:
        return None
    import os

    from repro.runtime.checkpoint import CheckpointManager

    return CheckpointManager(
        os.path.join(config.checkpoint_dir, leaf),
        sync_every=config.checkpoint_every,
    )


def _stage_engine(config: FrameworkConfig, injector, manager=None):
    supervisor = Supervisor(
        timeout_rounds=config.timeout_rounds,
        max_retries=config.max_retries,
        phase_of=phase_of_tag,
        adaptive=config.adaptive_timeouts,
    )
    transport = WireTransport(config.group, coalesce=config.coalesce)
    engine = Engine(
        metered_groups=[config.group],
        faults=injector,
        supervisor=supervisor,
        wire=transport,
        checkpoints=manager,
    )
    return engine, supervisor, transport


def _run_phase1(
    framework: GroupRankingFramework,
    active: List[int],
    specs: Sequence[FaultSpec],
    manager,
    start_attempt: int,
) -> Tuple[_Phase1Outcome, Dict[int, int], List[int], List[int], int]:
    """The global gain phase, with the flat run's recovery semantics.

    A blamed phase-1 failure excludes the culprit and reruns the phase
    over the survivors under a fresh ρ (``A{attempt}|`` RNG prefixes,
    exactly like the flat framework's restart determinism).
    """
    config = framework.config
    rng = framework._rng
    injector = (
        FaultInjector(
            list(specs), rng=_fork(rng, "faults"), phase_of=phase_of_tag
        )
        if specs
        else None
    )
    excluded: List[int] = []
    attempt = start_attempt
    while True:
        prefix = "" if attempt == 0 else f"A{attempt}|"
        current_active = list(active)

        def build_party(party_id: int, known_beta: Optional[int] = None):
            if party_id == INITIATOR_ID:
                return GainServiceInitiator(
                    config,
                    framework.initiator_input,
                    _fork(rng, prefix + "initiator"),
                    active_ids=current_active,
                )
            return GainOnlyParticipant(
                config,
                party_id,
                framework.participant_inputs[party_id - 1],
                _fork(rng, prefix + f"P{party_id}"),
                active_ids=current_active,
                known_beta=known_beta,
            )

        if manager is not None:
            manager.start_attempt(attempt, build_party)
        engine, supervisor, transport = _stage_engine(config, injector, manager)
        engine.add_party(build_party(INITIATOR_ID))
        for j in current_active:
            engine.add_party(build_party(j))
        try:
            outputs = engine.run()
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
            attempt += 1
            continue
        betas = {j: outputs[j] for j in active}
        outcome = _Phase1Outcome(
            transcript=engine.transcript,
            metrics={
                pid: party.metrics for pid, party in engine.parties.items()
            },
            wire_stats=transport.stats(),
            rejoins=supervisor.rejoins,
        )
        return outcome, betas, active, excluded, attempt + 1


def _shard_config(config: FrameworkConfig, size: int, index: int) -> FrameworkConfig:
    checkpoint_dir = None
    if config.checkpoint_dir is not None:
        import os

        checkpoint_dir = os.path.join(config.checkpoint_dir, f"shard-{index}")
    return dataclasses.replace(
        config,
        num_participants=size,
        k=min(config.k, size),
        shard_size=0,
        collect_submissions=False,
        workers=1,
        checkpoint_dir=checkpoint_dir,
    )


def _run_shards(
    framework: GroupRankingFramework,
    shards: List[List[int]],
    betas: Dict[int, int],
    specs: Sequence[FaultSpec],
) -> List[FrameworkResult]:
    """Phase 2 inside every shard, concurrently when a pool is configured.

    Each shard is a self-contained sub-framework over shard-local ids
    with its own deterministic RNG fork, so the pool fan-out and the
    inline walk produce identical results; a shard failure re-raises
    with the blame remapped to the global id.
    """
    config = framework.config
    plans: List[Tuple[FrameworkConfig, List, object, Dict[int, int], List[FaultSpec]]] = []
    for index, shard in enumerate(shards):
        sub_config = _shard_config(config, len(shard), index)
        inputs = [framework.participant_inputs[g - 1] for g in shard]
        local_betas = {i + 1: betas[g] for i, g in enumerate(shard)}
        local_specs = _localize_specs(specs, shard)
        plans.append((
            sub_config,
            inputs,
            _fork(framework._rng, f"shard{index}"),
            local_betas,
            local_specs,
        ))

    if config.workers > 1 and len(shards) > 1:
        from repro.runtime.parallel import ShardJob, WorkerPool, evaluate_shard_job

        jobs = [
            ShardJob(
                config=sub_config,
                initiator_input=framework.initiator_input,
                participant_inputs=tuple(inputs),
                rng=shard_rng,
                known_betas=tuple(sorted(local_betas.items())),
                fault_specs=tuple(local_specs),
            )
            for sub_config, inputs, shard_rng, local_betas, local_specs in plans
        ]
        pool = WorkerPool(min(config.workers, len(shards)))
        try:
            return list(pool.map(evaluate_shard_job, jobs))
        finally:
            pool.shutdown()

    results: List[FrameworkResult] = []
    for index, (sub_config, inputs, shard_rng, local_betas, local_specs) in enumerate(
        plans
    ):
        sub = GroupRankingFramework(
            sub_config, framework.initiator_input, inputs, rng=shard_rng
        )
        try:
            results.append(
                sub.run(local_specs or None, known_betas=local_betas)
            )
        except (PartyTimeout, ProtocolAbort) as failure:
            blamed = failure.blamed
            if blamed is not None and blamed != INITIATOR_ID:
                failure.blamed = shards[index][blamed - 1]
            raise
    return results


def _run_submission(
    framework: GroupRankingFramework,
    ranked_ids: List[int],
    ranks: Dict[int, int],
    betas: Dict[int, int],
    specs: Sequence[FaultSpec],
) -> _StageOutcome:
    """The global step-9 round over the hierarchy-assigned ranks."""
    config = framework.config
    rng = framework._rng
    injector = (
        FaultInjector(
            list(specs), rng=_fork(rng, "submit|faults"), phase_of=phase_of_tag
        )
        if specs
        else None
    )
    engine, supervisor, transport = _stage_engine(config, injector)
    engine.add_party(
        SubmissionInitiator(
            config,
            framework.initiator_input,
            _fork(rng, "submit|initiator"),
            active_ids=ranked_ids,
            run_gain_phase=False,
        )
    )
    for j in ranked_ids:
        engine.add_party(
            RankedSubmitter(
                config,
                j,
                framework.participant_inputs[j - 1],
                _fork(rng, f"submit|P{j}"),
                rank=ranks[j],
                active_ids=ranked_ids,
                known_beta=betas.get(j),
            )
        )
    outputs = engine.run()
    return _StageOutcome(
        transcript=engine.transcript,
        metrics={pid: party.metrics for pid, party in engine.parties.items()},
        wire_stats=transport.stats(),
        output=outputs[INITIATOR_ID],
        rejoins=supervisor.rejoins,
    )


# ---------------------------------------------------------------------------
# Cross-level accounting merges
# ---------------------------------------------------------------------------

def _merge_transcripts(
    phase1: Transcript,
    phase1_rounds: int,
    shards: List[List[int]],
    shard_results: List[FrameworkResult],
    shard_rounds: int,
    candidates: List[int],
    aggregation: AggregationOutcome,
    submission: Transcript,
) -> Transcript:
    """One global-id transcript covering all levels.

    Shard engines run concurrently, so their entries share the same
    round window (offset by the phase-1 rounds); the aggregation's
    field-element traffic is folded into one synthetic round of
    ``shard-aggregate`` entries — one per ordered candidate pair, the
    total split evenly (the substrate meters totals, not pairs).
    """
    merged = Transcript()
    merged.entries.extend(phase1.entries)
    for shard, result in zip(shards, shard_results):
        global_of = {0: 0}
        global_of.update({i + 1: g for i, g in enumerate(shard)})
        for entry in result.transcript.entries:
            merged.entries.append(
                dataclasses.replace(
                    entry,
                    round=entry.round + phase1_rounds,
                    src=global_of[entry.src],
                    dst=global_of[entry.dst],
                )
            )
        for key, value in result.transcript.meta.items():
            merged.meta.setdefault(key, value)
    aggregate_round = phase1_rounds + shard_rounds
    pairs = [(a, b) for a in candidates for b in candidates if a != b]
    if pairs and aggregation.wire_bits:
        bits_each, bits_extra = divmod(aggregation.wire_bits, len(pairs))
        frames_each, frames_extra = divmod(
            aggregation.metrics.field_messages, len(pairs)
        )
        for i, (a, b) in enumerate(pairs):
            merged.record(
                aggregate_round, a, b, TAG_AGGREGATE,
                bits_each + (bits_extra if i == 0 else 0),
                frames=frames_each + (frames_extra if i == 0 else 0),
            )
    submission_offset = aggregate_round + 1
    for entry in submission.entries:
        merged.entries.append(
            dataclasses.replace(entry, round=entry.round + submission_offset)
        )
    merged.meta["hierarchical"] = True
    merged.meta["shards"] = len(shards)
    return merged


def _merge_metrics(
    phase1_metrics: Dict[int, PartyMetrics],
    shards: List[List[int]],
    shard_results: List[FrameworkResult],
    submission_metrics: Dict[int, PartyMetrics],
) -> Dict[int, PartyMetrics]:
    """Per-global-party totals; every shard's P_0 folds into global P_0."""
    merged: Dict[int, PartyMetrics] = {}

    def fold(source: Dict[int, PartyMetrics], global_of: Dict[int, int]) -> None:
        for pid, m in source.items():
            g = global_of.get(pid, pid)
            target = merged.setdefault(g, PartyMetrics(party_id=g))
            target.ops.merge(m.ops)
            target.messages_sent += m.messages_sent
            target.messages_received += m.messages_received
            target.bits_sent += m.bits_sent
            target.bits_received += m.bits_received

    fold(phase1_metrics, {})
    for shard, result in zip(shards, shard_results):
        fold(result.metrics, {i + 1: g for i, g in enumerate(shard)})
    fold(submission_metrics, {})
    return merged


def _combine_wire(
    parts: List[WireStats], aggregation: AggregationOutcome
) -> WireStats:
    """Sum measured wire accounting across levels.

    The aggregation's field-element traffic never crosses an engine
    transport, so it is added explicitly under the ``shard-aggregate``
    tag; the digest chains the per-level digests (order-sensitive, like
    the per-level digests themselves).
    """
    messages_by_tag: Dict[str, int] = {}
    bits_by_tag: Dict[str, int] = {}
    for part in parts:
        for tag, count in part.messages_by_tag.items():
            messages_by_tag[tag] = messages_by_tag.get(tag, 0) + count
        for tag, bits in part.bits_by_tag.items():
            bits_by_tag[tag] = bits_by_tag.get(tag, 0) + bits
    agg_messages = aggregation.metrics.field_messages
    if aggregation.wire_bits:
        messages_by_tag[TAG_AGGREGATE] = (
            messages_by_tag.get(TAG_AGGREGATE, 0) + agg_messages
        )
        bits_by_tag[TAG_AGGREGATE] = (
            bits_by_tag.get(TAG_AGGREGATE, 0) + aggregation.wire_bits
        )
    digest = hashlib.sha256(
        "|".join(part.digest for part in parts).encode()
    ).hexdigest()
    return WireStats(
        coalesce=parts[0].coalesce,
        digest=digest,
        wire_messages=sum(p.wire_messages for p in parts) + agg_messages,
        wire_bits=sum(p.wire_bits for p in parts) + aggregation.wire_bits,
        payload_bits=sum(p.payload_bits for p in parts) + aggregation.wire_bits,
        messages_by_tag=messages_by_tag,
        bits_by_tag=bits_by_tag,
        logical_messages=sum(p.logical_messages for p in parts) + agg_messages,
    )
