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

from repro.core.framework import (
    Attempts,
    FrameworkResult,
    GroupRankingFramework,
    _fork,
    engine_result,
    make_checkpoints,
    make_engine,
)
from repro.core.parties import (
    INITIATOR_ID,
    PHASE_GAIN,
    PHASE_SUBMISSION,
    TAG_AGGREGATE,
    TAG_DP_REQUEST,
    TAG_DP_RESPONSE,
    TAG_SUBMISSION,
    FrameworkConfig,
)
from repro.runtime.channels import WireStats
from repro.runtime.errors import PartyTimeout, ProtocolAbort, ProtocolError
from repro.runtime.faults import FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.transcript import Transcript
from repro.sharding.aggregate import AggregationOutcome, rank_champions
from repro.sharding.parties import (
    GainOnlyParticipant,
    GainServiceInitiator,
    RankedSubmitter,
    SubmissionInitiator,
)
from repro.sharding.partition import plan_shards, two_champions

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

    # ---- Level 1: global phase 1 (or a β hand-off that skips it) ----
    attempts = Attempts(config, rng, known_betas)
    phase1: Optional[FrameworkResult] = None
    if not attempts.phase_two:
        manager = make_checkpoints(config, "phase1")
        try:
            if resume:
                attempts.resume(manager)
            if not attempts.phase_two:
                phase1 = _run_phase1(framework, attempts, gain_specs, manager)
        finally:
            if manager is not None:
                manager.close()
    if phase1 is None:
        phase1 = attempts.stamp(FrameworkResult(
            ranks={}, initiator_output=None, transcript=Transcript(),
            metrics={}, rounds=0, betas=attempts.betas,
        ))
    betas = phase1.betas
    attempts_used = phase1.attempts
    excluded = list(phase1.excluded)
    rejoins = 0
    wire_parts = [phase1.wire_stats] if phase1.wire_stats is not None else []

    # ---- Level 2: concurrent shard-local phase 2 ----
    shards = plan_shards(attempts.active, config.shard_size)
    if two_champions([len(shard) for shard in shards], config.k):
        raise ProtocolError(
            "cannot recover: the survivors' shard plan ranks exactly 2 "
            "shard champions, and the champion round needs 1 or at least 3"
        )
    shard_results = _run_shards(framework, shards, betas, shard_specs)
    shard_rank: Dict[int, int] = {}
    shard_rounds = 0
    for shard, result in zip(shards, shard_results):
        attempts_used += result.attempts - 1
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
        phase1.transcript, phase1.rounds, shards, shard_results, shard_rounds,
        candidates, aggregation, submission.transcript,
    )
    metrics = _merge_metrics(
        phase1.metrics, shards, shard_results, submission.metrics
    )
    wire_stats = _combine_wire(wire_parts, aggregation)
    return HierarchicalResult(
        ranks=ranks,
        initiator_output=submission.initiator_output,
        transcript=transcript,
        metrics=metrics,
        rounds=transcript.rounds,
        betas={j: betas[j] for j in sorted(ranks)},
        attempts=attempts_used,
        excluded=excluded,
        rejoins=rejoins,
        wire_stats=wire_stats,
        shards=shards,
        candidates=candidates,
        aggregation=aggregation,
        aggregation_bits=aggregation.wire_bits,
        aggregation_rounds=aggregation.metrics.rounds,
        phase1_rounds=phase1.rounds,
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

def _run_phase1(
    framework: GroupRankingFramework,
    attempts: Attempts,
    specs: Sequence[FaultSpec],
    manager,
) -> FrameworkResult:
    """The global gain phase, with the flat run's recovery semantics.

    A blamed phase-1 failure excludes the culprit and reruns the phase
    over the survivors under a fresh ρ: phase 1 always restarts whole,
    so nothing is harvested.
    """
    injector = framework._make_injector(specs)

    def run_attempt() -> FrameworkResult:
        engine = framework.attempt_engine(
            attempts, injector, manager,
            roles=(GainServiceInitiator, GainOnlyParticipant),
        )
        return engine_result(engine, engine.run(), attempts.active)

    return attempts.until_done(run_attempt)


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
) -> FrameworkResult:
    """The global step-9 round over the hierarchy-assigned ranks."""
    config = framework.config
    rng = framework._rng
    engine = make_engine(config, framework._make_injector(specs, "submit|faults"))
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
    return engine_result(engine, engine.run(), ranked_ids)


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
    the per-level digests themselves).  The levels reuse channels, so
    their channel digests cannot be merged.
    """
    digest = hashlib.sha256(
        "|".join(part.digest for part in parts).encode()
    ).hexdigest()
    total = WireStats.total(parts, digest)
    agg_messages = aggregation.metrics.field_messages
    if aggregation.wire_bits:
        total.messages_by_tag[TAG_AGGREGATE] = (
            total.messages_by_tag.get(TAG_AGGREGATE, 0) + agg_messages
        )
        total.bits_by_tag[TAG_AGGREGATE] = (
            total.bits_by_tag.get(TAG_AGGREGATE, 0) + aggregation.wire_bits
        )
    return dataclasses.replace(
        total,
        wire_messages=total.wire_messages + agg_messages,
        wire_bits=total.wire_bits + aggregation.wire_bits,
        payload_bits=total.payload_bits + aggregation.wire_bits,
        logical_messages=total.logical_messages + agg_messages,
    )
