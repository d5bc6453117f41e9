"""Level-restricted party roles for the hierarchical composition.

The flat protocol's roles (:mod:`repro.core.parties`) run all three
phases back to back.  The hierarchy runs the phases in *separate
engines* — phase 1 once globally, phase 2 inside each shard, phase 3
once globally after the aggregation round — so each level needs a role
that runs exactly its slice of the refactored phase generators:

* :class:`GainServiceInitiator` / :class:`GainOnlyParticipant` — the
  global phase-1 exchange.  Forked under the same RNG labels the flat
  framework uses, so a sharded run's β values match a flat run's
  byte for byte (one ρ for everyone: β order *is* gain order across
  shard boundaries, which is what makes champion aggregation sound).
* :class:`ShardInitiator` / :class:`ShardParticipant` — shard-local
  phase 2: the unmodified paper protocol among the shard's members
  (``known_beta`` set), whose step-9 round is a decline round — the
  shard ranks, and only the global round below submits.
* :class:`SubmissionInitiator` / :class:`RankedSubmitter` — the global
  phase-3 round over the already-assigned ranks: top-k winners submit
  their information vectors, everyone else declines, and P_0 re-verifies
  gains exactly as in the flat run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.gain import ParticipantInput
from repro.core.parties import (
    INITIATOR_ID,
    PHASE_KEYING,
    PHASE_SUBMISSION,
    TAG_SUBMISSION,
    FrameworkConfig,
    InitiatorParty,
    ParticipantParty,
)
from repro.math.rng import RNG

__all__ = [
    "GainOnlyParticipant",
    "GainServiceInitiator",
    "RankedSubmitter",
    "ShardInitiator",
    "ShardParticipant",
    "SubmissionInitiator",
]


class GainServiceInitiator(InitiatorParty):
    """P_0's phase-1 slice: serve every dot-product request, then stop."""

    def protocol(self):
        yield from self._phase_gain_service()
        # Expose the mask assignments for the security games, mirroring
        # the flat initiator (the hierarchy itself never reads them).
        self.output = None


class GainOnlyParticipant(ParticipantParty):
    """P_j's phase-1 slice: recover the masked gain β and stop.

    The recovered β is the party's output; the orchestrator hands it to
    the shard-level run as ``known_beta``.
    """

    def protocol(self):
        beta = yield from self._phase_gain_computation()
        self.beta_unsigned = beta
        # Mirror the flat protocol's phase-2 entry boundary: β is fixed,
        # and the transition writes the durable snapshot ``--resume``
        # harvests β from after a cross-process restart.
        self.set_phase(PHASE_KEYING)
        self.output = beta


class ShardInitiator(InitiatorParty):
    """P_0 inside a shard: as flat, but nobody submits in its step 9."""

    def _expected_submissions(self) -> int:
        return 0


class ShardParticipant(ParticipantParty):
    """P_j inside a shard: phase 2 as flat, then a decline in step 9."""

    def _phase_submission(self, rank: int) -> None:
        self.set_phase(PHASE_SUBMISSION)
        self.send(INITIATOR_ID, TAG_SUBMISSION, None)


class SubmissionInitiator(InitiatorParty):
    """P_0's phase-3 slice: collect, re-verify, select the top k."""

    def protocol(self):
        yield from self._phase_collect_submissions()


class RankedSubmitter(ParticipantParty):
    """P_j's phase-3 slice: submit iff the aggregation ranked her top-k.

    The rank was assigned by the champion-aggregation round; like the
    flat protocol, non-winners send an explicit decline so the simulated
    initiator terminates deterministically.
    """

    def __init__(
        self,
        config: FrameworkConfig,
        party_id: int,
        secret_input: ParticipantInput,
        rng: RNG,
        *,
        rank: int,
        active_ids: Optional[Sequence[int]] = None,
        known_beta: Optional[int] = None,
    ):
        super().__init__(
            config, party_id, secret_input, rng,
            active_ids=active_ids, known_beta=known_beta,
        )
        self.assigned_rank = rank

    def protocol(self):
        self.beta_unsigned = self.known_beta
        self.rank = self.assigned_rank
        self._phase_submission(self.assigned_rank)
        self.output = self.assigned_rank
        return
        yield  # pragma: no cover — marks this no-receive protocol as a generator
