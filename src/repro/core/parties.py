"""The framework's two party roles (paper Fig. 1).

``InitiatorParty`` (``P_0``) holds the criterion and weight vectors,
answers the dot-product requests with the masked extended vector, acts
as a ZKP verifier, and finally collects and re-verifies the top-k
submissions.

``ParticipantParty`` (``P_j``, ``1 ≤ j ≤ n``) runs all three phases:
secure gain computation, unlinkable gain comparison (distributed keying
with ZKPs, bitwise encryption, homomorphic comparison, the shuffle
chain) and ranking submission.

Fault tolerance (beyond the paper, which assumes all parties stay live):

* both roles run over an explicit **active set** of participant ids —
  the chain successor/predecessor relation is positional in that set,
  so the framework can re-run phase 2 over the survivors of a dropout
  with the dead party simply absent;
* a participant that already knows its masked gain (``known_beta``,
  harvested from a failed attempt) skips phase 1 on the re-run, and the
  initiator correspondingly skips its dot-product service loop;
* every received message is validated — field ranges, group
  membership, proof verification, set sizes — and failures raise
  :class:`ProtocolAbort` carrying ``blamed``/``phase`` so the runtime
  can name the culprit and exclude it;
* the initiator's any-source loops are duplicate-tolerant (at-least-once
  delivery: a retransmitted or duplicated request is answered once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.comparison import verify_bit_proofs_or_abort
from repro.core.gain import (
    AttributeSchema,
    InitiatorInput,
    ParticipantInput,
    initiator_extended_vector,
    participant_extended_vector,
    partial_gain,
    to_unsigned,
)
from repro.core.shuffle import ShuffleProcessor, chain_set_flaw
from repro.crypto.bitenc import BitwiseCiphertext, BitwiseElGamal
from repro.crypto.distkey import DistributedKey, ShareProofBatch
from repro.crypto.elgamal import Ciphertext
from repro.crypto.precompute import RandomnessPool
from repro.crypto.zkp import MultiVerifierSchnorrProof, NonInteractiveSchnorrProof
from repro.dotproduct.ioannidis import DotProductProtocol
from repro.groups.base import Element, Group
from repro.math.rng import RNG
from repro.runtime.errors import ProtocolAbort, ProtocolError
from repro.runtime.parallel import TauJob, WorkerPool, evaluate_tau_job, run_jobs
from repro.runtime.party import Party

INITIATOR_ID = 0

# Message tags (one per arrow in Fig. 1).
TAG_DP_REQUEST = "dp-request"
TAG_DP_RESPONSE = "dp-response"
TAG_PK_SHARE = "pk-share"
TAG_ZKP_COMMIT = "zkp-commit"
TAG_ZKP_CHALLENGE = "zkp-challenge"
TAG_ZKP_RESPONSE = "zkp-response"
TAG_ZKP_NIZK = "zkp-nizk"
TAG_BETA_BITS = "beta-bits"
TAG_TAU_SETS = "tau-sets"
TAG_CHAIN = "chain"
TAG_FINAL_SET = "final-set"
TAG_SUBMISSION = "submission"
# Synthetic transcript tag for the hierarchical composition's
# champion-aggregation round (repro.sharding): the secret-shared
# field-element traffic between shard champions, folded into the
# merged transcript as ordered-pair entries.
TAG_AGGREGATE = "shard-aggregate"

# Named protocol phases, used for blame reports and fault targeting.
PHASE_GAIN = "gain"
PHASE_KEYING = "keying"
PHASE_COMPARISON = "comparison"
PHASE_CHAIN = "chain"
PHASE_SUBMISSION = "submission"
PHASE_AGGREGATE = "aggregate"

PHASE_BY_TAG: Dict[str, str] = {
    TAG_DP_REQUEST: PHASE_GAIN,
    TAG_DP_RESPONSE: PHASE_GAIN,
    TAG_PK_SHARE: PHASE_KEYING,
    TAG_ZKP_COMMIT: PHASE_KEYING,
    TAG_ZKP_CHALLENGE: PHASE_KEYING,
    TAG_ZKP_RESPONSE: PHASE_KEYING,
    TAG_ZKP_NIZK: PHASE_KEYING,
    TAG_BETA_BITS: PHASE_COMPARISON,
    TAG_TAU_SETS: PHASE_CHAIN,
    TAG_CHAIN: PHASE_CHAIN,
    TAG_FINAL_SET: PHASE_CHAIN,
    TAG_SUBMISSION: PHASE_SUBMISSION,
    TAG_AGGREGATE: PHASE_AGGREGATE,
}


def phase_of_tag(tag: str) -> str:
    """The named framework phase a message tag belongs to."""
    return PHASE_BY_TAG.get(tag, tag)


@dataclass
class FrameworkConfig:
    """Everything public: the group, the questionnaire, and parameters.

    ``rerandomize``/``permute``/``naive_suffix`` are ablation switches
    (defaults reproduce the paper's protocol).  ``beta_bits`` (the
    masked-gain width l, by the rigorous bound of
    :func:`~repro.core.gain.beta_bit_length`) and ``dp_field_prime``
    (the dot product's field) are derived from the schema and
    ``rho_bits``; they can be read but not passed in.  Every party
    verifies every other party's key-knowledge proof.

    Performance switches (all default-off; they change operation cost,
    never a rank; ``tests/test_config_space.py`` classes what each
    field may change).  The default path already has the
    short-scalar and fixed-base speed: ``DLGroup.exp`` computes each
    exponentiation by the cheapest exact kernel below its meter, so the
    first two switches mainly change the *accounting*:

    * ``multiexp`` — Straus-interleaved encryption and short-scalar
      ladders in the comparison circuit, metered as the multiplications
      they perform instead of as exponentiations.
    * ``precompute`` — per-party offline randomness pool size; each
      party pre-generates this many ``(g^r, y^r)`` pairs under the joint
      key before the online comparison phase.  A pool larger than the
      comparison phase uses draws ahead, so the chain's randomness (and
      its ciphertexts, not its ranks) differ from the default run.
    * ``workers`` — process-pool width for the comparison, chain and
      shard fan-out.  Every width runs the same jobs (``1``, the
      default, runs them inline), so any value produces the same ranks,
      a byte-identical transcript and the same per-party op counts for
      the same seed.
    * ``backend`` — arithmetic backend for all bigint work
      (:mod:`repro.math.backend`): ``"auto"`` (default; keep the
      import-time detection — gmpy2 when importable, else libgmp through
      ctypes when it loads, else pure python), ``"gmp"``, ``"gmpy2"``,
      or ``"python"``.  Backends are transcript-equivalent:
      the choice changes wall-clock speed only, never values, operation
      counts, or wire bytes.
    * ``batch_verify`` — verify each round's key-knowledge proofs (and,
      with ``bit_proofs``, all bit-validity proofs) with ONE
      random-linear-combination multi-exponentiation instead of one pair
      of exponentiations per proof.  On batch failure verification falls
      back to per-proof checks, so aborts blame the same party the
      unbatched protocol would; transcripts and ranks are identical
      either way.
    * ``shard_size`` — ``0`` (default) runs the paper's flat protocol;
      any value ≥ 2 switches :meth:`GroupRankingFramework.run` to the
      hierarchical composition (:mod:`repro.sharding`): phase 2 runs
      inside shards of at most this many participants, shard champions
      are ranked in a secret-shared aggregation round, and only global
      top-k winners learn (and submit) exact ranks.
    * ``stream_chunk_sets`` — ``0`` (default) sends the step-8 vector
      whole.  ``c ≥ 1`` pipelines the chain: the head emits the vector
      in chunks of ``c`` comparison sets, pausing a round between
      chunks, so hop ``i+1`` decrypt–rerandomizes chunk ``j`` while hop
      ``i`` is still emitting chunk ``j+1``.  Randomness is drawn in
      the exact serial set order, so every produced element (and every
      rank) matches the whole-vector run; a ``c`` of at least the
      active set's size is one chunk and sends the same bytes as ``0``.

    Soundness switches:

    * ``bit_proofs`` — attach a disjunctive Chaum-Pedersen proof to every
      broadcast bit encryption and verify all received ones, upgrading
      the step-6 well-formedness check from structural (shape + group
      membership) to cryptographic (each plaintext provably in {0, 1}).

    Wire path (accounting only; ranks never change):

    * ``wire`` — ``"measured"``, the only accounting: every message is
      encoded with the v2 wire codec (:mod:`repro.runtime.wire`) and
      accounted by its real encoded bytes (payload + secure-channel
      envelope).  The field stays so configs that name it keep working.
      A fault-free run batches all messages one sender emits to one
      receiver within a round into a single framed wire message; a run
      under a fault plan frames each message alone.

    Robustness switches:

    * ``recovery`` — when a run fails with a typed, blamed error
      (crash, timeout, validated abort), exclude the blamed participant
      and deterministically re-run over the survivors.
    * ``checkpoint_dir`` — directory for durable per-party protocol
      state (``None`` disables checkpointing).  With a checkpoint
      manager attached, parties are snapshotted at every phase boundary,
      a ``kill_restart`` fault rejoins the killed party from its durable
      state instead of excluding it, and a crashed *process* can resume
      a run with ``Framework.run(resume=True)``.  Secrets are encrypted
      at rest (see :mod:`repro.runtime.checkpoint`); journals are
      fsynced at phase boundaries.
    * ``timeout_rounds``/``max_retries`` — the supervisor's per-receive
      deadline (in engine rounds; over tcp the transport's own
      wall-clock deadline applies) and retransmit budget per lost
      message.

    Every received ciphertext of the comparison and chain phases is
    group-membership-checked (unmetered), whatever the config.
    """

    group: Group
    schema: AttributeSchema
    num_participants: int
    k: int
    rho_bits: int = 15                     # paper's h
    rerandomize: bool = True
    permute: bool = True
    naive_suffix: bool = False
    zkp_mode: str = "interactive"   # or "fiat-shamir" (NIZK, fewer rounds)
    multiexp: bool = False
    precompute: int = 0
    workers: int = 1
    batch_verify: bool = False
    bit_proofs: bool = False
    stream_chunk_sets: int = 0      # 0 = the whole chain vector at once
    recovery: bool = False
    timeout_rounds: int = 6
    max_retries: int = 2
    wire: str = "measured"          # the only accounting (kept for callers)
    backend: str = "auto"           # arithmetic backend: "auto"/"gmp"/"gmpy2"/"python"
    checkpoint_dir: Optional[str] = None   # durable state directory (None = off)
    shard_size: int = 0             # 0 = flat run; ≥2 = hierarchical shards
    #: ``"inproc"`` (default) runs the lockstep engine in this process;
    #: ``"tcp"`` spawns each party as its own OS process talking asyncio
    #: loopback sockets (:mod:`repro.runtime.transport`) — same values,
    #: op counts and per-channel wire bytes, real wall-clock overlap.
    transport: str = "inproc"
    beta_bits: int = field(init=False)       # l, from the schema
    dp_field_prime: int = field(init=False)  # the dot product's field

    def __post_init__(self):
        if self.zkp_mode not in ("interactive", "fiat-shamir"):
            raise ValueError("zkp_mode must be 'interactive' or 'fiat-shamir'")
        from repro.math import backend as arith_backend

        if self.backend not in arith_backend.backend_choices():
            raise ValueError(
                f"backend must be one of {arith_backend.backend_choices()}"
            )
        if self.wire != "measured":
            raise ValueError(
                "wire must be 'measured': declared sizes and the "
                "conformance mode were removed"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.precompute < 0:
            raise ValueError("precompute must be non-negative")
        if self.stream_chunk_sets < 0:
            raise ValueError("stream_chunk_sets must be non-negative")
        if self.timeout_rounds < 1:
            raise ValueError("timeout_rounds must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.shard_size < 0:
            raise ValueError("shard_size must be non-negative")
        if self.shard_size == 1:
            raise ValueError(
                "shard_size must be 0 (flat) or at least 2 (a shard's "
                "comparison phase needs two parties)"
            )
        if self.transport not in ("inproc", "tcp"):
            raise ValueError("transport must be 'inproc' or 'tcp'")
        if self.transport == "tcp":
            if 0 < self.shard_size < self.num_participants:
                raise ValueError(
                    "transport='tcp' does not compose with the sharded "
                    "hierarchy yet; use shard_size=0"
                )
            if self.workers > 1:
                raise ValueError(
                    "transport='tcp' already runs one process per party; "
                    "workers must be 1"
                )
        from repro.core.gain import beta_bit_length
        from repro.math.primes import next_prime

        if self.num_participants < 2:
            raise ValueError("the comparison phase needs at least 2 participants")
        if not 1 <= self.k <= self.num_participants:
            raise ValueError("k must be in [1, n]")
        if self.rho_bits < 1:
            raise ValueError("rho_bits must be positive")
        if 0 < self.shard_size < self.num_participants:
            from repro.sharding.partition import shard_sizes, two_champions

            if two_champions(
                shard_sizes(self.num_participants, self.shard_size), self.k
            ):
                raise ValueError(
                    "this shard plan ranks exactly 2 shard champions; the "
                    "champion round's honest-majority secret sharing needs "
                    "1 or at least 3, so choose another shard_size or k"
                )
        self.beta_bits = beta_bit_length(
            self.schema.dimension,
            self.schema.value_bits,
            self.schema.weight_bits,
            self.rho_bits,
        )
        # The dot product w'·v' equals the signed β, |β| < 2^(l-1);
        # +8 guard bits keep centered decoding unambiguous.
        self.dp_field_prime = next_prime(1 << (self.beta_bits + 8))

    @property
    def participant_ids(self) -> List[int]:
        return list(range(1, self.num_participants + 1))

    def dot_protocol(self) -> DotProductProtocol:
        return DotProductProtocol(self.dp_field_prime)

    def ciphertext_bits(self) -> int:
        return 2 * self.group.element_bits


@dataclass
class Submission:
    """A top-k participant's ranking-phase message to the initiator."""

    rank: int
    values: Tuple[int, ...]


@dataclass
class InitiatorOutput:
    """What P_0 ends up with."""

    selected: List[Tuple[int, int, Tuple[int, ...]]] = field(default_factory=list)
    # (party_id, claimed rank, information vector), sorted by rank.
    verified: bool = True
    anomalies: List[str] = field(default_factory=list)


class InitiatorParty(Party):
    """``P_0``: gain-computation counterpart, ZKP verifier, collector.

    ``active_ids`` restricts the run to a surviving subset of
    participants (dropout recovery); ``run_gain_phase=False`` skips the
    dot-product service loop on a phase-2 restart where every survivor
    already knows its β.
    """

    def __init__(
        self,
        config: FrameworkConfig,
        secret_input: InitiatorInput,
        rng: RNG,
        *,
        active_ids: Optional[Sequence[int]] = None,
        run_gain_phase: bool = True,
    ):
        super().__init__(INITIATOR_ID, rng)
        self.config = config
        self.secret_input = secret_input  # repro: secret
        self.active_ids: List[int] = sorted(
            active_ids if active_ids is not None else config.participant_ids
        )
        self.run_gain_phase = run_gain_phase
        self._zkp = MultiVerifierSchnorrProof(config.group)

    def snapshot_state(self):
        """Durable initiator state.  ``rho``/``rho_assignments`` are
        secrets; they live only inside the sealed record body, never in
        a record header or on disk in the clear."""
        state = super().snapshot_state()
        state.update(
            role="initiator",
            active_ids=list(self.active_ids),
            run_gain_phase=self.run_gain_phase,
            rho=getattr(self, "rho", None),
            rho_assignments=dict(getattr(self, "rho_assignments", {})),
        )
        return state

    def protocol(self):
        yield from self._phase_gain_service()
        yield from self._phase_keying_verification()
        yield from self._phase_collect_submissions()

    # -- Phase 1 -----------------------------------------------------------------
    def _phase_gain_service(self):
        """Steps 1 and 3: answer each participant's dot-product request."""
        config = self.config
        participants = self.active_ids
        dot = config.dot_protocol()

        self.set_phase(PHASE_GAIN)
        if self.run_gain_phase:
            rho = max(
                2, self.rng.randbits(config.rho_bits) | (1 << (config.rho_bits - 1))
            )
            # ρ and the per-participant ρ_j are the initiator's private
            # state; the security games read them only when the initiator
            # is adversary-controlled.
            self.rho = rho  # repro: secret
            self.rho_assignments: Dict[int, int] = {}  # repro: secret
            extended = initiator_extended_vector(config.schema, self.secret_input, rho)
            pending: Set[int] = set(participants)
            while pending:
                message = yield from self.recv(None, TAG_DP_REQUEST)
                if message.src not in pending:
                    continue  # duplicate request (at-least-once delivery)
                if not dot.validate_request(message.payload):
                    raise ProtocolAbort(
                        f"P{message.src} sent a malformed dot-product request",
                        blamed=message.src, phase=PHASE_GAIN,
                    )
                pending.discard(message.src)
                # ρ_j drawn from [0, ρ) so that distinct partial gains
                # always yield strictly ordered β values (see gain.py docs).
                rho_j = self.rng.randrange(rho)
                self.rho_assignments[message.src] = rho_j
                response = dot.alice_respond(message.payload, extended, rho_j)
                self.send(message.src, TAG_DP_RESPONSE, response)

    # -- Phase 2 (verifier role only) --------------------------------------------
    def _phase_keying_verification(self):
        """Check every participant's key-knowledge proof."""
        config = self.config
        participants = self.active_ids
        self.set_phase(PHASE_KEYING)
        proof_batch = ShareProofBatch(
            config.group, batch=config.batch_verify, phase=PHASE_KEYING
        )
        if config.zkp_mode == "fiat-shamir":
            for j in participants:
                message = yield from self.recv(j, TAG_ZKP_NIZK)
                their_public, their_proof = message.payload
                nizk = NonInteractiveSchnorrProof(
                    config.group, context=b"repro-keying|" + str(j).encode()
                )
                proof_batch.add_nizk_claim(j, their_public, their_proof, nizk)
            proof_batch.verify_and_register()
            return
        publics: Dict[int, Element] = {}
        commits: Dict[int, Element] = {}
        for j in participants:
            share_msg = yield from self.recv(j, TAG_PK_SHARE)
            publics[j] = share_msg.payload
            commit_msg = yield from self.recv(j, TAG_ZKP_COMMIT)
            commits[j] = commit_msg.payload
            challenge = self._zkp.challenge(self.rng)
            self.send(j, TAG_ZKP_CHALLENGE, challenge)
        for j in participants:
            response_msg = yield from self.recv(j, TAG_ZKP_RESPONSE)
            commitment, challenges, z = response_msg.payload
            if not config.group.eq(commitment, commits[j]):
                raise ProtocolAbort(
                    f"P{j} answered a different commitment",
                    blamed=j, phase=PHASE_KEYING,
                )
            proof_batch.add_transcript_claim(
                j, publics[j], commitment, challenges, z
            )
        proof_batch.verify_and_register()

    # -- Phase 3 -----------------------------------------------------------------
    def _phase_collect_submissions(self):
        """Collect submissions, re-verify, select the top k."""
        config = self.config
        participants = self.active_ids
        self.set_phase(PHASE_SUBMISSION)
        output = InitiatorOutput()
        gains: Dict[int, int] = {}
        pending = set(participants)
        while pending:
            message = yield from self.recv(None, TAG_SUBMISSION)
            if message.src not in pending:
                continue  # duplicate submission
            pending.discard(message.src)
            submission = message.payload
            if submission is None:
                continue
            values = ParticipantInput.create(config.schema, submission.values)
            gains[message.src] = partial_gain(config.schema, self.secret_input, values)
            output.selected.append((message.src, submission.rank, submission.values))
        output.selected.sort(key=lambda item: (item[1], item[0]))
        self._verify_submissions(output, gains)
        self.output = output

    def _expected_submissions(self) -> int:
        """How many submissions step 9 must bring: one per top-k rank."""
        return min(self.config.k, len(self.active_ids))

    def _verify_submissions(self, output: InitiatorOutput, gains: Dict[int, int]) -> None:
        """Recompute gains of submitters; flag rank/gain inversions.

        The paper notes over-claimed rankings are detectable because the
        initiator can recompute the gain from the submitted vector.
        """
        expected = self._expected_submissions()
        if len(output.selected) < expected:
            output.anomalies.append(
                f"expected at least {expected} submissions, "
                f"got {len(output.selected)}"
            )
        for earlier, later in zip(output.selected, output.selected[1:]):
            if earlier[1] < later[1] and gains[earlier[0]] < gains[later[0]]:
                output.anomalies.append(
                    f"P{earlier[0]} (rank {earlier[1]}) has lower gain than "
                    f"P{later[0]} (rank {later[1]})"
                )
        output.verified = not output.anomalies


class ParticipantParty(Party):
    """``P_j``: the full three-phase participant behaviour.

    ``active_ids`` names the surviving participants this run ranks
    (defaults to all of them); ``known_beta`` carries the masked gain
    recovered in a previous attempt so a phase-2 restart skips the
    dot-product exchange entirely.
    """

    def __init__(
        self,
        config: FrameworkConfig,
        party_id: int,
        secret_input: ParticipantInput,
        rng: RNG,
        *,
        active_ids: Optional[Sequence[int]] = None,
        known_beta: Optional[int] = None,
    ):
        if party_id < 1 or party_id > config.num_participants:
            raise ValueError("participant ids run from 1 to n")
        super().__init__(party_id, rng)
        self.config = config
        self.secret_input = secret_input  # repro: secret
        self.active_ids: List[int] = sorted(
            active_ids if active_ids is not None else config.participant_ids
        )
        if party_id not in self.active_ids:
            raise ValueError(f"participant {party_id} is not in the active set")
        if len(self.active_ids) < 2:
            raise ValueError("the comparison phase needs at least 2 active parties")
        self.known_beta = known_beta
        self._zkp = MultiVerifierSchnorrProof(config.group)
        self.beta_unsigned: Optional[int] = None   # exposed for analysis/tests
        self.rank: Optional[int] = None
        # Durable-state capture point (see snapshot_state): the keying
        # share, once made.
        self._key_share = None
        # What this party saw when decrypting her own final set; the
        # security games read this ONLY from adversarial parties.
        self.final_residues: List[Element] = []

    def snapshot_state(self):
        """Durable participant state, captured at phase boundaries.

        The ``keying``-boundary snapshot is the rejoin entry point: it is
        taken *before* the key-share draw, so a twin rebuilt with
        ``known_beta`` and the recorded RNG position re-derives the
        identical share, pool, and chain randomness.  The secrets here
        (β, the share's secret exponent) exist only inside the sealed
        record body.
        """
        state = super().snapshot_state()
        share = self._key_share
        state.update(
            role="participant",
            active_ids=list(self.active_ids),
            position=self._position,
            beta=self.beta_unsigned,
            rank=self.rank,
            share=(share.party_id, share.secret, share.public) if share else None,
        )
        return state

    # -- helpers ---------------------------------------------------------------
    @property
    def _others(self) -> List[int]:
        return [j for j in self.active_ids if j != self.party_id]

    @property
    def _position(self) -> int:
        """This party's index in the (sorted) active set — the chain slot."""
        return self.active_ids.index(self.party_id)

    # -- misbehaviour hooks (overridden by the fault-injection tests) ----------
    def _proof_secret(self, secret: int) -> int:
        """The secret used in the key-knowledge proof (honest: the real one)."""
        return secret

    def _published_beta_bits(self, bitwise: BitwiseElGamal, beta: int,
                             joint_key) -> BitwiseCiphertext:
        """The bitwise ciphertext this party publishes (honest: E(β))."""
        return bitwise.encrypt(beta, self.config.beta_bits, joint_key, self.rng)

    def _published_beta_bits_with_proofs(self, bitwise: BitwiseElGamal, beta: int,
                                         joint_key):
        """Bit ciphertexts plus validity proofs (honest: proofs of E(β))."""
        return bitwise.encrypt_with_proofs(
            beta, self.config.beta_bits, joint_key, self.rng
        )

    def _claimed_rank(self, rank: int) -> int:
        """The rank this party submits to the initiator (honest: her own)."""
        return rank

    def _outgoing_tau_set(self, my_set: List[Ciphertext]) -> List[Ciphertext]:
        """The comparison set this party ships to the chain head (honest: all)."""
        return my_set

    def protocol(self):
        if self.known_beta is not None:
            beta = self.known_beta       # phase-2 restart: β already known
        else:
            beta = yield from self._phase_gain_computation()
        self.beta_unsigned = beta
        rank = yield from self._phase_unlinkable_comparison(beta)
        self.rank = rank
        self._phase_submission(rank)
        self.output = rank

    # -- Phase 1 -----------------------------------------------------------------
    def _phase_gain_computation(self):
        """Steps 2 and 4: dot product with P_0, recover masked gain β."""
        self.set_phase(PHASE_GAIN)
        config = self.config
        dot = config.dot_protocol()
        extended = participant_extended_vector(config.schema, self.secret_input)
        request, state = dot.bob_request(extended, self.rng)
        self.send(INITIATOR_ID, TAG_DP_REQUEST, request)
        message = yield from self.recv(INITIATOR_ID, TAG_DP_RESPONSE)
        if not dot.validate_response(message.payload):
            raise ProtocolAbort(
                "the initiator sent a malformed dot-product response",
                blamed=INITIATOR_ID, phase=PHASE_GAIN,
            )
        beta_signed = dot.bob_recover(state, message.payload)
        return to_unsigned(beta_signed, config.beta_bits)

    # -- Phase 2 -----------------------------------------------------------------
    def _phase_unlinkable_comparison(self, beta: int):
        config = self.config
        group = config.group
        others = self._others

        # Step 5: distributed keying with knowledge proofs.
        self.set_phase(PHASE_KEYING)
        distkey = DistributedKey(group)
        share = distkey.make_share(self.party_id, self.rng)
        self._key_share = share
        distkey.register_public(self.party_id, share.public)
        publics = yield from self._run_keying_zkps(distkey, share)

        joint_key = distkey.joint_public_key()

        # Offline phase: pre-generate randomness under the joint key so the
        # online bit encryptions cost table lookups and multiplications.
        pool: Optional[RandomnessPool] = None
        if config.precompute > 0:
            pool = RandomnessPool(
                group, joint_key, self.rng, size=config.precompute
            )

        # Step 6: publish bitwise encryption of β under the joint key.
        self.set_phase(PHASE_COMPARISON)
        bitwise = BitwiseElGamal(group, pool=pool, multiexp=config.multiexp)
        if config.bit_proofs:
            # Each broadcast carries per-bit validity proofs; receivers
            # check them (in one batch when batch_verify is on) before
            # the circuit touches the operand.
            my_bits_ct, my_proofs = self._published_beta_bits_with_proofs(
                bitwise, beta, joint_key
            )
            self.broadcast(others, TAG_BETA_BITS, (my_bits_ct, my_proofs))
            received = yield from self.recv_from_all(others, TAG_BETA_BITS)
            other_bits = {}
            claims = []
            for src in sorted(received):
                payload = received[src]
                if not (isinstance(payload, tuple) and len(payload) == 2):
                    raise ProtocolAbort(
                        f"P{src} sent a malformed bitwise ciphertext",
                        blamed=src, phase=PHASE_COMPARISON,
                    )
                their_bits, their_proofs = payload
                bitwise.validate_or_abort(their_bits, config.beta_bits, blamed=src)
                other_bits[src] = their_bits
                claims.append((src, their_bits, their_proofs))
            verify_bit_proofs_or_abort(
                group, joint_key, claims, batch=config.batch_verify
            )
        else:
            my_bits_ct = self._published_beta_bits(bitwise, beta, joint_key)
            self.broadcast(others, TAG_BETA_BITS, my_bits_ct)
            other_bits = yield from self.recv_from_all(others, TAG_BETA_BITS)
            for src, received in other_bits.items():
                bitwise.validate_or_abort(received, config.beta_bits, blamed=src)

        # Step 7: homomorphic comparisons; flatten into this party's set ℰ_j.
        # One RNG-free job per peer, fanned out through the engine's
        # worker pool (inline at width 1); each job's counter merges here.
        jobs = [
            TauJob(
                group=group,
                beta=beta,
                other_bits=tuple(other_bits[i].bits),
                naive_suffix=config.naive_suffix,
                multiexp=config.multiexp,
                generator_table=pool.generator_table if pool is not None else None,
            )
            for i in sorted(other_bits)
        ]
        my_set: List[Ciphertext] = []
        for taus, ops in run_jobs(self._worker_pool(), evaluate_tau_job, jobs):
            my_set.extend(taus)
            self.metrics.ops.merge(ops)

        # Step 8: the chain over the active set, in position order.
        self.set_phase(PHASE_CHAIN)
        rank_zeros = yield from self._run_shuffle_chain(my_set, share.secret)
        return rank_zeros + 1

    def _worker_pool(self) -> Optional[WorkerPool]:
        """The engine-owned process pool (none in a tcp party process)."""
        return getattr(self._engine, "worker_pool", None)

    def _run_keying_zkps(self, distkey: DistributedKey, share):
        """Broadcast own key share + Schnorr proof; verify everyone else's.

        Verifiers are all other parties including the initiator (the
        paper's "rest of parties").
        """
        config = self.config
        group = config.group
        others = self._others
        verifiers = [INITIATOR_ID] + others

        def require_element(candidate, blamed):
            if not group.is_element(candidate):
                raise ProtocolAbort(
                    f"P{blamed} published an invalid public key share",
                    blamed=blamed, phase=PHASE_KEYING,
                )

        if config.zkp_mode == "fiat-shamir":
            # NIZK keying (extension): one broadcast carries share + proof,
            # no challenge round-trips — compare rounds in the ablations.
            nizk = NonInteractiveSchnorrProof(
                group, context=b"repro-keying|" + str(self.party_id).encode()
            )
            proof = nizk.prove(self._proof_secret(share.secret), self.rng)
            self.broadcast(verifiers, TAG_ZKP_NIZK, (share.public, proof))
            proof_batch = ShareProofBatch(
                group, distkey, batch=config.batch_verify, phase=PHASE_KEYING
            )
            for j in others:
                message = yield from self.recv(j, TAG_ZKP_NIZK)
                their_public, their_proof = message.payload
                require_element(their_public, j)
                peer_nizk = NonInteractiveSchnorrProof(
                    group, context=b"repro-keying|" + str(j).encode()
                )
                proof_batch.add_nizk_claim(j, their_public, their_proof, peer_nizk)
            return proof_batch.verify_and_register()

        commitment, nonce = self._zkp.commit(self.rng)
        self.broadcast(verifiers, TAG_PK_SHARE, share.public)
        self.broadcast(verifiers, TAG_ZKP_COMMIT, commitment)

        publics: Dict[int, Element] = {}
        commits: Dict[int, Element] = {}
        for j in others:
            share_msg = yield from self.recv(j, TAG_PK_SHARE)
            require_element(share_msg.payload, j)
            publics[j] = share_msg.payload
            distkey.register_public(j, share_msg.payload)
            commit_msg = yield from self.recv(j, TAG_ZKP_COMMIT)
            commits[j] = commit_msg.payload
            self.send(j, TAG_ZKP_CHALLENGE, self._zkp.challenge(self.rng))

        challenges = []
        for verifier in verifiers:
            challenge_msg = yield from self.recv(verifier, TAG_ZKP_CHALLENGE)
            challenges.append(challenge_msg.payload)
        response = self._zkp.respond_multi(
            nonce, self._proof_secret(share.secret), challenges
        )
        self.broadcast(
            verifiers, TAG_ZKP_RESPONSE, (commitment, tuple(challenges), response)
        )

        proof_batch = ShareProofBatch(
            group, batch=config.batch_verify, phase=PHASE_KEYING
        )
        for j in others:
            response_msg = yield from self.recv(j, TAG_ZKP_RESPONSE)
            their_commit, their_challenges, z = response_msg.payload
            if not group.eq(their_commit, commits[j]):
                raise ProtocolAbort(
                    f"P{j} answered a different commitment",
                    blamed=j, phase=PHASE_KEYING,
                )
            proof_batch.add_transcript_claim(
                j, publics[j], their_commit, their_challenges, z
            )
        proof_batch.verify_and_register()
        return publics

    # -- Step 8: chain validation helpers ---------------------------------------
    def _expected_set_size(self) -> int:
        # Every ℰ_j must hold exactly l·(n_active−1) ciphertexts; anyone
        # in the chain can (and does) check, so a member dropping or
        # injecting ciphertexts is caught at the next hop.
        return self.config.beta_bits * (len(self.active_ids) - 1)

    def _validate_set(self, cipher_set, blamed: int) -> None:
        """Size + group-membership check on one comparison set."""
        flaw = chain_set_flaw(
            self.config.group, cipher_set, self._expected_set_size()
        )
        if flaw is not None:
            raise ProtocolAbort(
                f"chain vector tampered: {flaw}",
                blamed=blamed, phase=PHASE_CHAIN,
            )

    def _chain_chunks(self) -> List[Tuple[int, int]]:
        """Consecutive ``[start, stop)`` bounds covering the chain vector,
        each at most ``stream_chunk_sets`` comparison sets wide (the
        whole vector when it is 0).  Every party derives the same layout
        from public parameters."""
        total = len(self.active_ids)
        size = self.config.stream_chunk_sets or total
        return [
            (start, min(start + size, total))
            for start in range(0, total, size)
        ]

    def _validated_chunk(self, payload, index: int, chunked: bool,
                         expected_sets: int, blamed: int) -> List[List[Ciphertext]]:
        """Structure + per-set validation of one received chain chunk.

        A chunked chain tags each chunk with its index: delivery is FIFO
        by arrival, not by send, so a delayed chunk can overtake."""
        if chunked:
            if not (isinstance(payload, tuple) and len(payload) == 2):
                raise ProtocolAbort(
                    "chain vector tampered: malformed stream chunk",
                    blamed=blamed, phase=PHASE_CHAIN,
                )
            received_index, payload = payload
            if received_index != index:
                raise ProtocolAbort(
                    "chain vector tampered: stream chunk out of sequence",
                    blamed=blamed, phase=PHASE_CHAIN,
                )
        if not isinstance(payload, (list, tuple)) or len(payload) != expected_sets:
            raise ProtocolAbort(
                "chain vector tampered: wrong number of comparison sets",
                blamed=blamed, phase=PHASE_CHAIN,
            )
        for cipher_set in payload:
            self._validate_set(cipher_set, blamed)
        return [list(cipher_set) for cipher_set in payload]

    def _run_shuffle_chain(self, my_set: List[Ciphertext], secret: int):
        """Step 8 plus the first half of step 9 (count own zeros).

        Chain order is positional in the active set: the first active
        participant gathers the ℰ sets, the last distributes the final
        vector — so the same code runs a full group or a survivor
        subset.

        The vector travels in the chunks of :meth:`_chain_chunks`.  One
        chunk goes as the bare vector.  Several go as ``(index, sets)``
        with the head pausing one engine round between emissions (see
        :class:`~repro.runtime.channels.NextRound`), so its successor is
        already peeling chunk ``c`` while the head emits ``c+1``.
        Set-level randomness is drawn in the exact order the whole-vector
        walk uses, so every ciphertext, every final set, and every rank
        is the same however the vector is cut.
        """
        config = self.config
        active = self.active_ids
        position = self._position
        others = self._others
        processor = ShuffleProcessor(
            config.group, rerandomize=config.rerandomize, permute=config.permute
        )
        worker_pool = self._worker_pool()
        head, tail = active[0], active[-1]
        if len(my_set) != self._expected_set_size():
            raise ProtocolError("own comparison set has the wrong size")
        bounds = self._chain_chunks()
        chunked = len(bounds) > 1

        def process(sets, start: int, stop: int):
            own_local = position - start if start <= position < stop else -1
            return processor.process_vector(
                sets, own_index=own_local, secret=secret, rng=self.rng,
                executor=worker_pool,
            )

        def forward(index: int, processed) -> None:
            payload = (index, processed) if chunked else processed
            self.send(active[position + 1], TAG_CHAIN, payload)

        if position == 0:
            # The chain head gathers every ℰ_j, builds V, processes, forwards.
            received = yield from self.recv_from_all(others, TAG_TAU_SETS)
            vector: List[List[Ciphertext]] = [my_set]
            for j in sorted(received):
                self._validate_set(received[j], blamed=j)
                vector.append(list(received[j]))
            for index, (start, stop) in enumerate(bounds):
                forward(index, process(vector[start:stop], start, stop))
                if index + 1 < len(bounds):
                    yield from self.pause()
        else:
            self.send(head, TAG_TAU_SETS, self._outgoing_tau_set(my_set))
            predecessor = active[position - 1]
            collected: List[List[Ciphertext]] = []
            for index, (start, stop) in enumerate(bounds):
                chain_msg = yield from self.recv(predecessor, TAG_CHAIN)
                chunk = self._validated_chunk(
                    chain_msg.payload, index, chunked, stop - start,
                    blamed=predecessor,
                )
                processed = process(chunk, start, stop)
                if self.party_id != tail:
                    forward(index, processed)
                else:
                    collected.extend(processed)

        if self.party_id == tail:
            # The chain tail distributes the processed sets to their owners.
            for j in others:
                self.send(j, TAG_FINAL_SET, collected[active.index(j)])
            final_set = collected[position]
        else:
            final_msg = yield from self.recv(tail, TAG_FINAL_SET)
            final_set = final_msg.payload
            self._validate_set(final_set, blamed=tail)
        zeros, residues = processor.decrypt_residues(final_set, secret)
        self.final_residues = residues
        return zeros

    # -- Phase 3 -----------------------------------------------------------------
    def _phase_submission(self, rank: int) -> None:
        """Step 9, second half: submit information iff ranked in the top k.

        Non-selected participants send an explicit (empty) decline so the
        simulated initiator can terminate deterministically; on a real
        network P_0 would simply stop waiting.
        """
        self.set_phase(PHASE_SUBMISSION)
        config = self.config
        rank = self._claimed_rank(rank)
        payload = None
        if rank <= config.k:
            payload = Submission(rank=rank, values=self.secret_input.values)
        self.send(INITIATOR_ID, TAG_SUBMISSION, payload)
