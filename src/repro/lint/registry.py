"""Source/sink/sanitizer registry for the taint layer.

Secret *sources* come from two places:

* this registry — attribute/variable names that are secret wherever
  they occur under a package prefix (``rho``, ``secret``, shuffle
  ``permutation`` randomness, …), and
* in-code annotations — a trailing ``# repro: secret`` comment on an
  assignment, dataclass field, or parameter marks the bound name as a
  source for that module (used for names too generic to register
  globally, e.g. the pool's ``r`` exponent).

*Sanitizers* are calls whose result is safe to expose even when an
argument is secret: encryption, commitments, hashing, and ``g^x``-style
exponentiation (public under DL).  *Validators* are the membership /
structure checks the R-GUARD rule accepts as dominators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

#: Trailing comment marking the names bound on that line as secret.
SECRET_ANNOTATION = re.compile(r"#\s*repro:\s*secret\b")

#: Trailing comment suppressing specific rules on that statement, e.g.
#: ``# repro-lint: ignore[R-GUARD] -- validated at receipt``.
IGNORE_ANNOTATION = re.compile(
    r"#\s*repro-lint:\s*ignore\[([A-Z0-9\-,\s]+)\]"
)

#: Names secret *everywhere* under ``repro.`` — the paper's symbols and
#: their direct representations (see docs/PROTOCOL.md for the mapping).
GLOBAL_SECRET_NAMES: FrozenSet[str] = frozenset(
    {
        "rho",  # ρ — the initiator's gain-masking multiplier (§gain)
        "rho_j",  # ρ_j — per-participant additive mask (§gain)
        "rho_assignments",
        "secret",  # ElGamal key shares x_i, DGK keys (§distkey)
        "secret_key",
        "secret_exponent",
        "secret_input",  # the initiator's private weight/value vectors
        "private_vector",
    }
)

#: Names secret only under specific package prefixes (dotted module
#: name prefix -> names).  Shuffle randomness is secret in protocol and
#: runtime code, but ``permutation`` is a public object in e.g.
#: ``repro.sorting`` (sorting networks are public by definition).
SCOPED_SECRET_NAMES: Dict[str, FrozenSet[str]] = {
    "repro.core": frozenset({"permutation", "rerandomizers"}),
    "repro.crypto": frozenset({"permutation", "rerandomizers"}),
    "repro.anonmsg": frozenset(
        {"permutation", "rerandomizers", "rerandomizer_pairs"}
    ),
    "repro.runtime": frozenset(
        {"permutation", "rerandomizers", "rerandomizer_pairs"}
    ),
    # The hierarchy moves β values (gain-masked, but order-revealing)
    # between levels: shard hand-offs and the champion aggregation must
    # never log or transcript-annotate them in the clear.
    "repro.sharding": frozenset(
        {"permutation", "rerandomizers", "betas", "known_betas",
         "candidate_betas"}
    ),
}

#: Call names whose result is safe even with secret arguments.
SANITIZERS: FrozenSet[str] = frozenset(
    {
        # encryption / commitments / proofs
        "encrypt",
        "encrypt_zero",
        "encrypt_bit",
        "encrypt_bits",
        "commit",
        "commitment",
        "prove",
        "challenge_for",
        # hashing
        "sha256",
        "blake2b",
        "digest",
        "hexdigest",
        "hash_to_exponent",
        # g^x-style exponentiation is public under DL
        "exp",
        "exp_each",
        "exp_generator",
        "small_exp",
        "multi_exp",
        "g_pow",
        "y_pow",
        "power",
        "pow",
        # blinded/encrypted transforms
        "peel_layer",
        "peel_layers",
        "rerandomize",
        "rerandomize_exponent",
        "rerandomize_with_exponent",
        "rerandomize_with_exponents",
        "decrypt",  # honest decryption output is protocol-visible
        "decrypt_is_zero",
        "decrypt_small",
        # encrypt-then-MAC sealing of checkpoint record bodies
        "seal_state",
        # structure-only reads
        "len",
        "bit_length",
        "type",
        "is_element",
        "is_identity",
        "isinstance",
        "fork",
    }
)

#: Logging-method names; a call ``X.debug(...)`` is a log sink when the
#: receiver chain mentions a logger-ish name.
LOG_METHODS: FrozenSet[str] = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
)
LOGGER_BASE = re.compile(r"log", re.IGNORECASE)

#: Receiver names that make attribute calls / stores transcript sinks.
TRANSCRIPT_BASES: FrozenSet[str] = frozenset({"transcript", "metrics"})
TRANSCRIPT_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Transcript", "TranscriptEntry", "PartyMetrics"}
)

#: The wire-encode module; names imported from it become wire sinks in
#: the importing module, plus ``codec.encode*(...)`` attribute calls.
WIRE_MODULE = "repro.runtime.wire"
WIRE_RECEIVERS = re.compile(r"codec|wire", re.IGNORECASE)

#: The durable-state module: ``write_*``/``append_*``/``persist_*``
#: method calls on checkpoint/store-ish receivers (and those names
#: imported from the module) are disk sinks — everything reaching them
#: must first pass through the ``seal_state`` sanitizer.
CHECKPOINT_MODULE = "repro.runtime.checkpoint"
CHECKPOINT_RECEIVERS = re.compile(r"checkpoint|ckpt|store", re.IGNORECASE)
CHECKPOINT_WRITE_PREFIXES = ("write_", "append_", "persist_")

#: decrypt-family primitives R-GUARD tracks.
SENSITIVE_CALLS: FrozenSet[str] = frozenset(
    {
        "decrypt",
        "decrypt_is_zero",
        "decrypt_small",
        "full_decrypt",
        "peel_layer",
        "peel_layers",
        "rerandomize",
        "rerandomize_exponent",
        "rerandomize_with_exponent",
        "rerandomize_with_exponents",
    }
)

#: Calls R-GUARD accepts as dominating membership/structure validation.
VALIDATORS: FrozenSet[str] = frozenset(
    {
        "validate",
        "_require_valid",
        "_require_elements",
        "validate_batch",
        "validate_request",
        "is_element",
        "chain_set_flaw",
        "verify_bit_proofs_or_abort",
    }
)

#: Modules allowed to touch ``random``/``secrets`` directly.  The
#: checkpoint module draws its master key from ``os.urandom`` — key
#: material must NOT come from the (replayable) protocol RNG streams,
#: and it never influences a transcript.
RNG_ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {"repro.math.rng", "repro.crypto.precompute", "repro.runtime.checkpoint"}
)

#: Module prefixes where float arithmetic is forbidden.
FLOAT_FORBIDDEN_PREFIXES = ("repro.crypto",)
#: repro.math.backend is the arithmetic seam every group bottoms out in:
#: a float sneaking in there would corrupt every transcript at once, and
#: it is deliberately NOT in RNG_ALLOWED_MODULES — backends are
#: deterministic arithmetic only, randomness never crosses the seam.
FLOAT_FORBIDDEN_MODULES: FrozenSet[str] = frozenset(
    {"repro.math.modular", "repro.math.backend"}
)

#: Module whose worker-job evaluators must not touch an RNG.
POOL_MODULE = "repro.runtime.parallel"

#: Module prefixes the protocol state-machine layer (R-PROTO) extracts
#: ``send``/``broadcast``/``recv`` message tags from.  Baseline
#: protocols (``repro.sharing``, ``repro.baselines``) build tags
#: dynamically and model different papers — they are deliberately out
#: of scope.
PROTOCOL_MODULE_PREFIXES = ("repro.core", "repro.sharding")

#: Module prefix of the socket transport; frame-kind extraction and the
#: async-discipline rules (R-ASYNC, R-SHARED) apply here.
TRANSPORT_MODULE_PREFIX = "repro.runtime.transport"

#: Dotted-name suffix identifying frame-constant modules: every
#: module-level ``UPPER = <int literal>`` in a ``*.frames`` module is a
#: wire frame kind.
FRAMES_MODULE_SUFFIX = ".frames"

#: Modules whose ``async def`` bodies the R-ASYNC / R-SHARED rules
#: check: the transport prefix plus the worker-pool module.
ASYNC_SCOPE_PREFIXES = (TRANSPORT_MODULE_PREFIX, POOL_MODULE)

#: Call names that block the calling thread directly (sleep, sync
#: socket/file IO).  Inside ``async def`` they stall the event loop —
#: liveness PINGs stop being answered and deadlines fire spuriously.
BLOCKING_CALLS: FrozenSet[str] = frozenset(
    {
        "sleep",  # only with a time.* receiver; asyncio.sleep is fine
        "open",
        "fsync",
        "replace",  # os.replace — the atomic-rename half of fsync'd writes
        "read_bytes",
        "write_bytes",
        "read_text",
        "write_text",
        "create_connection",
        "getaddrinfo",
        "run",  # subprocess.run (receiver-checked)
        "check_call",
        "check_output",
    }
)

#: Blocking call names that need a module-ish receiver chain to count
#: (``time.sleep`` blocks; ``asyncio.sleep`` / ``supervisor.run`` do
#: not).  name -> receiver chain member that must be present.
BLOCKING_RECEIVERS: Dict[str, str] = {
    "sleep": "time",
    "replace": "os",  # dataclasses.replace is pure; os.replace blocks
    "run": "subprocess",
    "check_call": "subprocess",
    "check_output": "subprocess",
    "create_connection": "socket",
    "getaddrinfo": "socket",
}

#: Modexp-heavy primitives: any function whose body reaches one of
#: these (resolved through the call summaries) is compute-bound enough
#: to starve the event loop.
HEAVY_CALLS: FrozenSet[str] = frozenset(
    {
        "powmod",
        "powmod_each",
        "mulmod",
        "invert",
        "jacobi",
        "exp",
        "exp_each",
        "exp_generator",
        "multi_exp",
        "small_exp",
        "seal_state",
        "open_state",
    }
)

#: Wrappers that move a call off the event loop; calls inside their
#: argument lists are exempt from the blocking check.
EXECUTOR_WRAPPERS: FrozenSet[str] = frozenset({"run_in_executor", "to_thread"})

#: Task-spawning calls whose result must not be dropped on the floor
#: (a Task GC'd without anyone consuming its exception dies silently).
TASK_SPAWNERS: FrozenSet[str] = frozenset({"create_task", "ensure_future"})

#: Calls that register a ``self.<method>`` reference to run as its own
#: task/callback context.  Each registered method is a *task root* for
#: the R-SHARED single-writer analysis.
TASK_ROOT_REGISTRARS: FrozenSet[str] = frozenset(
    {
        "create_task",
        "ensure_future",
        "call_later",
        "call_soon",
        "call_soon_threadsafe",
        "add_signal_handler",
        "start_server",
        "run_in_executor",
    }
)

#: RNG types/methods a worker body must not reference.
POOL_RNG_NAMES: FrozenSet[str] = frozenset({"SystemRNG", "SeededRNG", "Random"})
POOL_RNG_METHODS: FrozenSet[str] = frozenset(
    {
        "randbits",
        "randrange",
        "randint",
        "shuffle",
        "permutation",
        "choice",
        "sample_distinct",
        "rand_group_exponent",
        "rand_nonzero",
        "random_exponent",
        "random_nonzero_exponent",
        "fork",
    }
)


@dataclass(frozen=True)
class TaintRegistry:
    """The configurable half of the analysis: sources and sanitizers."""

    global_secret_names: FrozenSet[str] = GLOBAL_SECRET_NAMES
    scoped_secret_names: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(SCOPED_SECRET_NAMES)
    )
    sanitizers: FrozenSet[str] = SANITIZERS

    def secret_names_for(self, module: str) -> Set[str]:
        """All registry source names in force for a dotted module name."""
        names = set(self.global_secret_names)
        for prefix, scoped in self.scoped_secret_names.items():
            if module == prefix or module.startswith(prefix + "."):
                names.update(scoped)
        return names


def default_registry() -> TaintRegistry:
    return TaintRegistry()
