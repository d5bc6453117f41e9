"""Rule catalogue and the finding record every layer emits."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class Rule:
    """One checkable property, with a stable ID findings refer to."""

    id: str
    layer: str  # "taint" or "invariant"
    title: str
    rationale: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in [
        Rule(
            id="R-TAINT-LOG",
            layer="taint",
            title="secret value reaches a logging/print sink",
            rationale=(
                "A secret written to a log line leaves the party in"
                " plaintext; logs are not part of any proof's view."
            ),
        ),
        Rule(
            id="R-TAINT-EXC",
            layer="taint",
            title="secret value interpolated into an exception message",
            rationale=(
                "Exception messages cross trust boundaries (blame"
                " reports, test output, operator consoles); redact"
                " values, keep party ids."
            ),
        ),
        Rule(
            id="R-TAINT-TRANSCRIPT",
            layer="taint",
            title="secret value recorded into Transcript/PartyMetrics",
            rationale=(
                "Transcripts and metrics are exported for analysis and"
                " replay; only sizes, tags, and counts belong there."
            ),
        ),
        Rule(
            id="R-TAINT-WIRE",
            layer="taint",
            title="secret value passed to a wire encode path",
            rationale=(
                "Everything given to the wire codec is serialized and"
                " leaves the party; secrets must be encrypted first."
            ),
        ),
        Rule(
            id="R-TAINT-CKPT",
            layer="taint",
            title="secret value written to a checkpoint store unsealed",
            rationale=(
                "Checkpoint files survive the process and the run;"
                " record bodies must pass through seal_state"
                " (encrypt-then-MAC) before any store write, so durable"
                " state never holds plaintext secrets."
            ),
        ),
        Rule(
            id="R-TAINT-REPR",
            layer="taint",
            title="secret value exposed through __repr__/__str__",
            rationale=(
                "Auto-generated dataclass reprs (and hand-written"
                " __repr__) end up in logs and assertion messages;"
                " secret fields need repr=False."
            ),
        ),
        Rule(
            id="R-RNG",
            layer="invariant",
            title="direct random/secrets/time-seeded randomness",
            rationale=(
                "All protocol randomness flows through repro.math.rng"
                " so runs are reproducible and draws are CSPRNG-backed;"
                " ad-hoc random/secrets/time seeding bypasses both."
            ),
        ),
        Rule(
            id="R-GUARD",
            layer="invariant",
            title="decrypt/rerandomize not dominated by a membership check",
            rationale=(
                "Operating on elements outside the prime-order subgroup"
                " silently yields garbage plaintexts and can leak key"
                " bits via small-subgroup confinement."
            ),
        ),
        Rule(
            id="R-POOL",
            layer="invariant",
            title="RNG touched inside a parallel worker job",
            rationale=(
                "Workers must consume only pre-drawn pool randomness so"
                " serial and parallel runs produce byte-identical"
                " transcripts."
            ),
        ),
        Rule(
            id="R-FLOAT",
            layer="invariant",
            title="float arithmetic in crypto/modular code",
            rationale=(
                "Group and field arithmetic is exact; a float (or true"
                " division) silently rounds and breaks soundness."
            ),
        ),
        Rule(
            id="R-EXCEPT",
            layer="invariant",
            title="broad except swallowing blamed aborts",
            rationale=(
                "A bare/Exception-wide handler that does not re-raise"
                " can eat a blamed ProtocolAbort and let a run continue"
                " on unvalidated data."
            ),
        ),
        Rule(
            id="R-PICKLE",
            layer="invariant",
            title="pickle load outside the allow-list",
            rationale=(
                "Unpickling bytes that crossed a socket runs whatever"
                " code they name; peer bytes go through a total decoder"
                " (the v2 wire codec), and each remaining load is waived"
                " inline with its reason."
            ),
        ),
        Rule(
            id="R-PROTO",
            layer="protocol",
            title="implemented message graph drifts from the declared spec",
            rationale=(
                "A tag or frame kind sent but never handled (or handled"
                " but never sent), sent under the wrong phase, or absent"
                " from the spec means the parties no longer follow the"
                " paper's phase-ordered message flow — a correctness and"
                " privacy bug class, not just dead code."
            ),
        ),
        Rule(
            id="R-CODEC",
            layer="protocol",
            title="wire-codec encode/decode asymmetry",
            rationale=(
                "A value encoded with no decode path (or a registry entry"
                " the v2 codec cannot cover) is a silent interop break"
                " between the lockstep engine and the socket transport;"
                " both ends must agree byte-for-byte for the transcript"
                " equivalence guarantee to hold."
            ),
        ),
        Rule(
            id="R-ASYNC",
            layer="async",
            title="event-loop blocking or dropped coroutine/task",
            rationale=(
                "A blocking call (sleep, sync IO, modexp-heavy crypto)"
                " inside async def stalls frame routing and deadlines for"
                " every party on the loop; an unawaited coroutine or dropped"
                " Task silently never runs or eats its own exception."
            ),
        ),
        Rule(
            id="R-SHARED",
            layer="async",
            title="coordinator/host state written from multiple task roots",
            rationale=(
                "The event loop serializes callbacks, not logical writes:"
                " two tasks assigning the same instance attribute race"
                " last-writer-wins across awaits; shared flags must"
                " funnel through a single writer method."
            ),
        ),
    ]
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    The fingerprint deliberately excludes line numbers so edits
    elsewhere in a file do not churn the committed baseline.
    """

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    symbol: str  # enclosing function/class qualname, or "<module>"
    message: str
    snippet: str = ""
    end_line: Optional[int] = field(default=None, compare=False)

    @property
    def fingerprint(self) -> str:
        normalized = " ".join(self.snippet.split())
        payload = f"{self.rule}|{self.path}|{self.symbol}|{normalized}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.symbol}] {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }
