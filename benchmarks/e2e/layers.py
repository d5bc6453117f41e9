"""Outside-in layer tracing for the end-to-end ranking benchmark.

:class:`LayerTracer` wraps each layer's public functions from the
benchmark's own files; the program under test is not modified.  A
wrapper goes on the attribute callers actually look up at call time:
module attributes (``backend.powmod``, ``frames.split_msg``) and class
attributes (``DLGroup.exp``, ``Engine.submit``).

Two kinds of record are kept, both in memory until the run ends:

* hot functions are aggregated per layer name: call count, self time
  (duration minus the time covered by wrapped callees) and, for
  ``powmod``, a log-bucket latency histogram for p50/p99;
* coarse spans (party protocol steps, ``submit``, ``process_vector``,
  checkpoint calls, coordinator relays) are also kept whole with name,
  start, end, parent span and party, and written as JSON lines.

Party protocol generators are wrapped in a proxy that splits each
step's wall time into busy time per (phase, role), cut at every
``Party.set_phase``, and the time between steps into wait time,
attributed to the phase the party was in when it yielded.

Only the coordinator side of the tcp transport is traced: party
processes are spawned fresh and run untraced.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Phases and roles the per-layer phase metrics are reported for.
PHASES = ("gain", "keying", "comparison", "chain", "submission")
ROLES = ("initiator", "participant")
#: Histogram resolution: buckets per decade of microseconds.
_BUCKETS_PER_DECADE = 50

clock = time.perf_counter


class _Stat:
    __slots__ = ("calls", "self_s", "histogram")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.histogram: Optional[Dict[int, int]] = None

    def quantile_us(self, q: float) -> float:
        """The ``q`` quantile of recorded durations, in microseconds."""
        if not self.histogram:
            return 0.0
        rank = q * sum(self.histogram.values())
        seen = 0
        for bucket in sorted(self.histogram):
            seen += self.histogram[bucket]
            if seen >= rank:
                return 10.0 ** (bucket / _BUCKETS_PER_DECADE)
        return 0.0


class _PhaseProxy:
    """Stands in for one party's ``protocol()`` generator, with the
    three operations the engine uses on it."""

    def __init__(self, tracer: "LayerTracer", party: Any, generator: Any,
                 role: str):
        self.tracer = tracer
        self.party = party
        self.role = role
        self.generator = generator
        self.segment_start = 0.0
        self.yielded_at: Optional[float] = None
        self.yield_phase = ""

    def __next__(self):
        return self.tracer._step(self, None)

    def send(self, value):
        return self.tracer._step(self, value)

    def close(self) -> None:
        self.generator.close()


class LayerTracer:
    """Aggregated per-layer stats plus coarse spans for one run."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.spans: List[list] = []      # [name, start, end, parent, party]
        self.phase_s: Dict[tuple, float] = defaultdict(float)
        self.parties: Dict[str, set] = defaultdict(set)
        self.encoded_bytes = 0
        self.read_wait_s = 0.0
        self.relayed_bytes = 0
        self.first_msg_at: Optional[float] = None
        self.started_at = 0.0
        self._stack: List[float] = []    # child time of each open call
        self._open_spans: List[int] = []
        self._active: Optional[_PhaseProxy] = None
        self._patches: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer; :meth:`uninstall` restores them."""
        from repro.core.comparison import HomomorphicComparator
        from repro.core.parties import InitiatorParty, ParticipantParty
        from repro.core.shuffle import ShuffleProcessor
        from repro.crypto import elgamal, zkp
        from repro.crypto.bitenc import BitwiseElGamal
        from repro.crypto.distkey import DistributedKey
        from repro.dotproduct.ioannidis import DotProductProtocol
        from repro.groups.dl import DLGroup
        from repro.math import backend
        from repro.runtime.channels import WireTransport
        from repro.runtime.checkpoint import CheckpointManager
        from repro.runtime.engine import Engine
        from repro.runtime.party import Party
        from repro.runtime.transport import coordinator, frames
        from repro.runtime.wire import WireCodecV2

        leaves = [
            (backend, "powmod", "math.backend.powmod"),
            (backend, "mulmod", "math.backend.mulmod"),
            (backend, "jacobi", "math.backend.jacobi"),
            (DLGroup, "exp", "groups.dl.exp"),
            (DLGroup, "mul", "groups.dl.mul"),
            (DLGroup, "is_element", "groups.dl.is_element"),
            (DLGroup, "deserialize", "groups.dl.deserialize"),
            (elgamal.ElGamal, "encrypt", "crypto.elgamal.encrypt"),
            (elgamal.ExponentialElGamal, "encrypt", "crypto.elgamal.encrypt"),
            (BitwiseElGamal, "encrypt", "crypto.bitenc.encrypt"),
            (zkp.SchnorrProof, "verify", "crypto.zkp.verify"),
            (zkp.NonInteractiveSchnorrProof, "verify", "crypto.zkp.verify"),
            (DistributedKey, "peel_layer", "crypto.distkey.peel_layer"),
            # The chain rerandomizes through the distributed key; every
            # path ends in this call, so each counts once.
            (DistributedKey, "rerandomize_with_exponent",
             "crypto.distkey.rerandomize"),
            (DotProductProtocol, "bob_request", "dotproduct.ioannidis"),
            (DotProductProtocol, "alice_respond", "dotproduct.ioannidis"),
            (DotProductProtocol, "bob_recover", "dotproduct.ioannidis"),
            (HomomorphicComparator, "encrypted_taus",
             "core.comparison.encrypted_taus"),
            (WireTransport, "prepare", "runtime.channels.prepare"),
            (WireTransport, "finalize", "runtime.channels.finalize"),
            (WireCodecV2, "decode", "runtime.wire.WireCodecV2.decode"),
            (frames, "split_msg", "runtime.transport.split_msg"),
            (frames, "pack_frame", "runtime.transport.pack_frame"),
        ]
        for owner, attr, name in leaves:
            self._patch(owner, attr, self._leaf(
                self._original(owner, attr), self._stat(name),
                histogram=attr == "powmod",
            ))

        def count_encoded(args, encoded):
            self.encoded_bytes += len(encoded)

        self._patch(WireCodecV2, "encode", self._leaf(
            self._original(WireCodecV2, "encode"),
            self._stat("runtime.wire.WireCodecV2.encode"),
            after=count_encoded,
        ))

        def count_relayed(args):
            # _route_msg(attempt, connection, header, body)
            if self.first_msg_at is None:
                self.first_msg_at = clock()
            self.relayed_bytes += len(args[3])

        spans = [
            (ShuffleProcessor, "process_vector", "core.shuffle.process_vector",
             None, None),
            (Engine, "submit", "runtime.engine.submit", lambda a: a[1], None),
            (CheckpointManager, "journal_send", "runtime.checkpoint.journal_send",
             lambda a: a[1].src, None),
            (CheckpointManager, "journal_receive",
             "runtime.checkpoint.journal_receive", lambda a: a[1], None),
            (CheckpointManager, "snapshot_party",
             "runtime.checkpoint.snapshot_party", lambda a: a[1].party_id, None),
            (CheckpointManager, "restore_party",
             "runtime.checkpoint.restore_party", lambda a: a[1], None),
            (coordinator._Attempt, "_route_msg", "runtime.transport.relay",
             lambda a: int(a[2]["src"]), count_relayed),
        ]
        for owner, attr, name, party_of, before in spans:
            self._patch(owner, attr, self._span(
                self._original(owner, attr), self._stat(name), name, party_of,
                before=before,
            ))
        self._wrap_read_frame(frames)
        for party_class, role in ((InitiatorParty, "initiator"),
                                  (ParticipantParty, "participant")):
            self._wrap_protocol(party_class, role)
        self._wrap_set_phase(Party)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start(self) -> None:
        """Mark the start of the traced run (the origin of span times)."""
        self.started_at = clock()

    @staticmethod
    def _original(owner: Any, attr: str) -> Callable:
        # A class attribute is taken from the defining class's own dict:
        # getattr would hand back an inherited (or already bound) object.
        if isinstance(owner, type):
            return owner.__dict__[attr]
        return getattr(owner, attr)

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, replacement)

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    # -- wrappers -----------------------------------------------------------

    def _leaf(self, fn: Callable, stat: _Stat, *, histogram: bool = False,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        if histogram:
            stat.histogram = defaultdict(int)
        buckets = stat.histogram

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if buckets is not None and elapsed > 0:
                    buckets[round(_BUCKETS_PER_DECADE
                                  * math.log10(elapsed * 1e6))] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _span(self, fn: Callable, stat: _Stat, name: str,
              party_of: Optional[Callable], *,
              before: Optional[Callable] = None) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            party = party_of(args) if party_of is not None else self._party()
            span = self._open_span(name, party)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._close_span(span, end)

        return wrapper

    def _open_span(self, name: str, party: Optional[int]) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([name, clock(), None, parent, party])
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, span: int, end: float) -> None:
        self.spans[span][2] = end
        self._open_spans.pop()

    def _party(self) -> Optional[int]:
        return self._active.party.party_id if self._active is not None else None

    def _wrap_read_frame(self, frames: Any) -> None:
        # A coroutine suspends mid-call, so it cannot share the call
        # stack: its awaited time is summed over all open connections.
        original = self._original(frames, "read_frame")

        async def read_frame(reader):
            start = clock()
            try:
                return await original(reader)
            finally:
                self.read_wait_s += clock() - start

        self._patch(frames, "read_frame", read_frame)

    def _wrap_protocol(self, party_class: Any, role: str) -> None:
        original = self._original(party_class, "protocol")

        def protocol(party):
            self.parties[role].add(party.party_id)
            return _PhaseProxy(self, party, original(party), role)

        self._patch(party_class, "protocol", protocol)

    def _wrap_set_phase(self, party_class: Any) -> None:
        original = self._original(party_class, "set_phase")

        def set_phase(party, phase):
            active = self._active
            if active is not None and active.party is party:
                now = clock()
                self.phase_s[(party.phase, active.role, "busy")] += (
                    now - active.segment_start
                )
                active.segment_start = now
            return original(party, phase)

        self._patch(party_class, "set_phase", set_phase)

    def _step(self, proxy: _PhaseProxy, value: Any):
        """Advance the party's generator by one step, timing it."""
        start = clock()
        role = proxy.role
        if proxy.yielded_at is not None:
            self.phase_s[(proxy.yield_phase, role, "wait")] += (
                start - proxy.yielded_at
            )
        outer = self._active
        self._active = proxy
        proxy.segment_start = start
        span = self._open_span(f"phase.{proxy.party.phase}.{role}",
                               proxy.party.party_id)
        self._stack.append(0.0)
        try:
            return proxy.generator.send(value)
        finally:
            end = clock()
            phase = proxy.party.phase
            self.phase_s[(phase, role, "busy")] += end - proxy.segment_start
            proxy.yielded_at = end
            proxy.yield_phase = phase
            self._stack.pop()
            if self._stack:
                self._stack[-1] += end - start
            self._close_span(span, end)
            self._active = outer

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics this tracer measures, keyed by metric name.

        Participant ``busy_s`` sums over participants (in process, the
        parties' busy times add up to the ranking); ``wait_s`` is the
        mean per party of the role."""
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
        powmod = self.stats["math.backend.powmod"]
        out["math.backend.powmod.p50_us"] = powmod.quantile_us(0.50)
        out["math.backend.powmod.p99_us"] = powmod.quantile_us(0.99)
        for phase in PHASES:
            for role in ROLES:
                parties = max(1, len(self.parties[role]))
                prefix = f"core.phase.{phase}.{role}"
                out[f"{prefix}.busy_s"] = self.phase_s[(phase, role, "busy")]
                out[f"{prefix}.wait_s"] = (
                    self.phase_s[(phase, role, "wait")] / parties
                )
        out["runtime.wire.encode.bytes"] = self.encoded_bytes
        out["runtime.transport.read_frame.wait_s"] = self.read_wait_s
        out["runtime.transport.relayed_bytes"] = self.relayed_bytes
        out["runtime.transport.first_msg_s"] = (
            self.first_msg_at - self.started_at
            if self.first_msg_at is not None else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """Coarse spans as JSON lines, times in seconds from :meth:`start`."""
        origin = self.started_at
        with open(path, "w") as handle:
            for index, (name, start, end, parent, party) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name,
                    "start": start - origin,
                    "end": (end if end is not None else start) - origin,
                    "parent": parent, "party": party,
                }) + "\n")
