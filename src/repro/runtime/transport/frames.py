"""Frame protocol for the loopback TCP deployment transport.

Everything on a transport connection is a length-prefixed frame::

    4-byte big-endian body length | 1-byte frame type | body

Control frames (handshake, supervision, shutdown) carry JSON bodies —
small, debuggable with ``tcpdump``, and never on the accounting path.
Protocol messages (:data:`MSG`) carry a JSON routing header, a newline,
and then the **v2-encoded payload bytes verbatim**: the byte stream a
receiver decodes is exactly the stream the sender's wire codec produced
and metered, so per-channel payload digests agree between the lockstep
engine and the socket transport by construction.  The JSON header and
the TCP/frame overhead are deployment scaffolding, the analogue of the
IP/TCP headers under a real secure channel; accounted wire bytes remain
the v2 payload-plus-AEAD-envelope model from
:mod:`repro.runtime.channels`.

Bootstrap (:data:`SPEC`) and end-of-run result (:data:`DONE`) bodies are
pickles: they cross a same-machine loopback socket guarded by the
session-token handshake, carry party inputs/outputs (which are the
protocol's own secrets, not new leakage — each party receives only its
own), and never touch disk.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.errors import ProtocolError

# -- frame types -------------------------------------------------------------

HELLO = 1          # party -> coord: {party, token, incarnation}
WELCOME = 2        # coord -> party: {ok, attempt}
SPEC = 3           # coord -> party: pickled PartySpec
MSG = 4            # routed protocol message: json header \n encoded bytes
STATUS = 5         # party -> coord: {party, phase, round, waiting_src, waiting_tag}
PHASE = 6          # party -> coord: {party, phase, round}
DONE = 7           # party -> coord: pickled ResultBundle
ABORTED = 8        # party -> coord: {party, blamed, phase, error}
DYING = 9          # party -> coord: fault-injected death notice {party, restart, phase, metrics}
READY = 10         # rejoined party -> coord: {party, incarnation, watermarks}
PEER_REJOINED = 11 # coord -> parties: {party, incarnation, watermarks}
RESEND = 12        # out-of-band redelivery after a rejoin: pickled message dict
ABORT = 13         # coord -> parties: {blamed, phase, kind, error}
SHUTDOWN = 14      # coord -> parties: clean end of run
HARVEST = 15       # coord -> parties: report your beta before teardown
BETA = 16          # party -> coord: {party, beta}
BYE = 19           # party -> coord: graceful signal shutdown {party, reason}

_HEADER = struct.Struct(">IB")
#: Upper bound on a frame body; a 64-bit DL run at n=16 stays well under
#: a megabyte per frame, so this only guards against stream corruption.
MAX_FRAME = 256 * 1024 * 1024


class TransportError(ProtocolError):
    """A transport connection violated the frame protocol."""


def pack_frame(ftype: int, body: bytes) -> bytes:
    if len(body) > MAX_FRAME:
        raise TransportError(f"frame body of {len(body)} bytes exceeds cap")
    return _HEADER.pack(len(body), ftype) + body


def pack_json(ftype: int, payload: Dict[str, Any]) -> bytes:
    return pack_frame(ftype, json.dumps(payload, sort_keys=True).encode())


def pack_pickle(ftype: int, payload: Any) -> bytes:
    return pack_frame(ftype, pickle.dumps(payload))


def decode_json(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise TransportError("unparseable control frame") from exc
    if not isinstance(payload, dict):
        raise TransportError("control frame body is not an object")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame; raises ``asyncio.IncompleteReadError`` at EOF."""
    header = await reader.readexactly(_HEADER.size)
    length, ftype = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds cap")
    body = await reader.readexactly(length) if length else b""
    return ftype, body


# -- MSG bodies --------------------------------------------------------------

def pack_msg(header: Dict[str, Any], encoded: bytes) -> bytes:
    return pack_frame(
        MSG, json.dumps(header, sort_keys=True).encode() + b"\n" + encoded
    )


def split_msg(body: bytes) -> Tuple[Dict[str, Any], bytes]:
    head, sep, encoded = body.partition(b"\n")
    if not sep:
        raise TransportError("MSG frame missing header separator")
    return decode_json(head), encoded


# -- bootstrap / result payloads --------------------------------------------

@dataclass
class TransportSettings:
    """Wall-clock knobs for one distributed run (picklable, shipped in
    every party's spec so both ends agree on pacing)."""

    #: Supervisor deadline in seconds without progress, the wall-clock
    #: counterpart of the in-process supervisor's ``timeout_rounds``.
    timeout_s: float = 10.0
    #: Coordinator supervision tick.
    tick_s: float = 0.25
    #: Wall-clock seconds one in-engine "delay round" maps to for the
    #: fault shim's ``delay`` kind.
    round_s: float = 0.05
    #: Bind address for the coordinator listener.
    host: str = "127.0.0.1"
    port: int = 0


@dataclass
class PartySpec:
    """Everything one party process needs to run its party.

    Built by the coordinator per attempt; contains only *this* party's
    input — the transport never ships one party's secret to another.
    """

    party_id: int
    config: Any                      # FrameworkConfig
    rng: Any                         # this party's forked RNG, positioned at start
    active_ids: List[int]
    attempt: int = 0
    incarnation: int = 0
    run_gain_phase: bool = True      # initiator only
    known_beta: Optional[int] = None # participant phase-2 resume
    initiator_input: Any = None
    participant_input: Any = None
    # Fault shim: specs whose *sender* is this party (crash family,
    # applied at the send point) and specs whose *receiver* is this
    # party (drop/delay/duplicate/corrupt/stall, applied post-decode so
    # channel codec state stays in lockstep — TCP delivers the bytes,
    # the application-level fault eats the message above the codec).
    sender_faults: List[Any] = field(default_factory=list)
    receiver_faults: List[Any] = field(default_factory=list)
    #: True when *any* party in the run has fault specs: like the
    #: engine, a faulted run frames every logical message alone
    #: (retransmits and duplicates need standalone envelopes).
    faulted: bool = False
    fault_seed: int = 0
    #: How many times previous incarnations of this party died to a
    #: sender-side fault: the dying send commits one injector match that
    #: is never journaled, so a rejoin must pre-consume these commits or
    #: a one-shot ``kill_restart`` would re-fire every life.
    prior_fault_deaths: int = 0
    #: A respawn's first-life PartyMetrics, from its DYING frame (None
    #: after a death without one, e.g. SIGKILL): swapped in at the
    #: go-live send, so the rejoined party reports the whole run.
    carried_metrics: Any = None
    settings: TransportSettings = field(default_factory=TransportSettings)


@dataclass
class ResultBundle:
    """One finished party's contribution to the run result."""

    party_id: int
    phase: str
    output: Any = None               # initiator's InitiatorOutput
    rank: Optional[int] = None
    beta: Optional[int] = None
    metrics: Any = None              # PartyMetrics (ops counter included)
    rounds: int = 0                  # the party's local round clock
    # Outbound wire accounting, summed into the run's WireStats:
    wire_counters: Dict[str, int] = field(default_factory=dict)
    wire_by_tag: Dict[str, Dict[str, int]] = field(default_factory=dict)
    channel_digests: Dict[str, str] = field(default_factory=dict)
