"""Durable per-party protocol state: crash-safe checkpoints and rejoin.

The engine keeps every party's phase state in memory, so a killed
process used to be unrecoverable: the framework could only *blame* it
and restart the attempt over the survivors.  This module makes a kill
survivable.  Each party's state is persisted as it runs —

* an **init record** pinning the party's RNG starting state,
* a **journal** of every message it consumed (full payload) and every
  message it sent (header only), appended at the engine's send/receive
  boundaries, and
* **phase-boundary snapshots** carrying the recovered β value, the
  distributed-key share, the shuffle-chain position and the round
  watermark,

all under one attempt-scoped directory per party.  A killed-and-
restarted party is rebuilt from the newest usable snapshot (or from its
init record) and *replayed*: journaled receives are fed back, journaled
sends are suppressed, and the rebuilt generator comes out parked at the
exact point the process died — the rest of the run cannot tell the
difference, which is what keeps restored runs transcript-equivalent to
uninterrupted ones (fingerprints, wire digests, op counts).

Durability discipline:

* appends are length-framed and flushed per record; a torn tail (a
  crash mid-append) is detected and truncated on read, WAL-style;
* snapshots are written atomically (tmp file, flush, fsync, rename);
* journals are fsynced at phase boundaries (each snapshot, and a
  rejoin marker), so the unsynced window is at most one phase.

Secrecy discipline: record *bodies* are sealed with
:func:`seal_state` — encrypt-then-MAC under a per-(party, attempt) key
derived from a per-directory master key — before touching the store, so
checkpoint files never contain plaintext secrets.  The lint taint layer
treats ``seal_state`` as a sanitizer and the store's ``write_*`` /
``append_*`` / ``persist_*`` methods as sinks, making "secret written
to disk unsealed" a statically checkable violation (R-TAINT-CKPT).
Plaintext record headers carry only routing metadata (tags, party ids,
rounds, cursors) — never payload values.  Nonces are deterministic
per-record sequence numbers: unique under each derived key, and drawn
from no RNG so checkpointing cannot perturb a protocol transcript.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.channels import Message
from repro.runtime.errors import ProtocolError

MASTER_KEY_BYTES = 32
NONCE_BYTES = 16
MAC_BYTES = 32
MAGIC = b"RCKP1\n"

#: Snapshot phase a participant can re-enter phase 2 from: taken right
#: after β is fixed and *before* the key-share draw, so ``known_beta`` +
#: the snapshotted RNG state reproduce the party exactly.
ENTRY_PHASE = "keying"


class CheckpointError(ProtocolError):
    """A checkpoint record is missing, torn beyond repair, tampered
    with, or inconsistent with a deterministic re-execution."""


# ---------------------------------------------------------------------------
# Sealed record bodies (encrypt-then-MAC; the lint layer's sanitizer)
# ---------------------------------------------------------------------------

def _record_keys(key: bytes) -> Tuple[bytes, bytes]:
    enc_key = hmac.new(key, b"repro-ckpt-enc", hashlib.sha256).digest()
    mac_key = hmac.new(key, b"repro-ckpt-mac", hashlib.sha256).digest()
    return enc_key, mac_key


def _xor_stream(enc_key: bytes, nonce: bytes, data: bytes) -> bytes:
    if not data:
        return b""
    # One XOF call + one bigint XOR: SHAKE-256 keystream without a
    # per-block python loop, so sealing stays off the hot path's back.
    stream = hashlib.shake_256(enc_key + nonce).digest(len(data))
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def seal_state(key: bytes, plaintext: bytes, *, nonce: bytes,
               aad: bytes = b"") -> bytes:
    """Seal a record body for disk: ``nonce || mac || ciphertext``.

    SHAKE-256(enc_key || nonce) keystream over the body, then
    HMAC-SHA256 over ``len(aad) || aad || nonce || ciphertext`` — the
    plaintext header framing each record rides along as associated
    data, so header tampering is detected even for empty bodies.
    """
    if len(nonce) != NONCE_BYTES:
        raise CheckpointError(f"nonce must be {NONCE_BYTES} bytes")
    enc_key, mac_key = _record_keys(key)
    sealed_body = _xor_stream(enc_key, nonce, plaintext)
    mac = hmac.new(
        mac_key,
        len(aad).to_bytes(8, "big") + aad + nonce + sealed_body,
        hashlib.sha256,
    ).digest()
    return nonce + mac + sealed_body


def open_state(key: bytes, token: bytes, *, aad: bytes = b"") -> bytes:
    """Verify and decrypt a :func:`seal_state` token (MAC first)."""
    if len(token) < NONCE_BYTES + MAC_BYTES:
        raise CheckpointError("sealed record too short")
    nonce = token[:NONCE_BYTES]
    mac = token[NONCE_BYTES:NONCE_BYTES + MAC_BYTES]
    sealed_body = token[NONCE_BYTES + MAC_BYTES:]
    enc_key, mac_key = _record_keys(key)
    expected = hmac.new(
        mac_key,
        len(aad).to_bytes(8, "big") + aad + nonce + sealed_body,
        hashlib.sha256,
    ).digest()
    if not hmac.compare_digest(mac, expected):
        raise CheckpointError("checkpoint record failed its integrity check")
    return _xor_stream(enc_key, nonce, sealed_body)


def _nonce(seq: int) -> bytes:
    return seq.to_bytes(NONCE_BYTES, "big")


# ---------------------------------------------------------------------------
# Crash-safe on-disk store
# ---------------------------------------------------------------------------

def _pack_record(header: bytes, body: bytes) -> bytes:
    return (
        len(header).to_bytes(4, "big") + header
        + len(body).to_bytes(4, "big") + body
    )


def _iter_records(blob: bytes, offset: int):
    """Parse length-framed records; stop (silently) at a torn tail."""
    while offset < len(blob):
        if offset + 4 > len(blob):
            return
        header_len = int.from_bytes(blob[offset:offset + 4], "big")
        header_end = offset + 4 + header_len
        if header_end + 4 > len(blob):
            return
        body_len = int.from_bytes(blob[header_end:header_end + 4], "big")
        body_end = header_end + 4 + body_len
        if body_end > len(blob):
            return
        yield blob[offset + 4:header_end], blob[header_end + 4:body_end]
        offset = body_end


class CheckpointStore:
    """Versioned per-attempt, per-party record store under one root.

    Layout: ``<root>/checkpoint.key`` (master key, created once, mode
    0600) and ``<root>/attempt-NNNN/party-NNNN/`` holding ``journal.log``
    (append-only, magic-prefixed, torn-tail tolerant) plus atomic
    ``snap-<seq>.ckpt`` files.  All record bodies arrive pre-sealed;
    the store never sees plaintext state.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._journals: Dict[Tuple[int, int], Any] = {}

    # -- key material ------------------------------------------------------

    def master_key(self) -> bytes:
        """Load (or create, once, atomically) this store's master key."""
        path = self.root / "checkpoint.key"
        if path.exists():
            data = path.read_bytes()
            if len(data) != MASTER_KEY_BYTES:
                raise CheckpointError("malformed checkpoint.key")
            return data
        material = os.urandom(MASTER_KEY_BYTES)
        tmp = path.with_name(path.name + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "wb") as handle:
            handle.write(material)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return material

    # -- paths -------------------------------------------------------------

    def _party_dir(self, attempt: int, party_id: int) -> Path:
        return self.root / f"attempt-{attempt:04d}" / f"party-{party_id:04d}"

    def attempts(self) -> List[int]:
        found = []
        for child in self.root.glob("attempt-*"):
            if not child.is_dir():
                continue
            try:
                found.append(int(child.name.split("-", 1)[1]))
            except ValueError:
                continue
        return sorted(found)

    # -- journal (append-only WAL) ----------------------------------------

    def _journal_handle(self, attempt: int, party_id: int):
        key = (attempt, party_id)
        handle = self._journals.get(key)
        if handle is None:
            directory = self._party_dir(attempt, party_id)
            directory.mkdir(parents=True, exist_ok=True)
            handle = (directory / "journal.log").open("ab")
            if handle.tell() == 0:
                handle.write(MAGIC)
            self._journals[key] = handle
        return handle

    def append_record(self, attempt: int, party_id: int,
                      header: bytes, sealed: bytes) -> None:
        """Append one pre-sealed record; flushed so same-process readers
        (rejoin) always see it, fsynced separately via sync_journal."""
        handle = self._journal_handle(attempt, party_id)
        handle.write(_pack_record(header, sealed))
        handle.flush()

    def sync_journal(self, attempt: int, party_id: int) -> None:
        handle = self._journals.get((attempt, party_id))
        if handle is not None:
            os.fsync(handle.fileno())

    def read_journal(self, attempt: int,
                     party_id: int) -> List[Tuple[bytes, bytes]]:
        path = self._party_dir(attempt, party_id) / "journal.log"
        if not path.exists():
            return []
        blob = path.read_bytes()
        if not blob.startswith(MAGIC):
            raise CheckpointError(f"bad journal magic in {path.name}")
        # A crash mid-append leaves a torn tail; _iter_records stops at
        # the last complete record (WAL semantics), losing only the
        # record that never finished hitting the disk.
        return list(_iter_records(blob, len(MAGIC)))

    # -- snapshots (atomic write-rename) ----------------------------------

    def write_snapshot(self, attempt: int, party_id: int, seq: int,
                       header: bytes, sealed: bytes) -> None:
        directory = self._party_dir(attempt, party_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"snap-{seq:08d}.ckpt"
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(MAGIC)
            handle.write(_pack_record(header, sealed))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        if hasattr(os, "O_DIRECTORY"):
            dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def read_snapshots(self, attempt: int,
                       party_id: int) -> List[Tuple[bytes, bytes]]:
        """All complete snapshots for a party, in sequence order."""
        directory = self._party_dir(attempt, party_id)
        out = []
        for path in sorted(directory.glob("snap-*.ckpt")):
            blob = path.read_bytes()
            if not blob.startswith(MAGIC):
                continue
            records = list(_iter_records(blob, len(MAGIC)))
            if records:
                out.append(records[0])
        return out

    def close(self) -> None:
        while self._journals:
            _, handle = self._journals.popitem()
            handle.close()


# ---------------------------------------------------------------------------
# Manager: protocol-aware layer the engine and framework talk to
# ---------------------------------------------------------------------------

@dataclass
class RejoinPlan:
    """Everything the engine needs to bring a killed party back.

    ``received`` / ``sends`` drive the deterministic replay: the rebuilt
    generator is fed ``received`` in order while its re-issued sends are
    checked off against ``sends``; the first send past the journal is
    the death point, where the party goes live.  ``entry`` records where
    the rebuild started (``"start"`` = init record, ``"keying"`` = the
    phase-2 boundary snapshot), ``watermark`` the highest durable round.
    """

    party: Any
    entry: str
    received: List[Message] = field(default_factory=list)
    sends: Deque[Tuple[int, str]] = field(default_factory=deque)
    round: int = 0
    watermark: int = 0


class CheckpointManager:
    """Journals, snapshots and rejoin plans for one framework run.

    One instance spans all attempts of a run; ``start_attempt`` binds
    the current attempt number and the party factory used to rebuild
    killed parties.  All state handed over by parties is pickled and
    sealed here — this class is the one place checkpoint secrecy is
    enforced, which is why its store calls are lint taint sinks and
    :func:`seal_state` is the registered sanitizer between them.
    """

    def __init__(self, directory) -> None:
        self._store = CheckpointStore(directory)
        self._master = self._store.master_key()
        self.attempt = 0
        self.rejoined: Dict[int, int] = {}
        self._factory: Optional[Callable[..., Any]] = None
        self._keys: Dict[Tuple[int, int], bytes] = {}
        self._seq: Dict[int, int] = {}
        self._rx: Dict[int, int] = {}
        self._tx: Dict[int, int] = {}
        self._round = 0

    # -- attempt lifecycle -------------------------------------------------

    def start_attempt(self, attempt: int,
                      party_factory: Callable[..., Any]) -> None:
        """Bind the attempt directory and the rebuild factory.

        ``party_factory(party_id)`` must construct the party exactly as
        the attempt's initial construction did (same RNG fork labels);
        ``party_factory(party_id, beta)`` the phase-2 resume variant.
        """
        self.attempt = attempt
        self._factory = party_factory
        self._seq.clear()
        self._rx.clear()
        self._tx.clear()
        self._round = 0

    def resume_attempt(self, attempt: int, party_factory: Callable[..., Any],
                       party_ids: List[int]) -> None:
        """Re-bind an attempt from a *new process* (the socket
        transport's kill-and-rejoin path).

        Unlike :meth:`start_attempt` — which begins a fresh attempt with
        zeroed counters — this fast-forwards the per-party sequence,
        receive and send counters from the durable journal, so records
        appended by the rejoined process continue the existing sequences
        instead of reusing seal nonces or overwriting snapshot files.
        """
        self.attempt = attempt
        self._factory = party_factory
        for pid in party_ids:
            seq = rx = tx = 0
            for header, _ in self._decoded_journal(pid):
                seq = max(seq, int(header.get("seq", -1)) + 1)
                self._round = max(self._round, int(header.get("round", 0)))
                kind = header.get("kind")
                if kind == "recv":
                    rx += 1
                elif kind == "send":
                    tx += 1
            for header, _ in self._decoded_snapshots(pid):
                seq = max(seq, int(header.get("seq", -1)) + 1)
            self._seq[pid] = seq
            self._rx[pid] = rx
            self._tx[pid] = tx

    def register_party(self, party: Any) -> None:
        """Pin a freshly constructed party's RNG start in an init record
        so a pre-snapshot kill can still be replayed from round zero."""
        pid = party.party_id
        self._rx[pid] = 0
        self._tx[pid] = 0
        state = party.snapshot_state() if hasattr(party, "snapshot_state") else {}
        body = pickle.dumps({"rng_state": state.get("rng_state")})
        self._append(pid, "init", {"round": 0}, body)

    def close(self) -> None:
        self._store.close()

    # -- record plumbing ---------------------------------------------------

    def _key_for(self, party_id: int, attempt: Optional[int] = None) -> bytes:
        a = self.attempt if attempt is None else attempt
        cached = self._keys.get((a, party_id))
        if cached is None:
            label = f"attempt-{a}|party-{party_id}".encode()
            cached = hmac.new(self._master, label, hashlib.sha256).digest()
            self._keys[(a, party_id)] = cached
        return cached

    def _append(self, party_id: int, kind: str, extra: Dict[str, Any],
                body: bytes) -> int:
        seq = self._seq.get(party_id, 0)
        self._seq[party_id] = seq + 1
        header = {"v": 1, "kind": kind, "party": party_id, "seq": seq}
        header.update(extra)
        header_bytes = json.dumps(header, sort_keys=True).encode()
        sealed = seal_state(
            self._key_for(party_id), body, nonce=_nonce(seq), aad=header_bytes
        )
        self._store.append_record(self.attempt, party_id, header_bytes, sealed)
        return seq

    @staticmethod
    def _parse_header(header_bytes: bytes) -> Dict[str, Any]:
        try:
            header = json.loads(header_bytes.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError("unparseable checkpoint header") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not an object")
        return header

    def _decoded_journal(
        self, party_id: int, attempt: Optional[int] = None
    ) -> List[Tuple[Dict[str, Any], Any]]:
        a = self.attempt if attempt is None else attempt
        record_key = self._key_for(party_id, a)
        out = []
        for header_bytes, sealed in self._store.read_journal(a, party_id):
            header = self._parse_header(header_bytes)
            plain = open_state(record_key, sealed, aad=header_bytes)
            # repro-lint: ignore[R-PICKLE] -- sealed record: open_state
            # verified its HMAC tag under this run's key first.
            out.append((header, pickle.loads(plain) if plain else None))
        return out

    def _decoded_snapshots(
        self, party_id: int, attempt: Optional[int] = None
    ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        a = self.attempt if attempt is None else attempt
        record_key = self._key_for(party_id, a)
        out = []
        for header_bytes, sealed in self._store.read_snapshots(a, party_id):
            header = self._parse_header(header_bytes)
            plain = open_state(record_key, sealed, aad=header_bytes)
            # repro-lint: ignore[R-PICKLE] -- sealed record: open_state
            # verified its HMAC tag under this run's key first.
            state = pickle.loads(plain) if plain else {}
            if isinstance(state, dict):
                out.append((header, state))
        return out

    # -- engine-facing journaling -----------------------------------------

    def journal_send(self, message: Message) -> None:
        """Header-only send record (dst/tag/round) — the payload already
        lives in the recipient's receive journal, and send suppression
        during replay needs only the routing to check off."""
        pid = message.src
        self._tx[pid] = self._tx.get(pid, 0) + 1
        self._append(
            pid, "send",
            {"dst": message.dst, "tag": message.tag,
             "round": message.round_sent},
            b"",
        )

    def journal_receive(self, party_id: int, message: Message,
                        round: int) -> None:
        """Full consumed message (sealed pickle) at the satisfy point —
        exactly what replay must feed the rebuilt generator."""
        self._rx[party_id] = self._rx.get(party_id, 0) + 1
        self._append(
            party_id, "recv",
            {"src": message.src, "tag": message.tag, "round": round},
            pickle.dumps(message),
        )

    def snapshot_party(self, party: Any, round: int) -> None:
        """Atomic phase-boundary snapshot + journal group-commit."""
        snapshot = getattr(party, "snapshot_state", None)
        if snapshot is None:
            return
        pid = party.party_id
        state = snapshot()
        seq = self._seq.get(pid, 0)
        self._seq[pid] = seq + 1
        header = {
            "v": 1, "kind": "snapshot", "party": pid, "seq": seq,
            "phase": party.phase, "round": round,
            "rx": self._rx.get(pid, 0), "tx": self._tx.get(pid, 0),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        sealed = seal_state(
            self._key_for(pid), pickle.dumps(state),
            nonce=_nonce(seq), aad=header_bytes,
        )
        self._store.write_snapshot(self.attempt, pid, seq, header_bytes, sealed)
        self._store.sync_journal(self.attempt, pid)

    def on_round(self, round: int) -> None:
        """Round tick: the round a rejoin marker records."""
        self._round = round

    # -- rejoin ------------------------------------------------------------

    def restore_party(self, party_id: int):
        """Rebuild a killed party from durable state (rehydration).

        Prefers the phase-2 entry snapshot (β fixed, RNG positioned just
        before the key-share draw); falls back to the init record and a
        from-scratch replay.  Returns ``(party, entry, rx_skip, tx_skip,
        entry_round)`` where the skip counts are how many journaled
        receives/sends the snapshot already covers.
        """
        if self._factory is None:
            raise CheckpointError("no party factory bound to this attempt")
        for header, state in reversed(self._decoded_snapshots(party_id)):
            if (
                state.get("role") == "participant"
                and header.get("phase") == ENTRY_PHASE
                and state.get("beta") is not None
                and state.get("rng_state") is not None
            ):
                party = self._factory(party_id, state["beta"])
                self._apply_rng(party, state["rng_state"])
                return (
                    party, ENTRY_PHASE,
                    int(header.get("rx", 0)), int(header.get("tx", 0)),
                    int(header.get("round", 0)),
                )
        init_state = self._init_state(party_id)
        if init_state is None or init_state.get("rng_state") is None:
            raise CheckpointError(
                f"party {party_id} has no restorable checkpoint state"
            )
        party = self._factory(party_id)
        self._apply_rng(party, init_state["rng_state"])
        return party, "start", 0, 0, 0

    @staticmethod
    def _apply_rng(party: Any, rng_state: Any) -> None:
        setstate = getattr(party.rng, "setstate", None)
        if setstate is None:
            raise CheckpointError(
                "party RNG does not support deterministic state restore"
            )
        setstate(rng_state)

    def _init_state(self, party_id: int) -> Optional[Dict[str, Any]]:
        for header, body in self._decoded_journal(party_id):
            if header.get("kind") == "init":
                return body if isinstance(body, dict) else None
        return None

    def rejoin_plan(self, party_id: int) -> RejoinPlan:
        """Restore the party and lay out its deterministic replay."""
        party, entry, rx_skip, tx_skip, entry_round = self.restore_party(
            party_id
        )
        received: List[Message] = []
        sends: Deque[Tuple[int, str]] = deque()
        rx_seen = tx_seen = 0
        watermark = entry_round
        for header, body in self._decoded_journal(party_id):
            kind = header.get("kind")
            watermark = max(watermark, int(header.get("round", 0)))
            if kind == "recv":
                rx_seen += 1
                if rx_seen > rx_skip:
                    if not isinstance(body, Message):
                        raise CheckpointError(
                            f"journaled receive #{rx_seen} for party "
                            f"{party_id} has no message body"
                        )
                    received.append(body)
            elif kind == "send":
                tx_seen += 1
                if tx_seen > tx_skip:
                    sends.append((header["dst"], header["tag"]))
        if rx_seen < rx_skip or tx_seen < tx_skip:
            raise CheckpointError(
                f"party {party_id} snapshot is ahead of its journal"
            )
        return RejoinPlan(
            party=party, entry=entry, received=received, sends=sends,
            round=entry_round, watermark=watermark,
        )

    def consumed_watermarks(self, party_id: int) -> Dict[str, int]:
        """Messages this party's journal shows consumed, per ``"src:tag"``.

        The socket transport's rejoin handshake ships these counts to
        the surviving peers, which then resend only the suffix of each
        stream the dead process never consumed (everything it *had*
        consumed is replayed locally from the journal instead).
        """
        counts: Dict[str, int] = {}
        for header, _ in self._decoded_journal(party_id):
            if header.get("kind") == "recv":
                key = f"{header['src']}:{header['tag']}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def note_rejoin(self, party_id: int, round: int) -> None:
        self.rejoined[party_id] = round

    def finish_replay(self, party_id: int) -> None:
        """Durable marker that the party went live again (and where)."""
        self._append(party_id, "rejoin", {"round": self._round}, b"")
        self._store.sync_journal(self.attempt, party_id)

    # -- cross-process resume ---------------------------------------------

    def resume_state(self, active_ids: List[int]) -> Tuple[Dict[int, int], int]:
        """Harvest durable β values for a ``--resume`` restart.

        Scans the newest on-disk attempt: when *every* active
        participant has a snapshot with its β, the next attempt can run
        phase 2 only (mirroring the in-memory crash-recovery resume);
        otherwise the restart begins from scratch.  Returns
        ``(betas, next_attempt)``.
        """
        attempts = self._store.attempts()
        if not attempts:
            return {}, 0
        last = attempts[-1]
        betas: Dict[int, int] = {}
        for pid in active_ids:
            beta = self._latest_beta(last, pid)
            if beta is None:
                return {}, last + 1
            betas[pid] = beta
        return betas, last + 1

    def _latest_beta(self, attempt: int, party_id: int) -> Optional[int]:
        try:
            snapshots = self._decoded_snapshots(party_id, attempt)
        except CheckpointError:
            return None
        for _, state in reversed(snapshots):
            if state.get("role") == "participant" and state.get("beta") is not None:
                return state["beta"]
        return None
