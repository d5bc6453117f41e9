"""Anonymous data collection as a runtime-engine protocol.

Roles: ``n`` members (ids 1..n) each holding one private integer
message, and a collector (id 0).  Flow:

1. every member publishes an ElGamal key share (the collector holds no
   share — it must not be able to decrypt alone);
2. every member encrypts her group-encoded message under the joint key
   and sends it to member 1;
3. the batch passes the decryption mix-net chain 1 → 2 → … → n;
4. member n opens the outputs and forwards the shuffled plaintext
   multiset to the collector.

The collector learns exactly the multiset; linking a message to its
sender requires corrupting *every* member (each honest hop re-shuffles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.anonmsg.encoding import decode_message, encode_message
from repro.anonmsg.mixnet import DecryptionMixnet
from repro.groups.dl import DLGroup
from repro.math import backend as arith_backend
from repro.math.rng import RNG, SeededRNG
from repro.runtime.channels import WireStats, WireTransport
from repro.runtime.engine import Engine
from repro.runtime.party import Party
from repro.runtime.transcript import Transcript

TAG_SHARE = "anon-share"
TAG_SUBMIT = "anon-submit"
TAG_BATCH = "anon-batch"
TAG_OUTPUT = "anon-output"


class CollectorParty(Party):
    """Receives the shuffled plaintext multiset."""

    def __init__(self, group: DLGroup, num_members: int, rng: RNG):
        super().__init__(0, rng)
        self.group = group
        self.num_members = num_members

    def protocol(self):
        message = yield from self.recv(self.num_members, TAG_OUTPUT)
        self.output = sorted(
            decode_message(element, self.group) for element in message.payload
        )


class MemberParty(Party):
    """One member: key share, submission, and a mix hop."""

    def __init__(self, party_id: int, group: DLGroup, num_members: int,
                 message: int, rng: RNG):
        super().__init__(party_id, rng)
        self.group = group
        self.num_members = num_members
        self.message = message

    def protocol(self):
        group = self.group
        members = list(range(1, self.num_members + 1))
        others = [m for m in members if m != self.party_id]

        # 1. Distributed keying (shares only; ZKPs as in the framework
        #    could be layered on; kept lean here to spotlight the mixing).
        secret = group.random_exponent(self.rng)
        public = group.exp_generator(secret)
        self.broadcast(others, TAG_SHARE, public)
        publics = yield from self.recv_from_all(others, TAG_SHARE)
        publics[self.party_id] = public
        mixnet = self.mixnet = DecryptionMixnet(group, publics)

        # 2. Encrypt and submit to the head of the chain.
        encoded = encode_message(self.message, group)
        ciphertext = mixnet.submit(encoded, self.rng)
        if self.party_id == 1:
            batch = [ciphertext]
            received = yield from self.recv_from_all(others, TAG_SUBMIT)
            for sender in sorted(received):
                batch.append(received[sender])
        else:
            self.send(1, TAG_SUBMIT, ciphertext)
            upstream = yield from self.recv(self.party_id - 1, TAG_BATCH)
            batch = upstream.payload

        # 3. This member's mix hop.
        batch = mixnet.mix_hop(batch, self.party_id, secret, self.rng)

        # 4. Forward — or open and deliver if last.
        if self.party_id < self.num_members:
            self.send(self.party_id + 1, TAG_BATCH, batch)
        else:
            self.send(0, TAG_OUTPUT, mixnet.open_outputs(batch))
        self.output = "mixed"


@dataclass
class AnonymousCollection:
    """Result of one anonymous-collection run."""

    messages: List[int]
    rounds: int
    transcript: Transcript
    wire_stats: WireStats


def run_anonymous_collection(
    group: DLGroup, messages: List[int], rng: Optional[RNG] = None,
    *, backend: str = "auto",
) -> AnonymousCollection:
    """Convenience one-call runner: returns the collector's view.

    Every message goes through a
    :class:`~repro.runtime.channels.WireTransport` and is accounted by
    its measured encoded bytes, batched per (sender, receiver, round).
    ``backend`` scopes the run to an arithmetic backend
    (:mod:`repro.math.backend`; ``"auto"`` keeps the active one) —
    transcript-equivalent, so the collected multiset, round count, and
    wire bytes are identical whichever backend runs."""
    rng = rng or SeededRNG(0)
    n = len(messages)
    if n < 2:
        raise ValueError("anonymity needs at least two members")
    transport = WireTransport(group)
    with arith_backend.use_backend(backend):
        engine = Engine(metered_groups=[group], wire=transport)
        engine.add_party(CollectorParty(group, n, _fork(rng, "collector")))
        for member_id, message in enumerate(messages, start=1):
            engine.add_party(
                MemberParty(member_id, group, n, message,
                            _fork(rng, f"m{member_id}"))
            )
        outputs = engine.run()
    return AnonymousCollection(
        messages=outputs[0],
        rounds=engine.transcript.rounds,
        transcript=engine.transcript,
        wire_stats=transport.stats(),
    )


def _fork(rng: RNG, label: str) -> RNG:
    fork = getattr(rng, "fork", None)
    return fork(label) if callable(fork) else rng
