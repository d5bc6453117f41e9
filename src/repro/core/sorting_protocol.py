"""The identity-unlinkable multiparty sorting protocol, standalone.

The paper's contribution (3): "an identity unlinkable multiparty sorting
protocol, in which each party is given the ranking of the individual
input but cannot link the inferred information to its owner's identity
... This protocol itself is of independent interest to the study of the
SMP sorting problem."

This module decouples that protocol from the group-ranking framework's
gain machinery: ``n`` parties each hold an arbitrary ``width``-bit
unsigned integer; at the end each party knows the *rank of her own
value* (competition ranking, 1 = largest) and nothing else, and no
coalition of up to ``n-2`` parties can link rank information to an
honest party whose rank is hidden.

The protocol is the framework's phase 2 verbatim (distributed keying
with Schnorr proofs, bitwise publication, the γ/ω/τ circuit, the
decrypt-rerandomize-shuffle chain), so its security rests on the same
lemmas; properties: linear communication rounds, ``O(w·n²)``
ciphertext traffic, up to ``n-2`` colluders tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.comparison import HomomorphicComparator
from repro.core.parties import TAG_BETA_BITS
from repro.core.shuffle import ShuffleProcessor
from repro.crypto.bitenc import BitwiseElGamal
from repro.crypto.distkey import DistributedKey
from repro.crypto.zkp import NonInteractiveSchnorrProof
from repro.groups.base import Group
from repro.math.rng import RNG, SeededRNG
from repro.runtime.channels import WireTransport
from repro.runtime.engine import Engine
from repro.runtime.errors import ProtocolAbort, ProtocolError
from repro.runtime.party import Party
from repro.runtime.transcript import Transcript

TAG_KEY = "sort-key"
TAG_SETS = "sort-sets"
TAG_CHAIN = "sort-chain"
TAG_FINAL = "sort-final"


class SortingParty(Party):
    """One party of the standalone unlinkable sorting protocol.

    Party ids run 1..n.  Uses Fiat-Shamir proofs for key knowledge
    (fewest rounds); the framework's interactive variant is equivalent.
    """

    def __init__(self, party_id: int, n: int, group: Group, width: int,
                 value: int, rng: RNG):
        if not 1 <= party_id <= n:
            raise ValueError("party ids run from 1 to n")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value must be an unsigned {width}-bit integer")
        super().__init__(party_id, rng)
        self.n = n
        self.group = group
        self.width = width
        self.value = value
        self.rank: Optional[int] = None

    @property
    def _others(self) -> List[int]:
        return [j for j in range(1, self.n + 1) if j != self.party_id]

    def protocol(self):
        group = self.group
        others = self._others

        # 1. Keying with NIZK proofs of key knowledge.
        distkey = DistributedKey(group)
        share = distkey.make_share(self.party_id, self.rng)
        distkey.register_public(self.party_id, share.public)
        nizk = NonInteractiveSchnorrProof(
            group, context=b"repro-sort|" + str(self.party_id).encode()
        )
        proof = nizk.prove(share.secret, self.rng)
        self.broadcast(others, TAG_KEY, (share.public, proof))
        received = yield from self.recv_from_all(others, TAG_KEY)
        for j, (their_public, their_proof) in received.items():
            peer = NonInteractiveSchnorrProof(
                group, context=b"repro-sort|" + str(j).encode()
            )
            if not peer.verify(their_public, their_proof):
                raise ProtocolAbort(f"P{j}'s key-knowledge proof failed")
            distkey.register_public(j, their_public)
        joint = distkey.joint_public_key()

        # 2. Bitwise publication.
        bitenc = BitwiseElGamal(group)
        my_bits = bitenc.encrypt(self.value, self.width, joint, self.rng)
        self.broadcast(others, TAG_BETA_BITS, my_bits)
        other_bits = yield from self.recv_from_all(others, TAG_BETA_BITS)
        for j, bits in other_bits.items():
            if not bitenc.validate(bits, self.width):
                raise ProtocolError(f"P{j} sent a malformed bitwise ciphertext")

        # 3. Comparison circuit, flattened into my set.
        comparator = HomomorphicComparator(group)
        my_set = []
        for j in sorted(other_bits):
            my_set.extend(comparator.encrypted_taus(self.value, other_bits[j]))

        # 4. The shuffle chain (same structure as framework step 8).
        processor = ShuffleProcessor(group)
        expected = self.width * (self.n - 1)
        me = self.party_id

        def check(sets):
            if len(sets) != self.n or any(len(s) != expected for s in sets):
                raise ProtocolError("chain vector tampered")

        if me == 1:
            vector = [my_set]
            gathered = yield from self.recv_from_all(others, TAG_SETS)
            for j in sorted(gathered):
                vector.append(gathered[j])
            check(vector)
            vector = processor.process_vector(vector, 0, share.secret, self.rng)
            self.send(2, TAG_CHAIN, vector)
            final_msg = yield from self.recv(self.n, TAG_FINAL)
            final_set = final_msg.payload
        else:
            self.send(1, TAG_SETS, my_set)
            chain_msg = yield from self.recv(me - 1, TAG_CHAIN)
            check(chain_msg.payload)
            vector = processor.process_vector(
                chain_msg.payload, me - 1, share.secret, self.rng
            )
            if me < self.n:
                self.send(me + 1, TAG_CHAIN, vector)
                final_msg = yield from self.recv(self.n, TAG_FINAL)
                final_set = final_msg.payload
            else:
                for j in others:
                    self.send(j, TAG_FINAL, vector[j - 1])
                final_set = vector[me - 1]

        zeros = processor.count_zero_plaintexts(final_set, share.secret)
        self.rank = zeros + 1
        self.output = self.rank


@dataclass
class UnlinkableSortResult:
    """Each party's privately learned rank plus run accounting."""

    ranks: Dict[int, int]
    rounds: int
    transcript: Transcript

    def expected_ranks(self, values: List[int]) -> Dict[int, int]:
        return {
            i + 1: 1 + sum(1 for other in values if other > mine)
            for i, mine in enumerate(values)
        }


def unlinkable_sort(
    group: Group, values: List[int], width: int, rng: Optional[RNG] = None
) -> UnlinkableSortResult:
    """Run the standalone protocol; party ``i+1`` holds ``values[i]``."""
    rng = rng or SeededRNG(0)
    n = len(values)
    if n < 2:
        raise ValueError("sorting needs at least two parties")
    engine = Engine(metered_groups=[group], wire=WireTransport(group))
    for party_id, value in enumerate(values, start=1):
        fork = getattr(rng, "fork", None)
        party_rng = fork(f"sort{party_id}") if callable(fork) else rng
        engine.add_party(
            SortingParty(party_id, n, group, width, value, party_rng)
        )
    outputs = engine.run()
    return UnlinkableSortResult(
        ranks=dict(sorted(outputs.items())),
        rounds=engine.transcript.rounds,
        transcript=engine.transcript,
    )
