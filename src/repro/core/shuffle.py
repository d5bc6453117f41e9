"""The unlinkable decrypt–rerandomize–shuffle chain (framework step 8).

Each participant, when the ciphertext vector ``V = [ℰ_1 … ℰ_n]`` passes
through her hands, applies to every set ``ℰ_i`` she does not own:

1. **peel** her ElGamal layer: ``c → c / c'^{x_j}``;
2. **rerandomize by exponent**: ``(c, c') → (c^r, c'^r)`` with fresh
   ``r ≠ 0`` per ciphertext — this maps plaintext ``M`` to ``r·M``,
   preserving exactly the ``M = 0`` predicate the ranking needs while
   destroying the non-zero τ values;
3. **permute** the ciphertexts within the set, so the position of a
   zero no longer betrays which bit position (and hence how the
   compared gains relate) produced it.

This is the Brickell–Shmatikov anonymous-messaging idea recast as a
sorting step; it is what buys *identity unlinkability* (paper Lemma 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.distkey import DistributedKey
from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Group
from repro.math.rng import RNG
from repro.runtime.parallel import (
    ShuffleJob,
    WorkerPool,
    evaluate_shuffle_job,
    run_jobs,
)

CiphertextSet = List[Ciphertext]

SetRandomness = Tuple[Optional[Tuple[int, ...]], Optional[Tuple[int, ...]]]


class ShuffleProcessor:
    """One participant's step-8 processing, with ablation switches.

    ``rerandomize=False`` and ``permute=False`` exist solely for the
    security-ablation experiments showing the attacks they prevent.
    """

    def __init__(self, group: Group, rerandomize: bool = True, permute: bool = True):
        self.group = group
        self._distkey = DistributedKey(group)
        self.rerandomize = rerandomize
        self.permute = permute

    def draw_set_randomness(self, count: int, rng: RNG) -> SetRandomness:
        """Draw one set's randomness: ``(rerandomizers, permutation)``,
        each ``None`` when its ablation switch is off.  A vector's sets
        draw in vector order before any is applied, so where
        :meth:`apply_set` runs — inline or in a worker process — changes
        no byte of the transcript.
        """
        rerandomizers: Optional[Tuple[int, ...]] = None
        if self.rerandomize:
            rerandomizers = tuple(
                self.group.random_nonzero_exponent(rng) for _ in range(count)
            )
        permutation: Optional[Tuple[int, ...]] = None
        if self.permute:
            permutation = tuple(rng.permutation(count))
        return rerandomizers, permutation

    def apply_set(
        self,
        ciphertexts: Sequence[Ciphertext],
        secret: int,
        rerandomizers: Optional[Sequence[int]],
        permutation: Optional[Sequence[int]],
    ) -> CiphertextSet:
        """Peel + rerandomize + permute one set ``ℰ_i``, RNG-free: with
        the exponents and the permutation :meth:`draw_set_randomness`
        drew."""
        # repro-lint: ignore[R-GUARD] -- hot chain path; every incoming
        # set was membership-checked at receipt via chain_set_flaw
        # (repro.core.parties._validate_set) before reaching here
        processed = self._distkey.peel_layers(ciphertexts, secret)
        if rerandomizers is not None:
            # repro-lint: ignore[R-GUARD] -- operates on the just-peeled
            # set, validated at receipt as above
            processed = self._distkey.rerandomize_with_exponents(
                processed, rerandomizers
            )
        if permutation is not None:
            processed = [processed[source] for source in permutation]
        return processed

    def process_vector(
        self,
        vector: List[CiphertextSet],
        own_index: int,
        secret: int,
        rng: RNG,
        executor: Optional[WorkerPool] = None,
    ) -> List[CiphertextSet]:
        """Process every set except the party's own (paper: ``ℰ_i, i ≠ j``).

        Randomness for every foreign set is pre-drawn in vector order,
        then the RNG-free application runs as one job per set through
        ``executor`` (inline without one); each job's operation counter
        is merged into this group's attached counter, so every width
        meters the same.
        """
        jobs: List[ShuffleJob] = []
        foreign_indices: List[int] = []
        for index, ciphertext_set in enumerate(vector):
            if index == own_index:
                continue
            rerandomizers, permutation = self.draw_set_randomness(
                len(ciphertext_set), rng
            )
            jobs.append(
                ShuffleJob(
                    group=self.group,
                    ciphertexts=tuple(ciphertext_set),
                    secret=secret,
                    rerandomizers=rerandomizers,
                    permutation=permutation,
                )
            )
            foreign_indices.append(index)
        outcomes = run_jobs(executor, evaluate_shuffle_job, jobs)
        result: List[CiphertextSet] = [list(s) for s in vector]
        for index, (processed, counter) in zip(foreign_indices, outcomes):
            result[index] = processed
            self.group.counter.merge(counter)
        return result

    def count_zero_plaintexts(
        self, ciphertexts: Sequence[Ciphertext], secret: int
    ) -> int:
        """Final step: peel the last (own) layer and count ``g^M = 1``."""
        zeros, _ = self.decrypt_residues(ciphertexts, secret)
        return zeros

    def decrypt_residues(
        self, ciphertexts: Sequence[Ciphertext], secret: int
    ):
        """Peel the last layer; return ``(zero count, residues g^M)``.

        The residues are exactly what the set's owner sees — the
        security-game harness hands an *adversarial* owner's residues to
        the attack code, never an honest party's.
        """
        # repro-lint: ignore[R-GUARD] -- final own-set peel; the set was
        # membership-checked at receipt via chain_set_flaw
        peeled = self._distkey.peel_layers(ciphertexts, secret)
        residues = [ciphertext.c1 for ciphertext in peeled]
        is_identity = self.group.is_identity
        zeros = sum(1 for residue in residues if is_identity(residue))
        return zeros, residues


def chain_set_flaw(
    group: Group, cipher_set: object, expected_size: int
) -> Optional[str]:
    """Why ``cipher_set`` cannot be a step-8 comparison set, or ``None``.

    The mechanism-level half of chain validation: geometry (a sequence of
    exactly ``expected_size`` ciphertexts) and group membership of every
    component.  Membership uses the unmetered ``is_element`` predicate
    so validating does not disturb the paper's operation accounting.
    The protocol layer (``repro.core.parties``) turns a non-``None``
    answer into a blamed ``ProtocolAbort``.
    """
    if not isinstance(cipher_set, (list, tuple)) or len(cipher_set) != expected_size:
        return "a comparison set has the wrong size"
    for ciphertext in cipher_set:
        if not (
            isinstance(ciphertext, Ciphertext)
            and group.is_element(ciphertext.c1)
            and group.is_element(ciphertext.c2)
        ):
            return "a ciphertext is not a pair of group elements"
    return None
