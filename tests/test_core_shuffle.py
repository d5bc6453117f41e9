"""Tests for the decrypt-rerandomize-shuffle chain processor."""

import pytest

from repro.core.shuffle import ShuffleProcessor
from repro.crypto.distkey import DistributedKey
from repro.crypto.elgamal import ExponentialElGamal
from repro.math.rng import SeededRNG


@pytest.fixture
def chain_setup(small_dl_group):
    group = small_dl_group
    distkey = DistributedKey(group)
    rng = SeededRNG(81)
    shares = [distkey.make_share(i, rng) for i in range(1, 4)]
    for share in shares:
        distkey.register_public(share.party_id, share.public)
    scheme = ExponentialElGamal(group)
    joint = distkey.joint_public_key()
    return group, distkey, shares, scheme, joint, rng


def full_chain(processor, ciphertexts, shares, owner_index, rng):
    """Every non-owner processes the set; returns what the owner receives."""
    current = list(ciphertexts)
    for index, share in enumerate(shares):
        if index == owner_index:
            continue
        current = processor.process_vector([current], -1, share.secret, rng)[0]
    return current


class TestChainSemantics:
    def test_zero_count_preserved(self, chain_setup):
        group, _, shares, scheme, joint, rng = chain_setup
        plaintexts = [0, 3, 0, 7, 1, 0]
        cts = [scheme.encrypt(m, joint, rng) for m in plaintexts]
        processor = ShuffleProcessor(group)
        received = full_chain(processor, cts, shares, owner_index=0, rng=rng)
        zeros = processor.count_zero_plaintexts(received, shares[0].secret)
        assert zeros == plaintexts.count(0)

    def test_every_owner_position_works(self, chain_setup):
        group, _, shares, scheme, joint, rng = chain_setup
        plaintexts = [0, 5, 0]
        processor = ShuffleProcessor(group)
        for owner in range(3):
            cts = [scheme.encrypt(m, joint, rng) for m in plaintexts]
            received = full_chain(processor, cts, shares, owner, rng)
            assert processor.count_zero_plaintexts(received, shares[owner].secret) == 2

    def test_nonzero_values_scrambled(self, chain_setup):
        """With rerandomization, non-zero residues are not g^m anymore."""
        group, _, shares, scheme, joint, rng = chain_setup
        cts = [scheme.encrypt(4, joint, rng)]
        processor = ShuffleProcessor(group)
        received = full_chain(processor, cts, shares, 0, rng)
        _, residues = processor.decrypt_residues(received, shares[0].secret)
        assert not group.eq(residues[0], group.exp_generator(4))
        assert not group.is_identity(residues[0])

    def test_without_rerandomization_values_survive(self, chain_setup):
        group, _, shares, scheme, joint, rng = chain_setup
        cts = [scheme.encrypt(4, joint, rng)]
        processor = ShuffleProcessor(group, rerandomize=False, permute=False)
        received = full_chain(processor, cts, shares, 0, rng)
        _, residues = processor.decrypt_residues(received, shares[0].secret)
        assert group.eq(residues[0], group.exp_generator(4))

    def test_without_permutation_order_preserved(self, chain_setup):
        group, _, shares, scheme, joint, rng = chain_setup
        plaintexts = [0, 1, 0, 1]
        cts = [scheme.encrypt(m, joint, rng) for m in plaintexts]
        processor = ShuffleProcessor(group, permute=False)
        received = full_chain(processor, cts, shares, 0, rng)
        _, residues = processor.decrypt_residues(received, shares[0].secret)
        pattern = [0 if group.is_identity(r) else 1 for r in residues]
        assert pattern == plaintexts

    def test_permutation_shuffles_positions(self, chain_setup):
        """With permutation on, zero positions move (with overwhelming
        probability over 12 slots and several seeds)."""
        group, _, shares, scheme, joint, _ = chain_setup
        plaintexts = [0] + [1] * 11
        processor = ShuffleProcessor(group)
        moved = 0
        for seed in range(5):
            rng = SeededRNG(900 + seed)
            cts = [scheme.encrypt(m, joint, rng) for m in plaintexts]
            received = full_chain(processor, cts, shares, 0, rng)
            _, residues = processor.decrypt_residues(received, shares[0].secret)
            zero_at = [i for i, r in enumerate(residues) if group.is_identity(r)]
            assert len(zero_at) == 1
            if zero_at[0] != 0:
                moved += 1
        assert moved >= 3

    def test_process_vector_skips_own_set(self, chain_setup):
        group, _, shares, scheme, joint, rng = chain_setup
        own = [scheme.encrypt(1, joint, rng)]
        other = [scheme.encrypt(1, joint, rng)]
        processor = ShuffleProcessor(group)
        result = processor.process_vector([own, other], own_index=0,
                                          secret=shares[0].secret, rng=rng)
        assert result[0][0] is own[0]          # untouched
        assert not group.eq(result[1][0].c1, other[0].c1)  # processed
