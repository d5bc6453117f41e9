"""Tests for distributed ElGamal keying and layered decryption."""

import pytest

from repro.crypto.distkey import DistributedKey
from repro.crypto.elgamal import Ciphertext, ExponentialElGamal
from repro.math.rng import SeededRNG


@pytest.fixture
def setup(small_dl_group):
    group = small_dl_group
    distkey = DistributedKey(group)
    rng = SeededRNG(21)
    shares = [distkey.make_share(i, rng) for i in range(1, 5)]
    for share in shares:
        distkey.register_public(share.party_id, share.public)
    return group, distkey, shares, rng


class TestKeying:
    def test_joint_key_is_product(self, setup):
        group, distkey, shares, _ = setup
        expected = group.identity()
        for share in shares:
            expected = group.mul(expected, share.public)
        assert group.eq(distkey.joint_public_key(), expected)

    def test_joint_key_matches_summed_secret(self, setup):
        group, distkey, shares, _ = setup
        total_secret = sum(share.secret for share in shares) % group.order
        assert group.eq(distkey.joint_public_key(), group.exp_generator(total_secret))

    def test_duplicate_registration_rejected(self, setup):
        _, distkey, shares, _ = setup
        with pytest.raises(ValueError):
            distkey.register_public(shares[0].party_id, shares[0].public)

    def test_invalid_public_rejected(self, small_dl_group):
        distkey = DistributedKey(small_dl_group)
        with pytest.raises(ValueError):
            distkey.register_public(1, 0)

    def test_empty_joint_key_rejected(self, small_dl_group):
        with pytest.raises(ValueError):
            DistributedKey(small_dl_group).joint_public_key()

    def test_partial_public_key(self, setup):
        group, distkey, shares, _ = setup
        partial = distkey.partial_public_key([1, 3])
        expected = group.mul(shares[0].public, shares[2].public)
        assert group.eq(partial, expected)


class TestLayeredDecryption:
    def test_peel_in_any_order(self, setup):
        group, distkey, shares, rng = setup
        scheme = ExponentialElGamal(group)
        ct = scheme.encrypt(0, distkey.joint_public_key(), rng)
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            current = ct
            for index in order:
                current = distkey.peel_layer(current, shares[index].secret)
            assert group.is_identity(current.c1)

    def test_partial_peel_insufficient(self, setup):
        group, distkey, shares, rng = setup
        scheme = ExponentialElGamal(group)
        ct = scheme.encrypt(0, distkey.joint_public_key(), rng)
        current = distkey.peel_layer(ct, shares[0].secret)
        # Three layers remain: the residue is not yet the plaintext.
        assert not group.is_identity(current.c1)

    def test_nonzero_stays_nonzero(self, setup):
        group, distkey, shares, rng = setup
        scheme = ExponentialElGamal(group)
        ct = scheme.encrypt(7, distkey.joint_public_key(), rng)
        residue = distkey.full_decrypt(ct, [s.secret for s in shares])
        assert group.eq(residue, group.exp_generator(7))

    def test_rerandomize_exponent_preserves_zero_predicate(self, setup):
        group, distkey, shares, rng = setup
        scheme = ExponentialElGamal(group)
        joint = distkey.joint_public_key()
        secrets = [s.secret for s in shares]
        zero = distkey.rerandomize_exponent(scheme.encrypt(0, joint, rng), rng)
        assert group.is_identity(distkey.full_decrypt(zero, secrets))
        nonzero = distkey.rerandomize_exponent(scheme.encrypt(3, joint, rng), rng)
        residue = distkey.full_decrypt(nonzero, secrets)
        assert not group.is_identity(residue)
        # ... and the value is scrambled: almost surely not g^3 anymore.
        assert not group.eq(residue, group.exp_generator(3))

    def test_rerandomize_changes_ciphertext(self, setup):
        group, distkey, _, rng = setup
        scheme = ExponentialElGamal(group)
        ct = scheme.encrypt(5, distkey.joint_public_key(), rng)
        ct2 = distkey.rerandomize_exponent(ct, rng)
        assert not group.eq(ct.c1, ct2.c1)
        assert not group.eq(ct.c2, ct2.c2)

    def test_peel_then_reencrypt_consistency(self, setup):
        """Peeling k layers leaves a valid ciphertext under the rest."""
        group, distkey, shares, rng = setup
        scheme = ExponentialElGamal(group)
        ct = scheme.encrypt(0, distkey.joint_public_key(), rng)
        current = distkey.peel_layer(ct, shares[0].secret)
        current = distkey.peel_layer(current, shares[1].secret)
        # Now encrypted under parties 3 and 4 only.
        remaining = distkey.full_decrypt(current, [shares[2].secret, shares[3].secret])
        assert group.is_identity(remaining)


class TestSetLevelLayers:
    """peel_layers and rerandomize_with_exponents against the per-element
    group composition they replace: same ciphertexts, same counts."""

    @staticmethod
    def _set(group, distkey, rng, size=9):
        scheme = ExponentialElGamal(group)
        joint = distkey.joint_public_key()
        return [scheme.encrypt(m % 3, joint, rng) for m in range(size)]

    @pytest.mark.parametrize("group_fixture", ["small_dl_group", "tiny_curve"])
    def test_set_calls_equal_per_element_composition(self, group_fixture, request):
        group = request.getfixturevalue(group_fixture)
        distkey = DistributedKey(group)
        rng = SeededRNG(31)
        share = distkey.make_share(1, rng)
        distkey.register_public(1, share.public)
        ciphertexts = self._set(group, distkey, rng)
        exponents = [group.random_nonzero_exponent(rng) for _ in ciphertexts]

        before = group.counter.snapshot()
        peeled = distkey.peel_layers(ciphertexts, share.secret)
        rerandomized = distkey.rerandomize_with_exponents(peeled, exponents)
        set_ops = group.counter.diff(before)

        before = group.counter.snapshot()
        composed = []
        for ciphertext, r in zip(ciphertexts, exponents):
            mask = group.exp(ciphertext.c2, share.secret)
            c1 = group.div(ciphertext.c1, mask)
            composed.append(Ciphertext(group.exp(c1, r), group.exp(ciphertext.c2, r)))
        element_ops = group.counter.diff(before)

        assert rerandomized == composed
        assert set_ops == element_ops
        assert [distkey.peel_layer(c, share.secret) for c in ciphertexts] == peeled
        assert [distkey.rerandomize_with_exponent(c, r)
                for c, r in zip(peeled, exponents)] == rerandomized

    def test_empty_set(self, setup):
        _, distkey, shares, _ = setup
        assert distkey.peel_layers([], shares[0].secret) == []
        assert distkey.rerandomize_with_exponents([], []) == []

    def test_one_exponent_per_ciphertext(self, setup):
        group, distkey, _, rng = setup
        ciphertexts = self._set(group, distkey, rng, size=2)
        with pytest.raises(ValueError):
            distkey.rerandomize_with_exponents(ciphertexts, [5])
