"""Tests for the quadratic-residue DL group."""

import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.crypto.elgamal import ElGamal, ExponentialElGamal
from repro.groups.base import OperationCounter
from repro.groups.dl import DLGroup, TextbookDLGroup
from repro.math import backend
from repro.math.modular import jacobi_symbol
from repro.math.multiexp import SMALL_EXPONENT_BITS
from repro.math.rng import SeededRNG
from tests.conftest import make_participants


class TestGroupLaws:
    def test_identity(self, small_dl_group):
        g = small_dl_group
        element = g.random_element(SeededRNG(1))
        assert g.eq(g.mul(element, g.identity()), element)

    def test_associativity(self, small_dl_group):
        g = small_dl_group
        rng = SeededRNG(2)
        a, b, c = (g.random_element(rng) for _ in range(3))
        assert g.eq(g.mul(g.mul(a, b), c), g.mul(a, g.mul(b, c)))

    def test_inverse(self, small_dl_group):
        g = small_dl_group
        a = g.random_element(SeededRNG(3))
        assert g.is_identity(g.mul(a, g.inv(a)))

    def test_generator_order(self, small_dl_group):
        g = small_dl_group
        assert g.is_identity(g.exp(g.generator(), g.order))
        assert not g.is_identity(g.exp(g.generator(), 1))

    def test_exponent_laws(self, small_dl_group):
        g = small_dl_group
        a, b = 12345, 67890
        lhs = g.mul(g.exp_generator(a), g.exp_generator(b))
        assert g.eq(lhs, g.exp_generator(a + b))
        assert g.eq(g.exp(g.exp_generator(a), b), g.exp_generator(a * b))

    def test_exponent_reduced_mod_order(self, small_dl_group):
        g = small_dl_group
        assert g.eq(g.exp_generator(g.order + 5), g.exp_generator(5))
        assert g.eq(g.exp_generator(-1), g.exp_generator(g.order - 1))


class TestMembership:
    def test_elements_are_residues(self, small_dl_group):
        g = small_dl_group
        rng = SeededRNG(4)
        for _ in range(20):
            element = g.random_element(rng)
            assert jacobi_symbol(element, g.modulus) == 1
            assert g.is_element(element)

    def test_non_residue_rejected(self, small_dl_group):
        g = small_dl_group
        # Find a non-residue by scanning.
        candidate = 2
        while jacobi_symbol(candidate, g.modulus) != -1:
            candidate += 1
        assert not g.is_element(candidate)

    def test_out_of_range_rejected(self, small_dl_group):
        g = small_dl_group
        assert not g.is_element(0)
        assert not g.is_element(g.modulus)
        assert not g.is_element("not an int")


class TestConstruction:
    def test_rejects_non_safe_prime(self):
        with pytest.raises(ValueError):
            DLGroup(13)  # prime but (13-1)/2 = 6 is composite

    def test_rejects_bad_generator(self, small_dl_group):
        p = small_dl_group.modulus
        candidate = 2
        while jacobi_symbol(candidate, p) != -1:
            candidate += 1
        with pytest.raises(ValueError):
            DLGroup(p, generator=candidate, verify=False)

    def test_standard_1024(self):
        g = DLGroup.standard(1024)
        assert g.element_bits == 1024
        assert g.security_bits == 80
        assert g.order == (g.modulus - 1) // 2
        # Generator 4 has order q.
        assert g.is_identity(g.exp(g.generator(), g.order))

    def test_serialize_length(self, small_dl_group):
        g = small_dl_group
        data = g.serialize(g.random_element(SeededRNG(5)))
        assert len(data) == (g.element_bits + 7) // 8


class TestMetering:
    def test_counts_operations(self):
        g = DLGroup.random(32, rng=SeededRNG(11))
        g.counter.reset()
        a = g.exp_generator(123)
        b = g.exp_generator(77)
        g.mul(a, b)
        g.inv(a)
        assert g.counter.exponentiations == 2
        assert g.counter.multiplications == 1
        assert g.counter.inversions == 1
        assert g.counter.exponent_bits == 2 * g.order.bit_length()

    def test_equivalent_multiplications(self):
        g = DLGroup.random(32, rng=SeededRNG(12))
        g.counter.reset()
        g.exp_generator(5)
        expected = (3 * g.order.bit_length()) // 2
        assert g.counter.equivalent_multiplications == expected

    def test_counter_swap(self):
        from repro.groups.base import OperationCounter

        g = DLGroup.random(32, rng=SeededRNG(13))
        mine = OperationCounter()
        g.attach_counter(mine)
        g.exp_generator(9)
        assert mine.exponentiations == 1
        g.attach_counter(None)
        g.exp_generator(9)
        assert mine.exponentiations == 1  # detached

    def test_snapshot_diff(self):
        from repro.groups.base import OperationCounter

        counter = OperationCounter()
        counter.record_mul(5)
        before = counter.snapshot()
        counter.record_mul(3)
        assert counter.diff(before).multiplications == 3


# -- exact exponentiation kernels ---------------------------------------------

SMALL = DLGroup.random(48, rng=SeededRNG(101))
P, Q = SMALL.modulus, SMALL.order


def _exponents(q):
    """Every exponent class the kernels route differently."""
    return st.one_of(
        st.sampled_from([0, 1, q - 1, q, q + 1, -1]),
        st.integers(1, (1 << SMALL_EXPONENT_BITS) - 1).map(lambda w: q - w),
        st.integers(max_value=-1),
        st.integers(min_value=q + 1),
        st.integers(0, q - 1),
    )


def _bases(group):
    p = group.modulus
    return st.one_of(
        st.sampled_from([0, p, -p, 2 * p, 1, -1, p - 1, group.generator()]),
        st.integers(),
        st.integers(1, p - 1).map(lambda x: x * x % p),  # residues
    )


def _fresh(group):
    return DLGroup(group.modulus, group.generator(), verify=False)


def _all_routes(group, a, k):
    """``a^k`` through every public route and the table walk itself."""
    fresh = _fresh(group)
    results = [fresh.exp(a, k), fresh.exp_fixed(a, k), fresh.exp_fixed(a, k)]
    results.append(fresh._tables[a].exp(k))
    if a == group.generator():
        results.append(fresh.exp_generator(k))
    return results


@pytest.fixture(scope="class")
def python_arithmetic():
    """Table routes exist only where ``powmod`` is not native."""
    with backend.use_backend("python"):
        yield


@pytest.mark.usefixtures("python_arithmetic")
class TestExactKernels:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a=_bases(SMALL), k=_exponents(Q))
    def test_every_route_equals_textbook_pow(self, a, k):
        expected = pow(a, k % Q, P)
        assert set(_all_routes(SMALL, a, k)) == {expected}

    @given(k=_exponents(Q))
    @settings(max_examples=100, deadline=None)
    def test_generator_table_equals_textbook_pow(self, k):
        group = _fresh(SMALL)
        group.exp_generator(Q // 3)  # long exponent: builds the table
        assert group.generator() in group._tables
        assert group.exp_generator(k) == pow(group.generator(), k % Q, P)

    def test_standard_1024(self):
        group = DLGroup.standard(1024)
        p, q, g = group.modulus, group.order, group.generator()
        element = pow(g, 0xC0FFEE << 900, p)
        for a in (g, element, p - 1, 0, p, -5):
            for k in (0, 1, q - 1, q - 3, q - (1 << 16) + 1, q, -7, q + 5,
                      0xDEADBEEF << 990):
                assert set(_all_routes(group, a, k)) == {pow(a, k % q, p)}, (a, k)

    def test_zero_base_on_short_route(self):
        assert SMALL.exp(0, -3) == 0
        assert SMALL.exp(P, Q - 1) == 0

    def test_every_route_meters_one_exponentiation(self):
        group = _fresh(SMALL)
        element = group.exp_generator(Q // 5)
        q_bits = Q.bit_length()
        calls = [
            lambda: group.exp(element, -3),            # short centered
            lambda: group.exp(element, Q // 7),        # plain powmod
            lambda: group.exp_generator(Q // 7),       # generator table
            lambda: group.exp_generator(2),            # generator table, short
            lambda: group.exp_fixed(element, Q // 7),  # new table
            lambda: group.exp_fixed(element, Q // 9),  # existing table
            lambda: group.exp_fixed(element, Q - 2),   # short beats the table
            lambda: group.exp(0, -1),                  # zero base
        ]
        for call in calls:
            before = group.counter.snapshot()
            call()
            delta = group.counter.diff(before)
            assert delta == OperationCounter(
                exponentiations=1, exponent_bits=q_bits
            )

    def test_one_off_encryption_builds_no_key_table(self):
        group = _fresh(SMALL)
        rng = SeededRNG(6)
        key = ElGamal(group).generate_keypair(rng).public
        scheme = ExponentialElGamal(group)
        scheme.encrypt(1, key, rng)
        assert key not in group._tables
        scheme.encrypt(0, key, rng)
        assert key in group._tables

    def test_table_count_is_capped(self):
        group = _fresh(SMALL)
        rng = SeededRNG(7)
        for _ in range(3 * DLGroup.FIXED_BASE_TABLES_MAX):
            key = group.random_element(rng)
            scheme = ElGamal(group)
            for _ in range(3):
                scheme.encrypt(group.generator(), key, rng)
            assert len(group._tables) <= DLGroup.FIXED_BASE_TABLES_MAX
        # The generator stays hot, so eviction never drops it.
        assert group.generator() in group._tables


@pytest.mark.skipif("gmp" not in backend.available_backends(),
                    reason="libgmp does not load")
class TestNativeKernelChoice:
    """Under a native ``powmod`` a group from one CPython digit (30 bits)
    up keeps no tables; below that the table walk wins and stays."""

    def test_gmp_1024_builds_no_table_and_matches_textbook(self):
        with backend.use_backend("gmp"):
            group = DLGroup.standard(1024)
            textbook = TextbookDLGroup.standard(1024)
            q, rng = group.order, SeededRNG(9)
            key = group.random_element(rng)
            scheme = ElGamal(group)
            for _ in range(2):
                scheme.encrypt(group.generator(), key, rng)
            for k in (0, 1, 5, q - 1, q - 3, q // 3, -7,
                      0xDEADBEEF << 990, group.random_exponent(rng)):
                assert group.exp_generator(k) == textbook.exp_generator(k)
                assert group.exp_fixed(key, k) == textbook.exp_fixed(key, k)
                assert group.exp(key, k) == textbook.exp(key, k)
            assert not group._tables

    def test_existing_table_is_not_walked_under_gmp(self):
        group = DLGroup.standard(1024)
        with backend.use_backend("python"):
            group.exp_generator(group.order // 3)
        table = group._tables[group.generator()]
        walks = []
        original = table.exp
        table.exp = lambda e: walks.append(e) or original(e)
        k = group.order // 5
        with backend.use_backend("gmp"):
            value = group.exp_generator(k)
        assert walks == []
        assert value == pow(group.generator(), k, group.modulus)

    def test_small_modulus_keeps_its_tables_under_gmp(self):
        # Below the crossover (backend._NATIVE_POWMOD) a table walk beats
        # one native power, so the generator's table is built and walked.
        with backend.use_backend("gmp"):
            group = DLGroup.random(24, rng=SeededRNG(5))
            g, p, q = group.generator(), group.modulus, group.order
            assert p < backend._NATIVE_POWMOD
            group.exp_generator(q // 3)
            assert g in group._tables
            walks = []
            table, original = group._tables[g], group._tables[g].exp
            table.exp = lambda e: walks.append(e) or original(e)
            assert group.exp_generator(q // 7) == pow(g, q // 7, p)
            assert walks == [q // 7]

    def test_48_bit_group_builds_no_table_under_gmp(self):
        # From the crossover up one native power beats the table walk,
        # so the 48-bit test groups take the native route everywhere.
        with backend.use_backend("gmp"):
            group = _fresh(SMALL)
            textbook = TextbookDLGroup(P, SMALL.generator(), verify=False)
            assert P >= backend._NATIVE_POWMOD
            rng = SeededRNG(9)
            key = group.random_element(rng)
            for k in (0, 1, 5, 255, 256, Q - 1, Q - 3, Q // 3, -7,
                      group.random_exponent(rng)):
                assert group.exp_generator(k) == textbook.exp_generator(k)
                assert group.exp_fixed(key, k) == textbook.exp_fixed(key, k)
            assert not group._tables

    def test_route_is_planned_once_per_backend(self):
        group = _fresh(SMALL)
        asked = []

        class Counting(backend.PythonBackend):
            def native_powmod(self, modulus):
                asked.append(modulus)
                return False

        backend.register_backend("counting", Counting)
        try:
            with backend.use_backend("counting"):
                for k in (Q // 3, Q // 5, Q // 7):
                    group.exp_generator(k)
                    group.exp_fixed(group.generator(), k)
            assert asked == [P]
            with backend.use_backend("gmp"):
                assert group.exp_generator(Q // 3) == pow(
                    group.generator(), Q // 3, P
                )
            with backend.use_backend("counting"):  # a new backend object
                group.exp_generator(Q // 3)
            assert asked == [P, P]
        finally:
            backend._FACTORIES.pop("counting", None)


class TestTextbookReference:
    def test_ranking_identical_to_textbook_exp(
        self, small_schema, small_initiator_input
    ):
        participants = make_participants(small_schema, 3, seed=19)

        def run(group):
            config = FrameworkConfig(
                group=group, schema=small_schema, num_participants=3, k=2,
                rho_bits=6, wire="measured",
            )
            return GroupRankingFramework(
                config, small_initiator_input, participants, rng=SeededRNG(5)
            ).run()

        kernels = run(DLGroup.random(48, rng=SeededRNG(101)))
        textbook = run(TextbookDLGroup.random(48, rng=SeededRNG(101)))
        assert kernels.ranks == textbook.ranks
        assert (kernels.wire_stats.canonical_digest
                == textbook.wire_stats.canonical_digest)
        assert kernels.transcript.entries == textbook.transcript.entries
        assert {pid: m.ops for pid, m in kernels.metrics.items()} == {
            pid: m.ops for pid, m in textbook.metrics.items()
        }


class TestPickling:
    def test_warm_group_pickles_like_a_fresh_one(self, tiny_curve):
        # deepcopy goes through the same state hooks: a cold copy.
        for fresh in (_fresh(SMALL), copy.deepcopy(tiny_curve)):
            warm = copy.deepcopy(fresh)
            rng = SeededRNG(8)
            elements = [warm.random_element(rng) for _ in range(20)]
            for element in elements:
                warm.deserialize_cached(warm.serialize_cached(element))
                warm.is_element(element)
                warm.exp_fixed(element, 12345)
            warm.counter.reset()
            data = pickle.dumps(warm)
            assert len(data) == len(pickle.dumps(fresh))
            clone = pickle.loads(data)
            for element in elements:
                assert clone.exp(element, 777) == warm.exp(element, 777)
                assert clone.exp_fixed(element, -2) == warm.exp(element, -2)
                assert clone.serialize_cached(element) == warm.serialize(element)
                assert clone.is_element(element)

