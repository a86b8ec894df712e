import math

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.errors import InvalidIdeal, NotAChain, OutOfRange
from ringlab.intideals import (
    IntIdeal,
    ZnIdeal,
    all_zn_ideals_by_filtering,
    ascending_chain_stabilizes,
    bounded_combination_member,
    enumerate_ideals_mod_n,
    prime_defs_agree,
)


def euclid(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def test_from_generators_reduces_to_gcd():
    assert IntIdeal.from_generators([6, 10]).generator == euclid(6, 10) == 2
    assert IntIdeal.from_generators([]).generator == 0
    assert IntIdeal.from_generators([1, 7]).generator == 1
    assert IntIdeal.from_generators([-4, 6]).generator == 2


def test_generated_ideal_unchanged_by_reduction():
    gens = [12, 18, 30]
    ideal = IntIdeal.from_generators(gens)
    # mutual membership: each original generator is in (gcd), and the gcd
    # is a combination of the originals (verified by explicit coefficients)
    assert all(ideal.contains(g) for g in gens)
    assert bounded_combination_member(gens, ideal.generator, 10)


def test_contains():
    assert IntIdeal(3).contains(6)
    assert not IntIdeal(0).contains(5)
    assert IntIdeal(0).contains(0)
    assert not IntIdeal(6).contains(2)
    assert not IntIdeal(6).contains(3)


def test_primality_classification():
    assert IntIdeal(3).is_prime()
    assert IntIdeal(0).is_prime()
    assert not IntIdeal(6).is_prime()
    assert not IntIdeal(1).is_prime()
    assert IntIdeal(-7).is_prime()  # (-7) = (7)


def test_enumerate_ideals_examples():
    assert len(enumerate_ideals_mod_n(5)) == 2
    mod6 = enumerate_ideals_mod_n(6)
    assert len(mod6) == 4
    assert {i.elements for i in mod6} == {
        tuple(range(6)), (0, 2, 4), (0, 3), (0,),
    }
    assert len(enumerate_ideals_mod_n(1)) == 1
    assert enumerate_ideals_mod_n(1)[0].elements == (0,)


def test_enumerate_out_of_range():
    with pytest.raises(OutOfRange):
        enumerate_ideals_mod_n(0)
    with pytest.raises(OutOfRange):
        enumerate_ideals_mod_n(10_001)


@pytest.mark.parametrize("n", range(1, 31))
def test_ideal_count_is_divisor_count(n):
    ideals = enumerate_ideals_mod_n(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(ideals) == len(divisors)
    from ringlab.domains import is_prime
    assert (len(ideals) == 2) == is_prime(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_matches_exhaustive_filter(n):
    fast = sorted(i.elements for i in enumerate_ideals_mod_n(n))
    slow = sorted(i.elements for i in all_zn_ideals_by_filtering(n))
    assert fast == slow


@pytest.mark.parametrize("n", range(1, 31))
def test_one_in_ideal_iff_whole_ring(n):
    for ideal in enumerate_ideals_mod_n(n):
        assert ideal.contains(1) == ideal.is_whole_ring


def test_prime_defs_examples_mod6():
    even = ZnIdeal(6, (0, 2, 4))
    verdict = prime_defs_agree(6, even)
    assert verdict.def_direct and verdict.def_quotient

    zero = ZnIdeal(6, (0,))
    verdict = prime_defs_agree(6, zero)  # 2*3 = 0 with neither factor in {0}
    assert not verdict.def_direct and not verdict.def_quotient

    whole = ZnIdeal(6, tuple(range(6)))
    verdict = prime_defs_agree(6, whole)
    assert not verdict.def_direct and not verdict.def_quotient


def test_prime_defs_rejects_non_ideal():
    with pytest.raises(InvalidIdeal):
        prime_defs_agree(6, ZnIdeal(6, (0, 1)))  # not closed under +


@pytest.mark.parametrize("n", range(1, 31))
def test_prime_definitions_always_agree(n):
    for ideal in enumerate_ideals_mod_n(n):
        verdict = prime_defs_agree(n, ideal)
        assert verdict.def_direct == verdict.def_quotient


@pytest.mark.parametrize("n", range(1, 13))
def test_every_ideal_collection_has_maximal_element(n):
    import itertools

    ideals = enumerate_ideals_mod_n(n)
    for r in range(1, len(ideals) + 1):
        for collection in itertools.combinations(ideals, r):
            sets = [set(i.elements) for i in collection]
            assert any(
                not any(s < t for t in sets) for s in sets
            ), f"no maximal element among {sets}"


def test_chain_stabilization_examples():
    chain = [(12,), (12, 8), (12, 8, 6), (12, 8, 6, 2), (12, 8, 6, 2, 1)]
    # gcds run 12, 4, 2, 2, 1: the first repeat happens at index 2
    assert ascending_chain_stabilizes(chain) == 2
    assert ascending_chain_stabilizes([(5,), (5,), (5,)]) == 0
    assert ascending_chain_stabilizes([(0,), (7,)]) == 1


def test_chain_containment_enforced():
    with pytest.raises(NotAChain):
        ascending_chain_stabilizes([(2,), (3,)])
    with pytest.raises(NotAChain):
        ascending_chain_stabilizes([])


@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=3),
                min_size=1, max_size=6))
def test_cumulative_chains_always_ascend_and_stabilize(blocks):
    # appending generators can only grow the ideal, so cumulative prefixes
    # always form a chain
    chain = []
    acc = []
    for block in blocks:
        acc = acc + block
        chain.append(tuple(acc))
    idx = ascending_chain_stabilizes(chain)
    gcds = [IntIdeal.from_generators(c).generator for c in chain]
    if idx < len(chain) - 1:
        assert gcds[idx] == gcds[idx + 1]
    else:
        assert all(gcds[k] != gcds[k + 1] for k in range(len(gcds) - 1))


@settings(max_examples=40)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=2),
       st.integers(-100, 100))
def test_principal_reduction_against_bounded_search(gens, z):
    ideal = IntIdeal.from_generators(gens)
    by_gcd = ideal.contains(z)
    by_search = bounded_combination_member(gens, z, 200)
    assert by_gcd == by_search


def test_principal_reduction_three_generators():
    for gens, z in [((6, 10, 15), 1), ((4, 6, 8), 2), ((4, 6, 8), 3), ((9, 12, 30), 21)]:
        assert bounded_combination_member(list(gens), z, 30) == \
            IntIdeal.from_generators(gens).contains(z)
