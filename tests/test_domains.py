import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringlab import domains
from ringlab.domains import (
    Domain,
    Fp,
    ModHomomorphism,
    QQ,
    RingElement,
    Zn,
    ZZ,
    hom_check,
    is_prime,
    smallest_factor,
    units_of,
)
from ringlab.errors import (
    DivisionByZero,
    DomainMismatch,
    InvalidDomain,
    NoInverse,
    TooLarge,
)
from ringlab.intideals import IntIdeal, quotient_ring


def test_inverse_in_f5_matches_exhaustive_search():
    # oracle: the unique x with 2*x = 1 mod 5
    expected = next(x for x in range(5) if (2 * x) % 5 == 1)
    assert Fp(5).element(2).inv() == Fp(5).element(expected)
    assert expected == 3


def test_mul_five_five_mod_six():
    assert Zn(6).element(5) * Zn(6).element(5) == Zn(6).element(25 % 6)
    assert (Zn(6).element(5) * Zn(6).element(5)).value == 1


@pytest.mark.parametrize("domain", [ZZ, QQ, Zn(6), Zn(1), Fp(5)])
def test_zero_is_additive_identity(domain):
    for raw in (-3, 0, 1, 7):
        r = domain.element(raw)
        assert domain.element(0) + r == r
        assert r + domain.element(0) == r


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatch):
        ZZ.element(1) + QQ.element(1)
    with pytest.raises(DomainMismatch):
        Zn(6).element(1) * Zn(7).element(1)


def test_inverse_errors():
    with pytest.raises(DivisionByZero):
        Fp(5).element(0).inv()
    with pytest.raises(DivisionByZero):
        QQ.element(0).inv()
    with pytest.raises(NoInverse):
        ZZ.element(2).inv()
    with pytest.raises(NoInverse):
        Zn(6).element(2).inv()
    assert ZZ.element(-1).inv() == ZZ.element(-1)
    assert Zn(1).element(0).inv() == Zn(1).element(0)  # 0 = 1 there


@given(st.integers(), st.sampled_from([1, 2, 5, 6, 12, 30]))
def test_modular_values_stay_canonical(v, n):
    el = Zn(n).element(v)
    assert 0 <= el.value < n
    assert (el + el).value == (2 * v) % n


@given(st.integers(-200, 200), st.integers(1, 60))
def test_rationals_always_reduced(num, den):
    el = QQ.element(Fraction(num, den))
    assert el.value.denominator > 0
    assert math.gcd(el.value.numerator, el.value.denominator) == 1


def test_units_of_z6_and_f7():
    assert {e.value for e in units_of(Zn(6))} == {1, 5}
    assert {e.value for e in units_of(Fp(7))} == {1, 2, 3, 4, 5, 6}
    assert {e.value for e in units_of(Zn(1))} == {0}


@pytest.mark.parametrize("n", range(1, 31))
def test_units_match_gcd_description(n):
    found = {e.value for e in units_of(Zn(n))}
    if n == 1:
        assert found == {0}
    else:
        assert found == {u for u in range(n) if math.gcd(u, n) == 1}


def test_prime_field_rejects_composite():
    with pytest.raises(InvalidDomain):
        Fp(6)
    with pytest.raises(InvalidDomain):
        Fp(1)
    with pytest.raises(InvalidDomain):
        Zn(0)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == primes


def least_divisor(n):
    # trial division, the oracle for smallest_factor and is_prime
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def test_smallest_factor_is_least_divisor():
    for n in range(2, 500):
        assert smallest_factor(n) == next(d for d in range(2, n + 1) if n % d == 0)
    assert smallest_factor(2305843009213693951 * 3) == 3
    # no factor below 10^4: found by rho, and the least of the parts is returned
    for a, b in [(10007, 10009), (10007, 10007), (99991, 100003), (1000003, 1000033),
                 (100003, 10007 * 10009)]:
        assert smallest_factor(a * b) == min(a, least_divisor(b)), (a, b)
    assert smallest_factor(10007 ** 3) == 10007
    assert smallest_factor(318665857834031151167461) == 399165290221
    # from 43^2 on, rho splits the composites without a factor up to 41; it
    # often finds both factors of a small n in one batch of differences
    for n in range(43 ** 2, 6000):
        assert smallest_factor(n) == least_divisor(n), n
    # products of three primes in every order of size: rho need not split
    # off the least prime first
    primes = [q for q in range(43, 400) if least_divisor(q) == q]
    rng = random.Random(7)
    for _ in range(300):
        factors = rng.sample(primes, 3)
        assert smallest_factor(math.prod(factors)) == min(factors), factors


def test_smallest_factor_of_a_composite_with_a_cofactor_past_the_primality_bound():
    # 2^89 - 1 is prime but past MR_BOUND, so is_prime raises on it; the
    # factor below its cofactor is still found (by division)
    m89 = 2 ** 89 - 1
    with pytest.raises(TooLarge):
        is_prime(m89)
    assert smallest_factor(43 * m89) == 43
    assert smallest_factor(10007 * 10009 * m89) == 10007
    assert smallest_factor(100003 * 10007 * m89) == 10007
    primes = [q for q in range(43, 2000) if least_divisor(q) == q]
    rng = random.Random(89)
    for _ in range(100):
        p, q = rng.sample(primes, 2)
        assert smallest_factor(p * q * m89) == min(p, q), (p, q)


def test_smallest_factor_past_the_rho_budget_raises(monkeypatch):
    monkeypatch.setattr(domains, "RHO_BUDGET", 100)
    with pytest.raises(TooLarge, match="budget 100"):
        smallest_factor(10007 * 10009)


def test_is_prime_agrees_with_trial_division_below_ten_to_the_five():
    assert not any(is_prime(n) for n in range(-3, 2))
    for n in range(2, 10 ** 5):
        assert is_prime(n) == (least_divisor(n) == n), n


def test_is_prime_rejects_strong_pseudoprimes_to_the_small_bases():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2305843009213693951)  # 2^61 - 1
    assert not is_prime(2305843009213693951 * 1000003)


def test_is_prime_refuses_a_probable_prime_past_the_proven_bound():
    with pytest.raises(TooLarge):
        is_prime(3317044064679887385961981)
    # past the bound a composite verdict is still a proof
    assert not is_prime(3317044064679887385961981 * 2 + 2)
    assert not is_prime(2305843009213693951 ** 2)


def test_quotient_by_three():
    q = quotient_ring(IntIdeal(3))
    assert q.ring == Zn(3)
    assert q.projection(6) == Zn(3).element(0)
    assert q.projection(7) == Zn(3).element(1)


def test_quotient_by_zero_is_identity():
    q = quotient_ring(IntIdeal(0))
    assert q.ring == ZZ
    assert q.projection(41) == ZZ.element(41)
    assert q.projection(0).is_zero
    assert not q.projection(5).is_zero


def test_quotient_by_one_collapses_everything():
    q = quotient_ring(IntIdeal(1))
    assert q.ring == Zn(1)
    assert all(q.projection(r).value == 0 for r in range(-5, 6))


@pytest.mark.parametrize("n", range(0, 31))
def test_projection_kernel_is_the_ideal(n):
    proj = quotient_ring(IntIdeal(n)).projection
    for z in range(-100, 101):
        expected = (z == 0) if n == 0 else (z % n == 0)
        assert proj(z).is_zero == expected


def test_hom_check_mod3_exhaustive_window():
    pairs = [(a, b) for a in range(-10, 11) for b in range(-10, 11)]
    report = hom_check(ModHomomorphism(3), pairs)
    assert report.passed
    assert report.pairs_checked == 21 * 21


def test_hom_check_trivial_target():
    report = hom_check(ModHomomorphism(1), [(0, 0), (3, 9), (-4, 7)])
    assert report.passed


def test_hom_apply_mod5():
    assert ModHomomorphism(5)(7) == Zn(5).element(2)


def test_field_has_all_inverses_composite_does_not():
    for p in (2, 3, 5, 7, 11, 13):
        assert all(Fp(p).element(a).inv() * Fp(p).element(a) == Fp(p).element(1)
                   for a in range(1, p))
    for n in (4, 6, 8, 9, 10, 12):
        missing = [a for a in range(1, n)
                   if not any(a * b % n == 1 for b in range(n))]
        assert missing, f"Z/{n} should have a non-invertible nonzero element"


def test_ring_element_structural_equality_and_hash():
    assert RingElement(QQ, Fraction(2, 4)) == RingElement(QQ, Fraction(1, 2))
    assert hash(Zn(6).element(8)) == hash(Zn(6).element(2))
    assert Zn(6).element(2) != Fp(5).element(2)


@pytest.mark.parametrize("domain", [Zn(6), Fp(7), ZZ, QQ], ids=str)
def test_ring_element_arithmetic_is_canonical(domain):
    # raw results are canonicalized once by the constructor: compare with plain arithmetic
    rng = random.Random(f"element {domain}")
    m = domain.modulus
    for _ in range(300):
        if domain == QQ:
            a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2))
        else:
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        x, y = domain.element(a), domain.element(b)
        for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
                          (x + b, a + b), (b - x, b - a), (b * x, a * b), (x ** 3, a ** 3)):
            assert got.value == (want % m if m else want)
            assert type(got.value) is (Fraction if domain == QQ else int)
            assert got.is_zero == (got.value == 0)
    assert Zn(6).element(2) * Zn(6).element(3) == Zn(6).element(0)
    assert (Zn(6).element(2) * 3).is_zero and not Zn(6).element(5).is_zero


def test_domain_kinds_and_moduli_are_checked_at_construction():
    with pytest.raises(InvalidDomain, match="Z takes no modulus"):
        Domain("Z", 5)
    with pytest.raises(InvalidDomain, match="unknown domain kind 'R'"):
        Domain("R")


def test_a_negative_power_inverts_first():
    assert Fp(7).pow(3, -1) == 5 and Fp(7).pow(3, -2) == 4
    assert QQ.pow(Fraction(2, 3), -2) == Fraction(9, 4)
