from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ringlab.axioms import (
    all_triples,
    check_ring_axioms,
    random_rational_triples,
)
from ringlab.domains import Domain, Fp, QQ, Zn, ZZ


def test_z6_exhaustive_axioms_pass():
    samples = all_triples(Zn(6))
    assert len(samples) == 6 ** 3
    report = check_ring_axioms(Zn(6), samples)
    assert report.passed
    assert not report.one_equals_zero
    assert report.nonzero_invertible is False  # 2 has no inverse mod 6


def test_one_element_ring_passes_and_flags_collapse():
    report = check_ring_axioms(Zn(1), all_triples(Zn(1)))
    assert report.passed
    assert report.one_equals_zero
    assert report.triples_checked == 1


def test_f5_axioms_and_inverses():
    report = check_ring_axioms(Fp(5), all_triples(Fp(5)))
    assert report.passed
    assert not report.one_equals_zero
    assert report.nonzero_invertible is True


def test_rational_random_triples_pass():
    report = check_ring_axioms(QQ, random_rational_triples(500))
    assert report.passed
    assert report.nonzero_invertible is True


def test_integers_flag_missing_inverses():
    samples = [(ZZ.element(2), ZZ.element(3), ZZ.element(-5))]
    report = check_ring_axioms(ZZ, samples)
    assert report.passed
    assert report.nonzero_invertible is False


def test_inverse_check_lets_programming_errors_through(monkeypatch):
    # only an AlgebraError means "no inverse"; a TypeError is a bug to surface
    def broken_inv(self, a):
        raise TypeError("broken inverse")

    monkeypatch.setattr(Domain, "inv", broken_inv)
    with pytest.raises(TypeError):
        check_ring_axioms(Fp(5), [])
    with pytest.raises(TypeError):
        check_ring_axioms(QQ, [(QQ.element(2), QQ.element(3), QQ.element(5))])


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals, rationals, rationals)
def test_distributivity_exact_over_q(a, b, c):
    ra, rb, rc = QQ.element(a), QQ.element(b), QQ.element(c)
    assert ra * (rb + rc) == ra * rb + ra * rc
    assert (ra + rb) * rc == ra * rc + rb * rc


@given(st.integers(1, 40), st.integers(), st.integers(), st.integers())
def test_distributivity_exact_mod_n(n, a, b, c):
    dom = Zn(n)
    ra, rb, rc = dom.element(a), dom.element(b), dom.element(c)
    assert ra * (rb + rc) == ra * rb + ra * rc
    assert (ra + rb) * rc == ra * rc + rb * rc
