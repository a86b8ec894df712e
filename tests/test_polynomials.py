import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab.domains import Fp, QQ, RingElement, Zn, ZZ
from ringlab.errors import (
    DomainMismatch,
    InvalidDomain,
    NotUnivariate,
    RingMismatch,
    TooLarge,
    UnknownVariable,
    ZeroPolynomial,
)
from ringlab import polynomials
from ringlab.parsing import parse_polynomial
from ringlab.polyideals import (
    IdealPresentation,
    gcd_univariate,
    membership_bounded,
    monic,
    radical_univariate,
)
from ringlab.polynomials import (
    NEG_INFINITY,
    Polynomial,
    PolyRing,
    format_polynomial,
    monomials_up_to,
    poly_from_json,
    poly_to_json,
)
from ringlab.raster import corner_signs
from ringlab.varieties import PointSet, _reduce_by_field_equations, vanishing_ideal

RQ2 = PolyRing(QQ, ("x", "y"))
RQ1 = PolyRing(QQ, ("x",))
RF2 = PolyRing(Fp(2), ("x", "y"))
RF2_1 = PolyRing(Fp(2), ("x",))


def q(text, ring=RQ2):
    return parse_polynomial(text, ring)


def test_addition_cancels():
    assert q("x + y") + q("x - y") == q("2x")


def test_addition_identity():
    f = q("x^2*y - 3")
    assert f + Polynomial.zero(RQ2) == f


def test_addition_mod2_collapses():
    f = parse_polynomial("x + 1", RF2_1)
    assert (f + f).is_zero


def test_difference_of_squares():
    assert q("x+1", RQ1) * q("x-1", RQ1) == q("x^2 - 1", RQ1)


def test_freshman_dream_mod2():
    f = parse_polynomial("x + y", RF2)
    assert f * f == parse_polynomial("x^2 + y^2", RF2)


def test_zero_absorbs():
    f = q("x^3 - y + 5")
    assert (Polynomial.zero(RQ2) * f).is_zero


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        q("x") + parse_polynomial("x", RF2)


def test_evaluate_figure_curve():
    f = q("y^2 - x^2*(x+1)")
    assert f.evaluate((0, 0)).is_zero
    assert f.evaluate((-1, 0)).is_zero
    assert f.evaluate((1, 2)).value == Fraction(2)


def test_evaluate_mod2():
    f = parse_polynomial("x + y", RF2)
    assert f.evaluate((1, 1)).is_zero


def test_evaluate_rational_point_of_integer_poly():
    f = parse_polynomial("x^2 + 1", PolyRing(ZZ, ("x",)))
    v = f.evaluate((Fraction(1, 2),))
    assert v.domain == QQ and v.value == Fraction(5, 4)


def test_degree_univariate():
    assert q("x^3 + x", RQ1).degree() == 3
    assert Polynomial.zero(RQ1).degree() == NEG_INFINITY
    assert q("7", RQ1).degree() == 0
    with pytest.raises(NotUnivariate):
        q("x + y").degree()


def test_leading_coefficient():
    assert q("3x^2 + x", RQ1).leading_coefficient().value == 3
    f = q("x^2*y + x*y^2")
    assert f.leading_monomial() == (2, 1)
    assert f.leading_coefficient().value == 1
    assert q("5", RQ1).leading_coefficient().value == 5
    with pytest.raises(ZeroPolynomial):
        Polynomial.zero(RQ1).leading_coefficient()


def test_derivative():
    assert q("x^2", RQ1).derivative("x") == q("2x", RQ1)
    assert parse_polynomial("x^2", RF2_1).derivative("x").is_zero
    assert q("y").derivative("x").is_zero


def test_format_basics():
    assert format_polynomial(Polynomial.zero(RQ2)) == "0"
    assert format_polynomial(q("x^2 - 1", RQ1)) == "x^2 - 1"
    assert format_polynomial(q("y^2 - x^2*(x+1)")) == "-x^3 - x^2 + y^2"
    assert format_polynomial(q("1/2x - 3")) == "1/2*x - 3"
    assert format_polynomial(q("x^2y^3")) == "x^2*y^3"


def test_lex_leads_with_the_first_variable_not_the_total_degree():
    f = q("x + y^2")
    assert f.leading_monomial() == (1, 0)


def test_json_round_trip():
    f = q("y^2 - 1/3x + 4")
    assert poly_from_json(poly_to_json(f)) == f
    g = parse_polynomial("x^2 + x*y", RF2)
    assert poly_from_json(poly_to_json(g)) == g


@pytest.mark.parametrize("tag", ["fp:abc", "fp:", "zn:", "gf:7"])
def test_json_with_a_bad_domain_tag_raises_invalid_domain(tag):
    with pytest.raises(InvalidDomain, match=re.escape(repr(tag))):
        poly_from_json({"domain": tag, "vars": ["x"], "terms": []})


def test_no_zero_terms_survive_any_operation():
    f = parse_polynomial("x + 1", RF2_1)
    g = parse_polynomial("x + 1", RF2_1)
    for result in (f + g, f * g, f - f, f.derivative("x"), f ** 2):
        assert all(c != 0 for c in result.terms.values())


RF7 = PolyRing(Fp(7), ("x", "y"))
RF7_1 = PolyRing(Fp(7), ("x",))
RF3 = PolyRing(Fp(3), ("x", "y"))

# the library's own builders of Polynomials, each through Polynomial._from_raw
TRUSTED_BUILDERS = {
    "membership cofactors over Q": lambda: membership_bounded(
        q("x^2*y - 1/2*y"), IdealPresentation(RQ2, (q("x*y"), q("3*y"))), 2).cofactors,
    "membership cofactors over F_7": lambda: membership_bounded(
        q("x^2*y + 6*y", RF7), IdealPresentation(RF7, (q("x*y", RF7), q("3*y", RF7))), 2
    ).cofactors,
    "vanishing_ideal generators": lambda: vanishing_ideal(
        PointSet(3, 2, ((0, 1), (2, 2), (1, 0)))).generators,
    "_reduce_by_field_equations parts": lambda: _reduce_by_field_equations(
        q("x^9*y^4 + 2*x^3*y + x*y + 2*y^3", RF3), 3),
    "gcd_univariate over Q": lambda: gcd_univariate(q("x^3 - x", RQ1), q("2*x^2 - 2", RQ1)),
    "gcd_univariate over F_7": lambda: gcd_univariate(q("x^3 - x", RF7_1), q("3*x^2 - 3", RF7_1)),
    "radical_univariate over Q": lambda: radical_univariate(q("(x - 1)^2*(3*x + 2)", RQ1)),
    "radical_univariate over F_7": lambda: radical_univariate(q("3*(x - 1)^2*(x + 3)", RF7_1)),
    "monic over Q": lambda: monic(q("3*x^2*y + 1/2*x - y^2")),
    "monic over F_7": lambda: monic(q("3*x^2 + x + 6", RF7_1)),
    "corner_signs split": lambda: list(corner_signs(
        q("1/3*x^2*y + y^3 - x + 1/2"), tuple(map(Fraction, (-1, 1, -1, 2))), 4, 4)),
}


@pytest.mark.parametrize("builder", sorted(TRUSTED_BUILDERS))
def test_trusted_builders_store_only_nonzero_canonical_terms(builder, monkeypatch):
    built, from_raw = [], Polynomial._from_raw
    monkeypatch.setattr(Polynomial, "_from_raw",
                        classmethod(lambda cls, *a: built.append(from_raw(*a)) or built[-1]))
    out = TRUSTED_BUILDERS[builder]()
    returned = [p for p in (out if isinstance(out, (tuple, list)) else [out])
                if isinstance(p, Polynomial)]
    assert built and (returned or builder == "corner_signs split")  # the split stays inside
    assert all(any(p is b for b in built) for p in returned)
    for p in built:
        dom = p.ring.domain
        for c in p.terms.values():
            assert c != 0 and type(dom.canon(c)) is type(c) and dom.canon(c) == c, (p, c)
        assert Polynomial(p.ring, p.terms) == p


@pytest.mark.parametrize("dom", [Zn(12), Zn(1), Fp(7), ZZ, QQ])
def test_zero_one_constant_variable_build_what_the_validating_constructor_builds(dom):
    ring = PolyRing(dom, ("x", "y"))

    def same(built, terms):
        want = Polynomial(ring, terms).terms
        return built.terms == want and list(map(type, built.terms.values())) == list(
            map(type, want.values()))

    assert same(Polynomial.zero(ring), {}) and same(Polynomial.one(ring), {(0, 0): 1})
    assert same(Polynomial.variable(ring, "y"), {(0, 1): 1})
    for value in (0, 1, -3, 25, Fraction(4), "6"):
        assert same(Polynomial.constant(ring, value), {(0, 0): value}), value
    with pytest.raises(UnknownVariable):
        Polynomial.variable(ring, "w")
    if dom != QQ:
        with pytest.raises(DomainMismatch):
            Polynomial.constant(ring, Fraction(1, 2))


@pytest.mark.parametrize("text, ring", [
    ("x + 1", RQ1), ("x + y + 1", RQ2), ("x*y + 2*x + 3*y^2 + 1", RQ2), ("x^3 + y", RF2),
    ("x", RQ1), ("7", RQ2), ("0", RQ2), ("x + y + z", PolyRing(Fp(2), ("x", "y", "z")))])
def test_power_term_pair_estimate_bounds_the_multiplies_done(text, ring, monkeypatch):
    f = parse_polynomial(text, ring)
    mul, pairs = polynomials._raw_product, []  # the one term-pair loop behind * and **
    monkeypatch.setattr(polynomials, "_raw_product",
                        lambda a, b: pairs.append(len(a) * len(b)) or mul(a, b))
    for e in range(16):
        pairs.clear()
        f ** e
        assert sum(pairs) <= f._power_term_pairs(e)
        if text == "x + 1":  # every power of x + 1 is dense, so the bound is exact
            assert sum(pairs) == f._power_term_pairs(e)


@pytest.mark.parametrize("text, ring, e, message", [
    ("x + y + 1", RF2, 95, "at least 1495584 term pairs"),
    ("x + y + 1", RQ2, 95, "at least 1495584 term pairs"),
    ("x + y + 1", RF2, 10 ** 15, "term pairs"),
    ("x + 1", RQ1, 1000, "at least 1662664 term pairs (weighted"),  # 415 666 pairs, 302 digits
    ("x + y + 1", RQ2, 100000, "up to 47713 digits"),
    ("2", RQ1, 20000, "up to 6021 digits"),
    ("x - 631/8530", RQ1, 2000, "digits"),
])
def test_power_past_a_limit_raises_before_multiplying(text, ring, e, message, monkeypatch):
    f = parse_polynomial(text, ring)
    monkeypatch.setattr(Polynomial, "__mul__", None)  # any multiply would fail
    monkeypatch.setattr(polynomials, "_raw_product", None)
    with pytest.raises(TooLarge, match=re.escape(message)):
        f ** e


def test_powers_under_the_limits_answer():
    assert (parse_polynomial("x + 1", PolyRing(Fp(32003), ("x",))) ** 1000).terms[(500,)]
    assert len((parse_polynomial("x + 1", RQ1) ** 900).terms) == 901
    assert parse_polynomial("x", RQ1) ** 10 ** 14 == Polynomial(RQ1, {(10 ** 14,): 1})
    assert parse_polynomial("10", RQ1) ** 4300 == Polynomial.constant(RQ1, 10 ** 4300)


def test_a_negative_or_non_integer_exponent_is_refused():
    x = parse_polynomial("x", RQ1)
    with pytest.raises(ValueError, match="non-negative integer"):
        x ** -1
    with pytest.raises(ValueError, match="non-negative integer"):
        x ** Fraction(1, 2)


def test_monomials_up_to():
    assert monomials_up_to(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(monomials_up_to(2, 2)) == 6
    assert len(monomials_up_to(3, 4)) == 35  # C(7,3)


def test_ring_descriptor_validation():
    from ringlab.errors import InvalidDomain, UnknownVariable

    with pytest.raises(InvalidDomain):
        PolyRing(QQ, ())
    with pytest.raises(InvalidDomain):
        PolyRing(QQ, ("x", "x"))
    with pytest.raises(InvalidDomain):
        PolyRing(QQ, ("2x",))
    with pytest.raises(InvalidDomain):
        PolyRing(QQ, ("a_b",))  # letters and digits only
    with pytest.raises(UnknownVariable):
        q("x^2").derivative("w")


# -- invariants ----------------------------------------------------------------


def _f2_corpus():
    monos = [e for e in itertools.product(range(3), repeat=2) if sum(e) <= 2]
    return [
        Polynomial(RF2, {m: b for m, b in zip(monos, bits) if b})
        for bits in itertools.product((0, 1), repeat=len(monos))
    ]


def test_ring_axioms_exhaustive_f2_degree_two():
    """Every ring law, over all 64^3 ordered triples of deg<=2 polys in F_2[x,y].

    Sums of corpus members stay in the corpus, so the additive laws reduce
    to an index table; products are interned so each distinct one is
    computed once.
    """
    polys = _f2_corpus()
    n = len(polys)
    assert n == 64
    index = {p: i for i, p in enumerate(polys)}
    zero_i = index[Polynomial.zero(RF2)]
    one = Polynomial.one(RF2)

    S = [[index[f + g] for g in polys] for f in polys]
    pool: dict[Polynomial, Polynomial] = {}
    P = [[pool.setdefault(f * g, f * g) for g in polys] for f in polys]

    # pairwise laws, exhaustively
    for i, f in enumerate(polys):
        assert S[i][zero_i] == i and S[zero_i][i] == i          # additive identity
        assert S[i][index[-f]] == zero_i                        # additive inverse
        assert one * f == f and f * one == f                    # multiplicative identity
        for j in range(n):
            assert S[i][j] == S[j][i]                           # + commutative
            assert P[i][j] == P[j][i]                           # * commutative

    # associativity of addition via the closed index table
    for i in range(n):
        for j in range(n):
            sij = S[S[i][j]]
            sj = S[j]
            si = S[i]
            for k in range(n):
                assert sij[k] == si[sj[k]]

    # associativity of multiplication, interned and memoized
    memo: dict[tuple[Polynomial, Polynomial], Polynomial] = {}

    def mul(a, b):
        key = (a, b)
        r = memo.get(key)
        if r is None:
            r = a * b
            memo[key] = r
        return r

    for i, f in enumerate(polys):
        pi = P[i]
        for j in range(n):
            fg = pi[j]
            pj = P[j]
            for k, h in enumerate(polys):
                assert mul(fg, h) == mul(f, pj[k])

    # distributivity, both sides
    for i in range(n):
        pi = P[i]
        for j in range(n):
            sj = S[j]
            pij = pi[j]
            for k in range(n):
                assert pi[sj[k]] == pij + pi[k]
    for i in range(n):
        si = S[i]
        for j in range(n):
            for k in range(n):
                pk = P[k]
                assert P[si[j]][k] == pk[i] + pk[j]


poly_strategies = {}


def _poly_strategy(ring, max_coeff=6, max_exp=3):
    if ring.domain == QQ:
        coeffs = st.fractions(min_value=-max_coeff, max_value=max_coeff, max_denominator=4)
    else:
        coeffs = st.integers(0, ring.domain.modulus - 1)
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    return st.dictionaries(exps, coeffs, max_size=5).map(lambda d: Polynomial(ring, d))


@settings(max_examples=150)
@given(_poly_strategy(RQ2))
def test_parse_format_round_trip_q(f):
    assert parse_polynomial(format_polynomial(f), RQ2) == f


@settings(max_examples=100)
@given(_poly_strategy(PolyRing(Fp(5), ("a1", "b2"))))
def test_parse_format_round_trip_f5_awkward_names(f):
    ring = PolyRing(Fp(5), ("a1", "b2"))
    assert parse_polynomial(format_polynomial(f), ring) == f


@settings(max_examples=100)
@given(_poly_strategy(RQ2), _poly_strategy(RQ2), _poly_strategy(RQ2))
def test_random_ring_laws_over_q(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=100)
@given(_poly_strategy(PolyRing(Fp(3), ("x", "y"))),
       _poly_strategy(PolyRing(Fp(3), ("x", "y"))),
       _poly_strategy(PolyRing(Fp(3), ("x", "y"))))
def test_random_ring_laws_over_f3(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert (f + g) * h == f * h + g * h


def test_degree_multiplicative_univariate_f3_exhaustive():
    ring = PolyRing(Fp(3), ("x",))
    polys = []
    for coeffs in itertools.product(range(3), repeat=5):
        f = Polynomial(ring, {(i,): c for i, c in enumerate(coeffs) if c})
        if not f.is_zero:
            polys.append(f)
    assert len(polys) == 3 ** 5 - 1
    for f in polys:
        for g in polys:
            assert (f * g).degree() == f.degree() + g.degree()


def test_evaluation_is_ring_homomorphism_exhaustive_f2():
    polys = _f2_corpus()
    dom = RF2.domain
    points = [
        tuple(dom.element(c) for c in pt)
        for pt in itertools.product(range(2), repeat=2)
    ]
    tables = [tuple(f.evaluate(pt).value for pt in points) for f in polys]
    for i, f in enumerate(polys):
        for j, g in enumerate(polys):
            sum_table = tuple((a + b) % 2 for a, b in zip(tables[i], tables[j]))
            prod_table = tuple((a * b) % 2 for a, b in zip(tables[i], tables[j]))
            assert tuple((f + g).evaluate(pt).value for pt in points) == sum_table
            assert tuple((f * g).evaluate(pt).value for pt in points) == prod_table


def _random_terms(rng, nvars, rational):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = rng.randint(-30, 30)
        terms[exps] = Fraction(c, rng.randint(1, 9)) if rational else c
    return terms


def _plain_value(terms, point, modulus):
    # oracle: sum of c * prod x^e in Python arithmetic, reduced once at the end
    total = sum(c * math.prod(x ** e for x, e in zip(point, exps)) for exps, c in terms.items())
    return total % modulus if modulus else total


@pytest.mark.parametrize("dom", [Fp(7), Zn(12), Zn(1), ZZ, QQ], ids=str)
def test_evaluate_matches_plain_arithmetic_on_random_polynomials(dom):
    rng = random.Random(f"evaluate {dom}")
    for _ in range(200):
        nvars = rng.randint(1, 3)
        ring = PolyRing(dom, ("x", "y", "z")[:nvars])
        terms = _random_terms(rng, nvars, dom == QQ)
        f = Polynomial(ring, terms)
        if dom == QQ:
            raw = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars))
        else:  # negative and >= modulus coordinates included
            raw = tuple(rng.randint(-40, 40) for _ in range(nvars))
        expected = _plain_value(terms, raw, dom.modulus)
        for point in (raw, tuple(dom.element(x) for x in raw)):
            value = f.evaluate(point)
            assert value.domain == dom
            assert value.value == expected and type(value.value) is type(dom.zero)


def test_evaluate_integer_polynomial_at_fractions_lands_in_q():
    rng = random.Random("evaluate Z at Q")
    ring = PolyRing(ZZ, ("x", "y"))
    for _ in range(100):
        terms = _random_terms(rng, 2, False)
        point = (rng.randint(-9, 9) + Fraction(1, rng.randint(2, 5)), Fraction(rng.randint(-9, 9)))
        late = (rng.randint(-9, 9), point[0])  # the coordinate that lifts the point comes last
        for pt, raw in ((point, point), (tuple(RingElement(QQ, x) for x in point), point),
                        (late, late), ((ZZ.element(late[0]), RingElement(QQ, late[1])), late)):
            value = Polynomial(ring, terms).evaluate(pt)
            assert value.domain == QQ and isinstance(value.value, Fraction)
            assert value.value == _plain_value(terms, raw, None)


# -- the evaluation kernel against a plain-dict oracle ---------------------------

KERNEL_DOMAINS = [Fp(2), Fp(7), Fp(997), Zn(12), Zn(1), Zn(10 ** 20), ZZ, QQ]


def _kernel_case(rng, dom):
    """Random terms (exponents past p included) and a point of raw coordinates."""
    nvars = rng.randint(1, 3)
    top = 2 * dom.modulus if dom.kind == "Fp" and dom.modulus < 100 else 12
    terms = {}
    for _ in range(rng.randint(0, 7)):
        exps = tuple(rng.choice((0, 1, rng.randint(0, top))) for _ in range(nvars))
        c = rng.randint(-10 ** 6, 10 ** 6)
        terms[exps] = Fraction(c, rng.randint(1, 12)) if dom == QQ else c
    if dom == QQ:
        point = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 7))) for _ in range(nvars))
    else:
        point = tuple(rng.randint(-50, 10 ** 6) for _ in range(nvars))
    return PolyRing(dom, ("x", "y", "z")[:nvars]), terms, point


@pytest.mark.parametrize("dom", KERNEL_DOMAINS, ids=str)
def test_evaluator_and_evaluate_match_a_plain_dict_oracle(dom):
    rng = random.Random(f"kernel {dom}")
    for _ in range(300):
        ring, terms, point = _kernel_case(rng, dom)
        f = Polynomial(ring, terms)
        expected = _plain_value(terms, point, dom.modulus)
        raw = tuple(dom.canon(x) for x in point)
        value = f.evaluator()(raw)
        if dom == QQ:  # the kernel evaluates D*f, D the lcm of f's denominators
            den = math.lcm(*(c.denominator for c in f.terms.values()))
            assert value == den * expected
        else:
            assert value == expected and type(value) is int
        assert (value == 0) == (expected == 0)
        element = f.evaluate(point)
        assert element.domain == dom and element.value == expected
        assert type(element.value) is type(dom.zero)


def test_evaluator_over_q_at_integer_points_stays_on_ints():
    rng = random.Random("kernel Q ints")
    ring = PolyRing(QQ, ("x", "y", "z"))
    for _ in range(200):
        terms = _random_terms(rng, 3, True)
        f = Polynomial(ring, terms)
        point = tuple(rng.randint(-5, 5) for _ in range(3))
        value = f.evaluator()(point)
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        assert type(value) is int and value == den * _plain_value(terms, point, None)


def test_evaluator_of_an_integer_polynomial_at_rational_coordinates():
    rng = random.Random("kernel Z at Q")
    ring = PolyRing(ZZ, ("x", "y"))
    for _ in range(100):
        terms = _random_terms(rng, 2, False)
        f = Polynomial(ring, terms)
        point = (rng.randint(-9, 9) + Fraction(1, rng.randint(2, 5)), Fraction(rng.randint(-9, 9)))
        expected = _plain_value(terms, point, None)
        assert f.evaluator()(point) == expected
        value = f.evaluate(point)
        assert value.domain == QQ and type(value.value) is Fraction and value.value == expected


def test_evaluator_with_exponents_past_p():
    ring = PolyRing(Fp(997), ("x", "y"))
    f = parse_polynomial("x^996*y^996-1", ring)
    kernel = f.evaluator()
    rng = random.Random("x^996*y^996-1")
    for x, y in [(0, 0), (0, 5), (1, 1), (996, 996)] + [(rng.randrange(997), rng.randrange(997))
                                                        for _ in range(200)]:
        expected = (x ** 996 * y ** 996 - 1) % 997
        assert kernel((x, y)) == expected == f.evaluate((x, y)).value
        assert (expected == 0) == (x != 0 and y != 0)  # Fermat


def test_evaluator_is_cached_and_leaves_equality_and_hash_alone():
    f = q("x^2*y - 3/2*x + 7")
    g = q("x^2*y - 3/2*x + 7")
    h = hash(f)
    kernel = f.evaluator()
    assert f.evaluator() is kernel
    assert f.evaluate((1, 2)).value == Fraction(15, 2)
    assert f.evaluator() is kernel
    assert f == g and hash(f) == h == hash(g)
    assert g.evaluator() is not kernel and g.evaluator()((1, 2)) == kernel((1, 2)) == 15
    assert (f + Polynomial.zero(RQ2)).evaluator() is not kernel  # results start uncached
    with pytest.raises(AttributeError):
        f._evaluator = None


def test_evaluate_rejects_foreign_coordinates_and_wrong_arity():
    ring = PolyRing(Fp(7), ("x", "y"))
    f = Polynomial(ring, {(2, 0): 1, (0, 1): 3})
    bad_points = [
        (Fraction(1, 2), 0),           # non-integral rational over F_p
        (Fp(5).element(1), 0),         # coordinate from another domain
        (Zn(7).element(1), 0),         # same modulus, different ring
        (1,),                          # too few coordinates
        (1, 2, 3),                     # too many
    ]
    for point in bad_points:
        with pytest.raises(DomainMismatch):
            f.evaluate(point)
    with pytest.raises(DomainMismatch):
        Polynomial(PolyRing(QQ, ("x",)), {(1,): 1}).evaluate((ZZ.element(1),))


# -- reduce once: every operation against plain dict arithmetic ----------------

REDUCE_ONCE_DOMAINS = [Zn(12), Zn(1), Fp(7), ZZ, QQ]


def _oracle(dom, raw):
    # plain sums and products reduced at the end: the residue map Z -> Z/n is a ring map
    out = {}
    for exps, c in raw.items():
        c = c % dom.modulus if dom.modulus else c
        if c != 0:
            out[exps] = c
    return out


def _oracle_add(f, g, sign=1):
    out = dict(f)
    for exps, c in g.items():
        out[exps] = out.get(exps, 0) + sign * c
    return out


def _oracle_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            exps = tuple(a + b for a, b in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return out


def _oracle_derivative(f, i):
    out = {}
    for exps, c in f.items():
        if exps[i]:
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[lower] = out.get(lower, 0) + exps[i] * c
    return out


def _assert_canonical(poly):
    dom = poly.ring.domain
    for c in poly.terms.values():
        assert c != 0
        if dom == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int
            if dom.modulus:
                assert 0 <= c < dom.modulus


@pytest.mark.parametrize("dom", REDUCE_ONCE_DOMAINS, ids=str)
def test_every_operation_matches_plain_dict_arithmetic_reduced_once(dom):
    rng = random.Random(f"reduce once {dom}")
    for _ in range(150):
        nvars = rng.randint(1, 3)
        ring = PolyRing(dom, ("x", "y", "z")[:nvars])
        # non-canonical input: coefficients negative and >= the modulus
        f_raw, g_raw = (_random_terms(rng, nvars, dom == QQ) for _ in range(2))
        f, g = Polynomial(ring, f_raw), Polynomial(ring, g_raw)
        e = rng.randint(0, 4)
        var = rng.randrange(nvars)
        power = {(0,) * nvars: 1}
        for _ in range(e):
            power = _oracle_mul(power, f_raw)
        cases = [
            (f, f_raw),
            (f + g, _oracle_add(f_raw, g_raw)),
            (f - g, _oracle_add(f_raw, g_raw, -1)),
            (f - f, {}),
            (-f, {exps: -c for exps, c in f_raw.items()}),
            (f * g, _oracle_mul(f_raw, g_raw)),
            (f ** e, power),
            (f.derivative(ring.variables[var]), _oracle_derivative(f_raw, var)),
        ]
        for got, raw in cases:
            _assert_canonical(got)
            assert got.terms == _oracle(dom, raw)


def test_constructor_sums_duplicate_monomials_once():
    ring = PolyRing(Zn(6), ("x",))
    f = Polynomial(ring, {(1,): 4, ("1",): 2, (0,): 13, ("0",): -6})  # keys meet after int()
    assert f.terms == {(0,): 1}
    _assert_canonical(f)


def test_zero_divisors_characteristic_p_and_cancellation():
    z6 = PolyRing(Zn(6), ("x",))
    two_x, three_x = Polynomial(z6, {(1,): 2}), Polynomial(z6, {(1,): 3})
    assert (two_x * three_x).is_zero  # 6x^2 = 0 over Z/6
    assert (two_x * Polynomial(z6, {(1,): 4, (0,): 3})).terms == {(2,): 2}
    f7 = PolyRing(Fp(7), ("x", "y"))
    assert Polynomial(f7, {(7, 0): 1}).derivative("x").is_zero  # d/dx x^7 = 7x^6 = 0
    assert Polynomial(f7, {(7, 1): 3, (2, 0): 1}).derivative("x").terms == {(1, 0): 2}
    for ring in (z6, f7, RQ2, PolyRing(ZZ, ("x",)), PolyRing(Zn(1), ("x",))):
        f = Polynomial(ring, {(1,) + (0,) * (ring.nvars - 1): 5, (0,) * ring.nvars: -2})
        assert (f - f).terms == {} and (f + (-f)).terms == {}
        assert Polynomial(ring, {(0,) * ring.nvars: ring.domain.modulus or 0}).is_zero


# -- products and powers on integer numerators, against dict-of-Fractions arithmetic:
# over Q the oracle multiplies one Fraction per term pair

MUL_POW_DOMAINS = [QQ, ZZ, Fp(7), Zn(12)]


def _oracle_pow(f, e, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(e):
        out = _oracle_mul(out, f)
    return out


def _wide_coefficient(rng, rational):
    size = rng.choice((10, 10 ** 30))
    num = rng.randint(-size, size)
    return Fraction(num, rng.choice((1, 6, rng.randint(1, 10 ** 30)))) if rational else num


def _operand(rng, nvars, rational, most=5):
    return {tuple(rng.randint(0, 3) for _ in range(nvars)): _wide_coefficient(rng, rational)
            for _ in range(rng.randint(0, most))}


def _assert_lowest_terms(p):
    _assert_canonical(p)
    if p.ring.domain == QQ:
        assert all(c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
                   for c in p.terms.values())


@pytest.mark.parametrize("dom", MUL_POW_DOMAINS, ids=str)
def test_products_and_powers_match_fraction_dict_arithmetic(dom):
    rng = random.Random(f"integer parts {dom}")
    for _ in range(120):
        nvars = rng.randint(1, 3)
        ring = PolyRing(dom, ("x", "y", "z")[:nvars])
        f_raw, g_raw = (_operand(rng, nvars, dom == QQ) for _ in range(2))
        if rng.random() < 0.2:  # a constant, or the zero polynomial when the draw is 0
            g_raw = {(0,) * nvars: _wide_coefficient(rng, dom == QQ)}
        f, g = Polynomial(ring, f_raw), Polynomial(ring, g_raw)
        got = f * g
        _assert_lowest_terms(got)
        assert got.terms == _oracle(dom, _oracle_mul(f_raw, g_raw))
        small = _operand(rng, nvars, dom == QQ, most=3)
        for base_raw, e in ((small, rng.randint(0, 5)), (f_raw, 0), (f_raw, 1), (g_raw, 2)):
            got = Polynomial(ring, base_raw) ** e
            _assert_lowest_terms(got)
            assert got.terms == _oracle(dom, _oracle_pow(base_raw, e, nvars))


@pytest.mark.parametrize("dom", MUL_POW_DOMAINS, ids=str)
def test_cancelling_terms_and_contents_leave_reduced_coefficients(dom):
    ring = PolyRing(dom, ("x", "y"))
    x, y = Polynomial.variable(ring, "x"), Polynomial.variable(ring, "y")
    square = {(2, 0): 1, (0, 2): dom.modulus - 1 if dom.modulus else -1}
    assert ((x + y) * (x - y)).terms == square  # the xy terms cancel
    assert ((x - y) ** 2 - x ** 2 - y ** 2 + 2 * x * y).is_zero
    if dom == QQ:  # (x/6)(3y) = xy/2: the contents cancel down to lowest terms
        sixth = Polynomial(ring, {(1, 0): Fraction(1, 6)})
        got = sixth * Polynomial(ring, {(0, 1): 3})
        assert got.terms == {(1, 1): Fraction(1, 2)} and got.terms[(1, 1)].denominator == 2
        assert ((Polynomial(ring, {(1, 0): Fraction(2, 3), (0, 0): Fraction(3, 4)})) ** 2).terms \
            == {(2, 0): Fraction(4, 9), (1, 0): 1, (0, 0): Fraction(9, 16)}
        assert (sixth * Polynomial(ring, {(0, 0): 6}) - x).is_zero
    if dom == Zn(12):  # 4 * 3 = 0 and 6^2 = 0 in Z/12
        assert (Polynomial(ring, {(1, 0): 4}) * Polynomial(ring, {(0, 1): 3})).is_zero
        assert (Polynomial(ring, {(1, 0): 6, (0, 0): 6}) ** 2).is_zero
