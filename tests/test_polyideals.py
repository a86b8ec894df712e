import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import polyideals
from ringlab.domains import Fp, QQ, Zn, ZZ
from ringlab.errors import (
    InseparableCase,
    NotEnoughVariables,
    RingMismatch,
    TooLarge,
    UnsupportedDomain,
    ZeroIdeal,
    ZeroPolynomial,
)
from ringlab.parsing import parse_polynomial
from ringlab.polyideals import (
    EQUAL_WITHIN_BOUND,
    IdealPresentation,
    LEFT_NOT_IN_RIGHT,
    MEMBER,
    NON_MEMBER,
    RIGHT_NOT_IN_LEFT,
    UNKNOWN,
    common_zeros,
    divmod_univariate,
    gcd_univariate,
    hbt_extract_univariate,
    ideal_equal_bounded,
    membership_bounded,
    monic,
    radical_univariate,
    solve_in_span,
    strict_chain_demo,
)
from ringlab.polynomials import Polynomial, PolyRing

RQ1 = PolyRing(QQ, ("x",))
RF5 = PolyRing(Fp(5), ("x",))
RF3_2 = PolyRing(Fp(3), ("x", "y"))
RF2_2 = PolyRing(Fp(2), ("x", "y"))
RQ2 = PolyRing(QQ, ("x", "y"))
RF5_2 = PolyRing(Fp(5), ("x", "y"))
SPAN_RINGS = pytest.mark.parametrize("ring", [RQ2, RF5_2], ids=["q", "fp5"])


def q1(t):
    return parse_polynomial(t, RQ1)


def f5(t):
    return parse_polynomial(t, RF5)


def test_member_with_factor_cofactor():
    ideal = IdealPresentation(RQ1, (q1("x-1"),))
    cert = membership_bounded(q1("x^2-1"), ideal, 1)
    assert cert.verdict == MEMBER
    assert cert.cofactors == (q1("x+1"),)
    assert cert.verify(q1("x^2-1"), ideal)


def test_one_not_in_proper_ideal_over_f5():
    ideal = IdealPresentation(RF5, (f5("x"),))
    for bound in (0, 1, 4):
        cert = membership_bounded(f5("1"), ideal, bound)
        assert cert.verdict == NON_MEMBER
        assert [w.value for w in cert.witness] == [0]
        assert cert.verify(f5("1"), ideal)


def test_y_not_in_ideal_of_x():
    ring = PolyRing(Fp(3), ("x", "y"))
    ideal = IdealPresentation(ring, (parse_polynomial("x", ring),))
    cert = membership_bounded(parse_polynomial("y", ring), ideal, 3)
    assert cert.verdict == NON_MEMBER
    assert all(g.evaluate(cert.witness).is_zero for g in ideal.generators)
    assert not parse_polynomial("y", ring).evaluate(cert.witness).is_zero


def test_zero_ideal_membership():
    empty = IdealPresentation(RQ1, ())
    assert membership_bounded(Polynomial.zero(RQ1), empty, 0).verdict == MEMBER
    cert = membership_bounded(q1("x"), empty, 2)
    assert cert.verdict == NON_MEMBER  # witness on the integer grid


def test_unknown_verdict_over_q_without_grid_witness():
    # x is not in (x^2+1), but x^2+1 never vanishes on the rational grid
    ideal = IdealPresentation(RQ1, (q1("x^2+1"),))
    cert = membership_bounded(q1("x"), ideal, 2)
    assert cert.verdict == UNKNOWN
    assert cert.bound == 2


@pytest.mark.parametrize("ring", [RQ2, RF5_2, PolyRing(QQ, ("x", "y", "z"))], ids=str)
def test_matrix_cell_estimate_bounds_the_matrix_that_is_built(ring, monkeypatch):
    cases = [("x^3*y - 1", ("x^2 + y", "x*y - 1"), 3), ("y^5", ("x",), 4),
             ("1", ("x^2 - y", "y^3 + x*y + 1", "x + y + 1"), 2), ("x^7 + y", ("x*y",), 1)]
    solvers = {"solve_rational": polyideals.solve_rational, "solve_mod_p": polyideals.solve_mod_p}
    for f, gens, bound in cases:
        f = parse_polynomial(f, ring)
        ideal = IdealPresentation(ring, tuple(parse_polynomial(g, ring) for g in gens))
        cells = []
        for name, solve in solvers.items():
            monkeypatch.setattr(polyideals, name, lambda rows, *rest, solve=solve:
                                cells.append(len(rows) * len(rows[0])) or solve(rows, *rest))
        monkeypatch.setattr(polyideals, "MATRIX_CELL_LIMIT", 10 ** 7)
        membership_bounded(f, ideal, bound)
        monkeypatch.setattr(polyideals, "MATRIX_CELL_LIMIT", cells[0] - 1)
        with pytest.raises(TooLarge, match=f"at bound {bound} exceeds the limit of {cells[0] - 1}"):
            membership_bounded(f, ideal, bound)


def test_integer_coefficients_rejected():
    rz = PolyRing(ZZ, ("x",))
    ideal = IdealPresentation(rz, (parse_polynomial("x", rz),))
    with pytest.raises(UnsupportedDomain):
        membership_bounded(parse_polynomial("x^2", rz), ideal, 1)


def test_membership_monotone_in_bound():
    ideal = IdealPresentation(RQ1, (q1("x-1"),))
    f = q1("x^3-1")
    for bound in (2, 3, 5):
        assert membership_bounded(f, ideal, bound).verdict == MEMBER
    assert membership_bounded(f, ideal, 0).verdict == UNKNOWN


def test_unit_ideal_spreads_membership():
    # 1 is a bounded member, so everything of small degree follows it in
    ideal = IdealPresentation(RQ1, (q1("x"), q1("x+1")))
    assert membership_bounded(q1("1"), ideal, 0).verdict == MEMBER
    for text in ("x^2", "x^3 - x + 2", "7"):
        f = q1(text)
        bound = 0 + max(0, int(f.total_degree()))
        assert membership_bounded(f, ideal, bound).verdict == MEMBER


def test_ideal_equality_via_gcd():
    left = IdealPresentation(RQ1, (q1("x^2-1"), q1("x^3-1")))
    right = IdealPresentation(RQ1, (q1("x-1"),))
    # gcd oracle: euclid on coefficient lists gives x - 1, so the ideals match
    assert ideal_equal_bounded(left, right, 3).kind == EQUAL_WITHIN_BOUND


def test_ideal_inequality_with_witness():
    left = IdealPresentation(RF2_2, (parse_polynomial("x", RF2_2),))
    right = IdealPresentation(RF2_2, (parse_polynomial("x", RF2_2),
                                      parse_polynomial("y", RF2_2)))
    cmp = ideal_equal_bounded(left, right, 2)
    assert cmp.kind == RIGHT_NOT_IN_LEFT
    assert cmp.offending == parse_polynomial("y", RF2_2)
    assert cmp.certificate.verdict == NON_MEMBER


@pytest.mark.parametrize("left, right, kind, offending", [
    (("x", "y"), ("y",), LEFT_NOT_IN_RIGHT, "x"),
    (("x",), ("y",), LEFT_NOT_IN_RIGHT, "x"),       # both directions fail: left is checked first
    (("x",), ("x^2", "y"), RIGHT_NOT_IN_LEFT, "y"),  # an unknown left verdict does not decide
    (("x",), ("x^2",), UNKNOWN, None),
    (("x^2", "y"), ("y", "x^2"), EQUAL_WITHIN_BOUND, None),
])
def test_ideal_comparison_order_of_verdicts(left, right, kind, offending):
    def ideal(gens):
        return IdealPresentation(RF3_2, tuple(parse_polynomial(g, RF3_2) for g in gens))
    cmp = ideal_equal_bounded(ideal(left), ideal(right), 2)
    assert cmp.kind == kind
    assert cmp.offending == (offending and parse_polynomial(offending, RF3_2))


def test_ideal_equal_to_itself_at_bound_zero():
    f = q1("x^2+3")
    ideal = IdealPresentation(RQ1, (f,))
    assert ideal_equal_bounded(ideal, ideal, 0).kind == EQUAL_WITHIN_BOUND


# -- univariate division, gcd, radical ---------------------------------------


def test_divmod_univariate():
    quo, rem = divmod_univariate(q1("x^3-1"), q1("x-1"))
    assert quo == q1("x^2+x+1") and rem.is_zero
    quo, rem = divmod_univariate(q1("x^2"), q1("x+1"))
    assert quo == q1("x-1") and rem == q1("1")
    with pytest.raises(ZeroPolynomial):
        divmod_univariate(q1("x"), Polynomial.zero(RQ1))


def _list_euclid(p):
    """An independent oracle on dense coefficient lists (low degree first) over F_p,
    or over Q when p is None: divmod, monic gcd and radical."""
    def red(c):
        return c % p if p else c

    def norm(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def inv(c):
        return pow(c, -1, p) if p else Fraction(1) / c

    def monic(v):
        return [red(c * inv(v[-1])) for c in v] if v else v

    def divmod_(f, g):
        f, k = norm(f[:]), inv(g[-1])
        q = [0] * max(len(f) - len(g) + 1, 0)
        while len(f) >= len(g):
            c, s = red(f[-1] * k), len(f) - len(g)
            q[s] = c
            for i, gc in enumerate(g):
                f[s + i] = red(f[s + i] - c * gc)
            norm(f)
        return norm(q), f

    def gcd(a, b):
        a, b = norm(a[:]), norm(b[:])
        while b:
            a, b = b, divmod_(a, b)[1]
        return monic(a)

    def radical(f):
        df = norm([red(i * c) for i, c in enumerate(f)][1:])
        return monic(divmod_(f, gcd(f, df))[0]) if df else None  # None: f' vanishes

    return divmod_, gcd, radical


def test_gcd_univariate_matches_coefficient_list_euclid():
    rng = random.Random(12)

    def to_list(f):
        return [f.terms.get((i,), 0) for i in range(int(f.degree()) + 1)] if f.terms else []

    for field, p in ((QQ, None), (Fp(2), 2), (Fp(7), 7), (Fp(32003), 32003)):
        ring = PolyRing(field, ("x",))
        divmod_, gcd, radical = _list_euclid(p)

        def coeff():  # over Q non-monic, with denominators
            if p is None:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            return rng.randrange(p)

        def dense(deg):
            return Polynomial(ring, {(i,): coeff() for i in range(deg + 1)})

        pairs = []
        if p is None:  # small hand-picked pairs
            pairs = [(q1(ta), q1(tb)) for ta, tb in (("x^2-1", "x^3-1"), ("x^2", "x^3+x"),
                                                       ("x^4-1", "x^2+1"), ("3", "x"))]
        for _ in range(30):  # dense, often with a common factor
            common = dense(rng.randint(0, 4)) if rng.random() < 0.7 else Polynomial.one(ring)
            pairs.append((dense(rng.randint(0, 12)) * common, dense(rng.randint(0, 8)) * common))
        for _ in range(6):  # sparse binomials of high degree
            a, b = rng.randint(100, 400), rng.randint(2, 300)
            pairs.append((Polynomial(ring, {(a,): 1, (0,): coeff() or 1}),
                          Polynomial(ring, {(b,): coeff() or 1, (0,): coeff()})))
        for f, g in pairs:
            la, lb = to_list(f), to_list(g)
            assert to_list(gcd_univariate(f, g)) == gcd(la, lb), (f, g)
            if not g.is_zero:
                quo, rem = divmod_univariate(f, g)
                assert (to_list(quo), to_list(rem)) == divmod_(la, lb), (f, g)
            if f.is_zero:
                continue
            expected = radical(la)
            if expected is None and f.degree() >= 1:
                with pytest.raises(InseparableCase):
                    radical_univariate(f)
            else:
                assert to_list(radical_univariate(f)) == (expected or [1]), f


def test_radical_examples():
    assert radical_univariate(q1("x^2")) == q1("x")
    assert radical_univariate(q1("x")) == q1("x")
    assert radical_univariate(q1("(x^2+1)^2")) == q1("x^2+1")
    assert radical_univariate(q1("5")) == q1("1")


def test_radical_errors():
    with pytest.raises(ZeroPolynomial):
        radical_univariate(Polynomial.zero(RQ1))
    with pytest.raises(InseparableCase):
        radical_univariate(f5("x^5"))  # derivative vanishes identically


@settings(max_examples=80)
@given(st.dictionaries(st.integers(0, 5),
                       st.fractions(min_value=-5, max_value=5, max_denominator=3),
                       min_size=1, max_size=4))
def test_radical_idempotent_and_absorbing(coeffs):
    f = Polynomial(RQ1, {(e,): c for e, c in coeffs.items()})
    if f.is_zero:
        return
    r = radical_univariate(f)
    assert radical_univariate(r) == r
    # f always sits inside (radical(f)) at bound deg f
    ideal = IdealPresentation(RQ1, (r,))
    bound = max(0, int(f.total_degree()))
    assert membership_bounded(f, ideal, bound).verdict == MEMBER


# -- the chain demo and the extraction demonstrator ---------------------------


def test_chain_demo_single_step():
    ring = PolyRing(QQ, ("x1", "x2"))
    steps = strict_chain_demo(1, ring)
    assert len(steps) == 1
    assert steps[0].new_variable == "x2"
    assert [w.value for w in steps[0].certificate.witness] == [0, 1]


def test_chain_demo_three_steps_f2():
    ring = PolyRing(Fp(2), ("x1", "x2", "x3", "x4"))
    steps = strict_chain_demo(3, ring)
    assert len(steps) == 3
    for s in steps:
        ideal = IdealPresentation(
            ring, tuple(Polynomial.variable(ring, v) for v in s.ideal_vars))
        assert s.certificate.verify(Polynomial.variable(ring, s.new_variable), ideal)


@pytest.mark.parametrize("k, nvars", [(1, 2), (3, 4), (5, 9), (12, 13)])
def test_chain_size_estimate_counts_the_coordinates_evaluated(k, nvars, monkeypatch):
    ring = PolyRing(Fp(3), tuple(f"x{i}" for i in range(1, nvars + 1)))
    evaluate, coords = Polynomial.evaluate, []
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda f, point: coords.append(len(point)) or evaluate(f, point))
    strict_chain_demo(k, ring)
    total = sum(coords)
    monkeypatch.setattr(polyideals, "WORK_LIMIT", total)
    strict_chain_demo(k, ring)
    monkeypatch.setattr(polyideals, "WORK_LIMIT", total - 1)
    with pytest.raises(TooLarge, match=f"evaluates {total} coordinates"):
        strict_chain_demo(k, ring)


def test_chain_demo_zero_is_vacuous():
    assert strict_chain_demo(0, PolyRing(QQ, ("x1",))) == []


def test_chain_demo_over_the_zero_ring_is_a_domain_error():
    ring = PolyRing(Zn(1), ("x1", "x2"))
    assert strict_chain_demo(0, ring) == []
    with pytest.raises(UnsupportedDomain, match="zero ring"):
        strict_chain_demo(1, ring)


def test_chain_demo_needs_variables():
    with pytest.raises(NotEnoughVariables):
        strict_chain_demo(3, PolyRing(QQ, ("x1", "x2")))


def test_hbt_extraction_examples():
    res = hbt_extract_univariate(IdealPresentation(RF5, (f5("x^2-1"), f5("x^3-1"))))
    assert res.extracted == f5("x-1")
    assert res.leading_profile == (False, True, True, True)
    assert res.verified_equal

    res = hbt_extract_univariate(IdealPresentation(RF5, (f5("x"),)))
    assert res.extracted == f5("x")
    assert res.leading_profile == (False, True)
    assert res.verified_equal

    res = hbt_extract_univariate(IdealPresentation(RF5, (f5("2"), f5("x"))))
    assert res.extracted == f5("1")
    assert res.leading_profile == (True, True)
    assert res.verified_equal


def test_hbt_rejects_zero_ideal_and_wrong_domains():
    with pytest.raises(ZeroIdeal):
        hbt_extract_univariate(IdealPresentation(RF5, ()))
    with pytest.raises(UnsupportedDomain):
        hbt_extract_univariate(IdealPresentation(RQ1, (q1("x"),)))


def test_hbt_extracted_divides_every_generator():
    rng = random.Random(9)
    for _ in range(50):
        gens = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {(e,): rng.randrange(5) for e in range(rng.randint(1, 4))}
            g = Polynomial(RF5, coeffs)
            if not g.is_zero:
                gens.append(g)
        if not gens:
            continue
        res = hbt_extract_univariate(IdealPresentation(RF5, tuple(gens)))
        for g in gens:
            _, rem = divmod_univariate(g, res.extracted)
            assert rem.is_zero


# -- the shared span solve ---------------------------------------------------


def _combination(coeffs, columns, ring):
    total = Polynomial.zero(ring)
    for c, col in zip(coeffs, columns):
        total = total + Polynomial.constant(ring, c) * col
    return total


@SPAN_RINGS
def test_solve_in_span_reconstructs_a_target_in_the_span(ring):
    cols = [parse_polynomial(t, ring) for t in ("x + y", "x*y - 1", "y^2")]
    target = parse_polynomial("2*x + 2*y - 3*x*y + 3 + y^2", ring)
    sol = solve_in_span(target, cols, [(0, 0)])
    assert sol is not None and len(sol) == 3
    assert _combination(sol, cols, ring) == target
    assert [ring.domain.canon(c) for c in sol] == [ring.domain.canon(c) for c in (2, -3, 1)]


@SPAN_RINGS
def test_solve_in_span_rejects_a_target_outside_the_span(ring):
    cols = [parse_polynomial(t, ring) for t in ("x + y", "x*y")]
    assert solve_in_span(parse_polynomial("x", ring), cols, [(0, 0)]) is None
    assert solve_in_span(parse_polynomial("x + y + 1", ring), cols, [(0, 0)]) is None


@SPAN_RINGS
def test_solve_in_span_gives_a_duplicated_column_coefficient_zero(ring):
    x, y = (parse_polynomial(v, ring) for v in ("x", "y"))
    sol = solve_in_span(parse_polynomial("3*x + y", ring), [x, x, y], [(0, 0)])
    assert [ring.domain.canon(c) for c in sol] == [ring.domain.canon(c) for c in (3, 0, 1)]


@SPAN_RINGS
def test_solve_in_span_with_no_columns(ring):
    assert solve_in_span(Polynomial.zero(ring), [], [(0, 0)]) == []
    assert solve_in_span(parse_polynomial("x", ring), [], [(0, 0)]) is None
    assert solve_in_span(parse_polynomial("1", ring), [], [(0, 0)]) is None


@SPAN_RINGS
def test_solve_in_span_lays_out_generator_i_shifted_by_shifts_k_at_i_times_len_plus_k(ring):
    gens = [parse_polynomial(t, ring) for t in ("x + 1", "y")]
    shifts = [(0, 0), (1, 0), (0, 1)]
    sol = solve_in_span(parse_polynomial("2*x^2 + x + 3*y^2 + y - 1", ring), gens, shifts)
    assert [ring.domain.canon(c) for c in sol] == [ring.domain.canon(c)
                                                   for c in (-1, 2, 0, 1, 0, 3)]
    assert solve_in_span(parse_polynomial("x^2*y", ring), gens, shifts) is None


# -- the Q-grid scan against Fraction brute force ---------------------------------


def _fraction_value(f, point):
    # oracle: f's Fraction coefficients at Fraction coordinates, independent of the kernel
    return sum(c * math.prod(x ** e for x, e in zip(point, exps)) for exps, c in f.terms.items())


def _grid_ideal(rng, ring):
    """Generators with zeros on the grid: products of shifted coordinates, plus random
    terms over a rational denominator."""
    names = ring.variables
    gens = []
    for _ in range(rng.randint(0, 3)):
        text = "*".join(f"({rng.choice(names)} - {rng.randint(-6, 6)})"
                        for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.4:
            text += f" + {rng.randint(-3, 3)}/{rng.randint(1, 4)}*"
            text += f"{rng.choice(names)}^{rng.randint(0, 3)}"
        gens.append(parse_polynomial(text, ring))
    return IdealPresentation(ring, tuple(gens))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_common_zeros_over_q_match_fraction_brute_force(nvars):
    ring = PolyRing(QQ, ("x", "y", "z")[:nvars])
    grid = [Fraction(v) for v in range(-5, 6)]
    rng = random.Random(f"Q grid {nvars}")
    for _ in range(40 if nvars < 3 else 12):
        ideal = _grid_ideal(rng, ring)
        expected = [pt for pt in itertools.product(grid, repeat=nvars)
                    if all(_fraction_value(g, pt) == 0 for g in ideal.generators)]
        got = list(common_zeros(ideal))
        assert [tuple(c.value for c in pt) for pt in got] == expected
        assert all(c.domain == QQ and type(c.value) is Fraction for pt in got for c in pt)
        f = parse_polynomial(f"{rng.choice(ring.variables)} - {rng.randint(-5, 5)}", ring)
        cert = membership_bounded(f, ideal, 0)
        if cert.verdict != MEMBER:  # the witness is the first common zero where f is nonzero
            first = next((pt for pt in expected if _fraction_value(f, pt) != 0), None)
            assert cert.verdict == (UNKNOWN if first is None else NON_MEMBER)
            assert cert.witness is None or tuple(c.value for c in cert.witness) == first


# -- the fibre construction against the plain product scan ------------------------


def _product_scan(ideal):
    """Oracle: every point of the scan, kept when each generator's kernel is zero there."""
    dom = ideal.ring.domain
    values = range(-5, 6) if dom == QQ else range(dom.modulus)
    kernels = [g.evaluator() for g in ideal.generators]
    return [pt for pt in itertools.product(values, repeat=ideal.ring.nvars)
            if not any(k(pt) for k in kernels)]


def _scan_values(ideal):
    got = list(common_zeros(ideal))
    assert all(c.domain == ideal.ring.domain for pt in got for c in pt)
    return [tuple(c.value for c in pt) for pt in got]


def _random_ideal(rng, ring):
    """Up to two generators: random sparse terms of per-variable degree up to 4, or a
    product of shifted coordinates, which has zeros on every field and on the grid."""
    names, over_q = ring.variables, ring.domain == QQ
    gens = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        if rng.random() < 0.5:
            text = "*".join(f"({rng.choice(names)} - {rng.randint(-5, 5)})"
                            for _ in range(rng.randint(1, 3)))
        else:
            text = " + ".join(
                (f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}" if over_q else str(rng.randint(0, 12)))
                + "".join(f"*{v}^{rng.randint(0, 4)}" for v in names)
                for _ in range(rng.randint(1, 4)))
        gens.append(parse_polynomial(text, ring))
    return IdealPresentation(ring, tuple(gens))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("field", ["fp:2", "fp:3", "fp:5", "fp:7", "fp:11", "q"])
def test_common_zeros_match_the_product_scan(field, nvars):
    dom = QQ if field == "q" else Fp(int(field[3:]))
    ring = PolyRing(dom, ("x", "y", "z")[:nvars])
    rng = random.Random(f"fibres {field} {nvars}")
    for _ in range(30 if nvars < 3 else 10):
        ideal = _random_ideal(rng, ring)
        assert _scan_values(ideal) == _product_scan(ideal), ideal


@pytest.mark.parametrize("field", ["fp:7", "q"])
@pytest.mark.parametrize("gens", [
    [],  # the zero ideal: every point
    ["3"],  # a nonzero constant: no point
    ["x^2 - y"],  # free of the last variable: whole fibres
    ["z^3 - z"],  # in the last variable alone: one column for the whole scan
    ["x*z^2 + y*z + x"],  # the higher coefficients differ on every prefix
    ["x*z - 1", "y - z^2"],  # two generators
    ["z^9 + 2*z^2 - x*y^4*z^8"],  # exponents past p - 1
    # more degrees in z than F_7 has values: folded onto degrees 1-6 over F_7
    ["z^8 + z^7 + 2*z^6 + z^5 + z^4 + 3*z^3 + z^2 + x*z + y"],
])
def test_common_zeros_edge_shapes(field, gens):
    ring = PolyRing(QQ if field == "q" else Fp(7), ("x", "y", "z"))
    ideal = IdealPresentation(ring, tuple(parse_polynomial(g, ring) for g in gens))
    assert _scan_values(ideal) == _product_scan(ideal)


@pytest.mark.parametrize("field", ["fp:101", "fp:5", "q"])
def test_common_zeros_when_every_fibre_has_its_own_column(field):
    ring = PolyRing(QQ if field == "q" else Fp(int(field[3:])), ("x", "y"))
    ideal = IdealPresentation(ring, (parse_polynomial("x*y^2 + y + x", ring),))
    assert _scan_values(ideal) == _product_scan(ideal)


@pytest.fixture
def built(monkeypatch):
    """The key of every fibre column common_zeros builds, in order."""
    keys, column = [], polyideals._column
    monkeypatch.setattr(polyideals, "_column", lambda *a: keys.append(a[0]) or column(*a))
    return keys


def test_common_zeros_builds_columns_only_as_far_as_the_first_hit(built):
    ring = PolyRing(Fp(997), ("x", "y"))
    first = next(common_zeros(IdealPresentation(ring, (parse_polynomial("y - x", ring),))))
    assert [c.value for c in first] == [0, 0] and built == [(1,)]
    built.clear()  # x*y - 1: prefix 0 has no root, prefix 1 has y = 1
    first = next(common_zeros(IdealPresentation(ring, (parse_polynomial("x*y - 1", ring),))))
    assert [c.value for c in first] == [1, 1] and built == [(0,), (1,)]


def test_common_zeros_fold_exponents_of_the_last_variable_before_building_columns(built):
    ring = PolyRing(Fp(3), ("x", "y"))
    # v^4 = v^2 and v^3 = v on F_3: the first is 2*y^2 + 2*y + x, one column on degrees 1 and 2
    for text, keys in (("y^4 + y^3 + y^2 + y + x", [(2, 2)]),
                       ("y^2 + x*y + 1", [(0, 1), (1, 1), (2, 1)])):
        ideal = IdealPresentation(ring, (parse_polynomial(text, ring),))
        built.clear()
        assert _scan_values(ideal) == _product_scan(ideal) and built == keys


def test_a_q_column_sums_any_number_of_degrees_without_nesting_maps():
    # some 10^5 nested maps overflow the C stack; a Q generator may have that many degrees
    key, powers = (1,) * 200_000, [range(-5, 6)] * 200_000
    assert polyideals._column(key, powers, None, 11) == [200_000 * v for v in range(-5, 6)]


def test_a_zero_scan_is_charged_before_its_first_point_and_per_fibre_column(monkeypatch):
    ring = PolyRing(Fp(3), ("x", "y"))
    ideal = IdealPresentation(ring, (parse_polynomial("y^2 + x*y + 1", ring),))
    # up front: y^2, x*y and 1 take 1 + 2, 1 + 1 + 1 and 1 steps at each of 3 prefixes, and
    # v^1 and v^2 take 1 + 1 and 1 + 2 steps for each of 3 values; then 3 slots * 2 degrees
    # for each of the 3 columns, the first built before the first point
    upfront = 3 * 7 + 3 * 5
    monkeypatch.setattr(polyideals, "SCAN_WORK_LIMIT", upfront + 3 * 6)
    assert _scan_values(ideal) == _product_scan(ideal) == [(1, 1), (2, 2)]
    for columns, before in ((1, []), (2, []), (3, [(1, 1)])):
        spent = upfront + columns * 6
        monkeypatch.setattr(polyideals, "SCAN_WORK_LIMIT", spent - 1)
        got = []
        with pytest.raises(TooLarge, match=rf"3\^2 points through a 3-term generator takes about "
                                           rf"{spent} kernel steps, over the limit of {spent - 1}"):
            for point in common_zeros(ideal):
                got.append(tuple(c.value for c in point))
        assert got == before


def test_a_q_scan_is_charged_by_the_size_of_its_powers_before_any_kernel_is_built(monkeypatch):
    ring = PolyRing(QQ, ("x",))
    ideal = IdealPresentation(ring, (parse_polynomial("x^128 + x^64 + 1", ring),))
    # 1 prefix of 1 + 8, 1 + 7 and 1 steps; v^64 and v^128 take 1 + 7 + 3 and 1 + 8 + 6 steps
    # for each of 11 values (v^k has up to 3k bits, a step per 64); then 11 slots * 2 degrees
    spent = 18 + 11 * 26 + 11 * 2
    monkeypatch.setattr(polyideals, "SCAN_WORK_LIMIT", spent)
    assert list(common_zeros(ideal)) == []
    kernel, built = polyideals._kernel, []
    monkeypatch.setattr(polyideals, "_kernel", lambda *a: built.append(a) or kernel(*a))
    monkeypatch.setattr(polyideals, "SCAN_WORK_LIMIT", spent - 1)
    with pytest.raises(TooLarge, match=rf"takes about {spent} kernel steps"):
        next(common_zeros(ideal))
    assert len(built) == 1  # the constant term's, not one per degree


# -- the documented errors at the library's doors ------------------------------


def test_doors_refuse_a_polynomial_from_another_ring():
    x_q, x_f5 = q1("x"), f5("x")
    with pytest.raises(RingMismatch, match="generator ring"):
        IdealPresentation(RQ1, (x_q, x_f5))
    with pytest.raises(RingMismatch):
        membership_bounded(x_f5, IdealPresentation(RQ1, (x_q,)), 1)
    with pytest.raises(RingMismatch):
        ideal_equal_bounded(IdealPresentation(RQ1, (x_q,)), IdealPresentation(RF5, (x_f5,)), 1)
    with pytest.raises(RingMismatch):
        gcd_univariate(x_q, x_f5)


def test_gcd_needs_one_variable_and_field_coefficients():
    xy = parse_polynomial("x*y", RQ2)
    with pytest.raises(UnsupportedDomain, match="univariate division only"):
        gcd_univariate(xy, xy)
    rz = PolyRing(ZZ, ("x",))
    with pytest.raises(UnsupportedDomain, match="field coefficients"):
        gcd_univariate(parse_polynomial("2*x", rz), parse_polynomial("x", rz))


def test_monic_of_zero_and_a_chain_of_negative_length_raise():
    with pytest.raises(ZeroPolynomial):
        monic(Polynomial.zero(RQ1))
    with pytest.raises(ValueError, match="k must be >= 0"):
        strict_chain_demo(-1, RQ2)
