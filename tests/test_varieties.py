import itertools
import math
import random
import re
import time

import pytest

from ringlab import varieties
from ringlab.domains import Fp, QQ, is_prime
from ringlab.errors import (DomainMismatch, InvalidDomain, RingMismatch, TooLarge,
                            UnsupportedDomain)
from ringlab.parsing import parse_polynomial
from ringlab.polyideals import (IdealPresentation, MEMBER, common_zeros, membership_bounded,
                                solve_in_span)
from ringlab.polynomials import WORK_LIMIT, Polynomial, PolyRing
from ringlab.varieties import (
    PointSet,
    decompose,
    field_equations,
    indicator_polynomial,
    is_irreducible,
    is_prime_vanishing_ideal,
    reduced_monomials,
    vanishing_ideal,
    variety,
    viv_closure,
)

RF2 = PolyRing(Fp(2), ("x", "y"))
RF3 = PolyRing(Fp(3), ("x", "y"))
RF5_1 = PolyRing(Fp(5), ("x",))


def pf(text, ring):
    return parse_polynomial(text, ring)


def all_subsets(p, n):
    space = list(itertools.product(range(p), repeat=n))
    for r in range(len(space) + 1):
        for combo in itertools.combinations(space, r):
            yield PointSet(p, n, combo)


# -- variety -------------------------------------------------------------------


def test_zero_ideal_cuts_out_everything():
    ring = PolyRing(Fp(3), ("x", "y"))
    assert len(variety(IdealPresentation(ring, ()))) == 9
    # a presentation listing the zero polynomial is still the zero ideal
    assert len(variety(IdealPresentation(ring, (Polynomial.zero(ring),)))) == 9


def test_unit_generator_cuts_out_nothing():
    for p in (2, 5):
        ring = PolyRing(Fp(p), ("x", "y"))
        one = Polynomial.one(ring)
        assert len(variety(IdealPresentation(ring, (one,)))) == 0


def test_x_squared_plus_one_over_f5():
    pts = variety(IdealPresentation(RF5_1, (pf("x^2+1", RF5_1),)))
    assert pts.points == ((2,), (3,))


def test_variety_requires_prime_field():
    rq = PolyRing(QQ, ("x",))
    with pytest.raises(UnsupportedDomain):
        variety(IdealPresentation(rq, (pf("x", rq),)))


def test_variety_desk_scale_limit():
    ring = PolyRing(Fp(101), ("x", "y", "z"))
    with pytest.raises(TooLarge):
        variety(IdealPresentation(ring, ()))


# -- vanishing ideal -----------------------------------------------------------


def test_vanishing_ideal_of_empty_set_is_unit_ideal():
    result = vanishing_ideal(PointSet(2, 1, ()))
    # no constraints: the nullspace is everything, including the constant 1
    assert len(result.generators) == 2
    assert any(g == Polynomial.one(result.ring) for g in result.generators)


def test_vanishing_ideal_of_full_line_is_field_equation_only():
    result = vanishing_ideal(PointSet(2, 1, ((0,), (1,))))
    assert result.generators == ()
    assert result.field_equations == (pf("x^2+x", PolyRing(Fp(2), ("x",))),)


@pytest.mark.parametrize("points, names, named", [
    (PointSet(2, 1, ((0,), (1,))), ("x", "y"), "(0,)"),  # no generators
    (PointSet(5, 1, ((0,),)), ("x", "y"), "(1,)"),
    (PointSet(5, 2, ((0, 1),)), ("x",), "(0, 0)"),
])
def test_vanishing_ideal_refuses_variables_of_the_wrong_length(points, names, named):
    with pytest.raises(InvalidDomain, match=re.escape(f"bad exponent vector {named}")):
        vanishing_ideal(points, names)


def test_vanishing_ideal_of_origin_spans_x_y_xy():
    result = vanishing_ideal(PointSet(2, 2, ((0, 0),)))
    assert len(result.generators) == 3
    for text in ("x", "y", "x*y"):
        assert result.spans_function(pf(text, result.ring))
    assert not result.spans_function(Polynomial.one(result.ring))
    assert not result.spans_function(pf("x*y + x + y + 1", result.ring))


def test_nullspace_dimension_matches_complement():
    rng = random.Random(1)
    space = list(itertools.product(range(3), repeat=2))
    for _ in range(20):
        chosen = tuple(pt for pt in space if rng.random() < 0.5)
        result = vanishing_ideal(PointSet(3, 2, chosen))
        assert len(result.generators) == 9 - len(set(chosen))


def test_every_generator_vanishes_on_the_points():
    pts = PointSet(3, 2, ((0, 1), (2, 2), (1, 0)))
    result = vanishing_ideal(pts)
    dom = result.ring.domain
    for g in result.all_generators():
        for pt in pts:
            assert g.evaluate(tuple(dom.element(c) for c in pt)).is_zero


def test_field_equations_vanish_everywhere():
    for eq in field_equations(RF3):
        for pt in itertools.product(range(3), repeat=2):
            assert eq.evaluate(tuple(RF3.domain.element(c) for c in pt)).is_zero


@pytest.mark.parametrize("p", [2, 3, 7, 997])
def test_field_equations_are_written_down_without_powering(p, monkeypatch):
    rings = [PolyRing(Fp(p), varieties.default_variables(n)) for n in range(1, 5)]
    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__pow__", None)
        written = [field_equations(ring) for ring in rings]
    for ring, equations in zip(rings, written):
        xs = [Polynomial.variable(ring, name) for name in ring.variables]
        assert equations == tuple(x ** p - x for x in xs)


def _step_reduce(f, p):
    """The oracle: x_i^e = x_i^(e-p) (x_i^p - x_i) + x_i^(e-p+1), one step at a time."""
    parts = [{} for _ in range(f.ring.nvars + 1)]
    for exps, c in f.terms.items():
        e = list(exps)
        for i in range(len(e)):
            while e[i] >= p:
                e[i] -= p
                parts[i][tuple(e)] = parts[i].get(tuple(e), 0) + c
                e[i] += 1
        parts[-1][tuple(e)] = parts[-1].get(tuple(e), 0) + c
    return tuple(Polynomial(f.ring, t) for t in parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_field_equation_reduction_matches_the_step_loop(p):
    rng = random.Random(f"reduce {p}")
    for n in (1, 2, 3):
        ring = PolyRing(Fp(p), varieties.default_variables(n))
        for _ in range(150):
            f = Polynomial(ring, {tuple(rng.randint(0, 40) for _ in range(n)): rng.randrange(p)
                                  for _ in range(rng.randint(0, 6))})
            parts = varieties._reduce_by_field_equations(f, p)
            assert parts == _step_reduce(f, p), f
            assert all(e < p for exps in parts[-1].terms for e in exps)


def test_field_equation_quotients_pass_at_their_count_and_refuse_one_under(monkeypatch):
    # over F_3, x^40 leaves x^2 under 19 quotient terms, y^13 and x^9 leave x and y under 6 and 4
    f = pf("x^40*y^13 + x^9", RF3)
    monkeypatch.setattr(varieties, "WORK_LIMIT", 29)
    *quotients, r = varieties._reduce_by_field_equations(f, 3)
    assert sum(len(q.terms) for q in quotients) == 29 and r == pf("x^2*y + x", RF3)
    monkeypatch.setattr(varieties, "WORK_LIMIT", 28)
    with pytest.raises(TooLarge, match="quotients of 29 terms exceed the limit of 28"):
        varieties._reduce_by_field_equations(f, 3)


def test_reduced_monomials_count():
    assert len(reduced_monomials(2, 2)) == 4
    assert len(reduced_monomials(3, 2)) == 9


# -- closure -------------------------------------------------------------------


def test_viv_of_x_squared_contains_x():
    result = viv_closure(IdealPresentation(RF5_1, (pf("x^2", RF5_1),)))
    assert result.point_set.points == ((0,),)
    assert result.spans_function(pf("x", RF5_1))


def test_viv_of_unit_ideal_is_everything():
    result = viv_closure(IdealPresentation(RF5_1, (pf("1", RF5_1),)))
    assert result.point_set.points == ()
    assert result.spans_function(Polynomial.one(RF5_1))


def test_viv_of_zero_ideal_over_f2_keeps_field_equation():
    ring = PolyRing(Fp(2), ("x",))
    result = viv_closure(IdealPresentation(ring, ()))
    assert result.generators == ()
    assert result.field_equations == (pf("x^2+x", ring),)


def test_viv_certificates_verify_with_field_equation_cofactors():
    S = IdealPresentation(RF3, (pf("x^4*y^5 + x^3 + 2", RF3), pf("y^3 - y", RF3)))
    result = viv_closure(S)
    target = result.ideal()
    for g in S.generators:
        cert = result.certify(g)
        assert cert.verdict == MEMBER and cert.verify(g, target)
    assert result.certify(Polynomial.one(RF3)) is None


def _vanishes_on(f, points):
    dom = f.ring.domain
    return all(f.evaluate(tuple(dom.element(c) for c in pt)).is_zero for pt in points)


def test_spans_function_is_vanishing_on_every_subset():
    rf3_1 = PolyRing(Fp(3), ("x",))
    f3_line = [Polynomial(rf3_1, {(e,): c for e, c in enumerate(cs)})
               for cs in itertools.product(range(3), repeat=3)]
    cases = [
        (2, 2, _f2_polys() + [pf(t, RF2) for t in ("x^5", "x^3*y^4 + y^2", "x^2*y^2 + 1")]),
        (3, 1, f3_line + [pf(t, rf3_1) for t in ("x^5", "x^7 + 2*x^4 + 1", "x^9 - x")]),
    ]
    for p, n, polys in cases:
        for X in all_subsets(p, n):
            result = vanishing_ideal(X)
            for f in polys:
                assert result.spans_function(f) == _vanishes_on(f, X.points), (X, f)


def test_spans_function_at_one_point_of_f11_is_polynomial_time():
    # ten generators: a span of value tables would list 11^10 combinations
    ring = PolyRing(Fp(11), ("x",))
    result = vanishing_ideal(PointSet(11, 1, ((4,),)), ("x",))
    assert len(result.generators) == 10
    t0 = time.perf_counter()
    assert result.spans_function(pf("x^13 - 4*x^2", ring))
    assert not result.spans_function(pf("x^12", ring))
    assert time.perf_counter() - t0 < 1.0


def _span_cofactors(result, f):
    """The oracle: f's field-equation quotients, with the generators' cofactors from one
    span solve of the reduced remainder; None when the solve is inconsistent."""
    *quotients, r = varieties._reduce_by_field_equations(f, result.point_set.p)
    sol = solve_in_span(r, result.generators, [(0,) * result.ring.nvars])
    if sol is None:
        return None
    return tuple(Polynomial.constant(result.ring, c) for c in sol) + tuple(quotients)


def _certify_point_sets():
    yield from all_subsets(2, 2)
    yield from all_subsets(3, 1)
    for p, n in ((5, 2), (7, 2), (3, 3)):
        rng = random.Random(f"certify {p} {n}")
        space = list(itertools.product(range(p), repeat=n))
        for _ in range(6):
            yield PointSet(p, n, tuple(rng.sample(space, rng.randint(0, len(space)))))


def test_certify_reads_the_cofactors_a_span_solve_finds():
    for X in _certify_point_sets():
        p = X.p
        result = vanishing_ideal(X)
        ring, target = result.ring, result.ideal()
        rng = random.Random(f"{X}")

        def poly(top):
            return Polynomial(ring, {tuple(rng.randrange(top) for _ in ring.variables):
                                     rng.randrange(1, p) for _ in range(rng.randint(1, 5))})

        combo = Polynomial.zero(ring)
        for g in result.generators:
            combo = combo + Polynomial.constant(ring, rng.randrange(p)) * g
        # (f, is f in I(X)?, None where a random f may go either way)
        cases = [(combo, True), (combo + poly(p) * result.field_equations[-1], True),
                 (poly(p), None), (poly(3 * p), None)]
        if len(X):  # a member plus a polynomial that is 1 at one point of X and 0 elsewhere
            bump = indicator_polynomial(ring, rng.choice(X.points))
            cases += [(f + bump, False) for f, _ in cases[:2]]
        for f, member in cases:
            cert, oracle = result.certify(f), _span_cofactors(result, f)
            assert (cert is None) == (oracle is None) and member in (None, cert is not None), (X, f)
            if cert is not None:
                assert cert.cofactors == oracle and cert.verify(f, target), (X, f)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 1), (3, 3)])
def test_each_generator_holds_a_1_at_a_lex_leading_monomial_no_other_has(p, n):
    rng = random.Random(f"leads {p} {n}")
    space = list(itertools.product(range(p), repeat=n))
    for _ in range(10):
        X = PointSet(p, n, tuple(rng.sample(space, rng.randint(0, len(space)))))
        gens = vanishing_ideal(X).generators
        for g in gens:
            lead = max(g.terms)
            assert g.terms[lead] == 1
            assert [h for h in gens if lead in h.terms] == [g]


def test_closure_equality_exhaustive_f2_line():
    for X in all_subsets(2, 1):
        result = vanishing_ideal(X)
        assert variety(result.ideal()).points == X.points


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)])
def test_closure_equality_exhaustive_small_spaces(p, n):
    # vanishing_ideal re-verifies V(I(X)) == X internally without a scan; the
    # brute-force scan of F_p^n checks that re-check over every subset
    for X in all_subsets(p, n):
        assert variety(vanishing_ideal(X).ideal()).points == X.points


@pytest.mark.parametrize("p,n,seed", [(13, 1, 3), (2, 4, 4)])
def test_closure_equality_sampled_largest_spaces(p, n, seed):
    # 8192 and 65536 subsets are beyond a quick suite; sample broadly instead
    rng = random.Random(seed)
    space = list(itertools.product(range(p), repeat=n))
    for _ in range(400):
        X = PointSet(p, n, tuple(pt for pt in space if rng.random() < 0.5))
        assert variety(vanishing_ideal(X).ideal()).points == X.points


# -- irreducibility, decomposition, primality -----------------------------------


def test_irreducibility_verdicts():
    assert is_irreducible(PointSet(5, 2, ((1, 2),)))
    assert not is_irreducible(PointSet(2, 2, ((0, 0), (1, 1))))
    assert not is_irreducible(PointSet(2, 2, ()))


def test_decompose_examples():
    comps = decompose(PointSet(2, 2, ((0, 0), (1, 1))))
    assert [c.points for c in comps] == [(((0, 0),)), (((1, 1),))]
    assert decompose(PointSet(5, 2, ((2, 3),)))[0].points == ((2, 3),)
    assert decompose(PointSet(2, 2, ())) == []


def test_decomposition_properties_random_f3():
    rng = random.Random(13)
    space = list(itertools.product(range(3), repeat=2))
    for _ in range(50):
        chosen = tuple(pt for pt in space if rng.random() < 0.4)
        X = PointSet(3, 2, chosen)
        comps = decompose(X)
        assert all(is_irreducible(c) for c in comps)
        union = set()
        for c in comps:
            union |= set(c.points)
        assert union == set(X.points)
        for a in comps:
            for b in comps:
                if a is not b:
                    assert not set(a.points) <= set(b.points)


def test_prime_iff_singleton_with_verified_witnesses():
    for X in all_subsets(2, 2):
        report = is_prime_vanishing_ideal(X)
        assert report.prime == is_irreducible(X)
        if len(X) >= 2:
            f, g = report.witnesses
            dom = f.ring.domain
            pts = [tuple(dom.element(c) for c in pt) for pt in X]
            assert all((f * g).evaluate(pt).is_zero for pt in pts)
            assert any(not f.evaluate(pt).is_zero for pt in pts)
            assert any(not g.evaluate(pt).is_zero for pt in pts)


def test_empty_set_not_prime():
    assert not is_prime_vanishing_ideal(PointSet(2, 2, ())).prime


def test_indicator_polynomial_is_reduced_delta():
    f = indicator_polynomial(RF3, (1, 2))
    dom = RF3.domain
    for pt in itertools.product(range(3), repeat=2):
        val = f.evaluate(tuple(dom.element(c) for c in pt))
        assert val.value == (1 if pt == (1, 2) else 0)
    assert all(all(e < 3 for e in exps) for exps in f.terms)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1),
                                  (5, 2), (7, 1), (7, 2)])
def test_indicator_closed_form_equals_the_product_of_powers(p, n):
    # the oracle multiplies out prod_i (1 - (x_i - c_i)^(p-1)) with Polynomial arithmetic
    ring = PolyRing(Fp(p), ("x", "y", "z")[:n])
    one = Polynomial.one(ring)
    xs = [Polynomial.variable(ring, name) for name in ring.variables]
    for point in itertools.product([*range(p), -1, p + 2], repeat=n):
        oracle = one
        for x, c in zip(xs, point):
            oracle = oracle * (one - (x - c) ** (p - 1))
        assert indicator_polynomial(ring, point) == oracle
    for wrong in ((0,) * (n - 1), (0,) * (n + 1)):
        with pytest.raises(DomainMismatch):
            indicator_polynomial(ring, wrong)


# -- the Galois connection laws (small versions; the full sweep is acceptance) --


def _f2_polys(max_total_degree=2):
    monos = [e for e in itertools.product(range(3), repeat=2)
             if sum(e) <= max_total_degree]
    return [
        Polynomial(RF2, {m: b for m, b in zip(monos, bits) if b})
        for bits in itertools.product((0, 1), repeat=len(monos))
    ]


def test_product_and_pair_laws_sampled():
    rng = random.Random(23)
    polys = _f2_polys()
    for _ in range(300):
        f, g = rng.choice(polys), rng.choice(polys)
        vf = set(variety(IdealPresentation(RF2, (f,))))
        vg = set(variety(IdealPresentation(RF2, (g,))))
        vfg = set(variety(IdealPresentation(RF2, (f * g,))))
        vpair = set(variety(IdealPresentation(RF2, (f, g))))
        assert vfg == vf | vg
        assert vpair == vf & vg


def test_common_zeros_is_brute_force_evaluation_in_scan_order():
    # plain integer evaluation, independent of Polynomial.evaluate
    def zero_at(f, pt):
        return sum(c * pt[0] ** a * pt[1] ** b for (a, b), c in f.terms.items()) % 2 == 0

    space = list(itertools.product(range(2), repeat=2))
    polys = _f2_polys()
    for i, f in enumerate(polys):
        for g in polys[i:]:
            ideal = IdealPresentation(RF2, (f, g))
            expected = [pt for pt in space if zero_at(f, pt) and zero_at(g, pt)]
            got = [tuple(c.value for c in pt) for pt in common_zeros(ideal)]
            assert got == expected


def test_common_zeros_over_q_scan_the_integer_grid_in_order():
    ring = PolyRing(QQ, ("x", "y"))
    ideal = IdealPresentation(ring, (pf("x^2 - 4", ring), pf("y^2 - y", ring)))
    got = [tuple(c.value for c in pt) for pt in common_zeros(ideal)]
    assert got == [(-2, 0), (-2, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("p, n", [(2, 3), (5, 2), (7, 2), (3, 3), (11, 1)])
def test_variety_builds_the_point_set_the_validating_constructor_builds(p, n):
    # scan output is canonical, distinct and in lex order, so PointSet.trusted may skip
    # the checks; compare with PointSet(...) on the same points and on a shuffled copy
    ring = PolyRing(Fp(p), ("x", "y", "z")[:n])
    rng = random.Random(f"trusted {p} {n}")
    space = list(itertools.product(range(p), repeat=n))
    for _ in range(20):
        gens = tuple(Polynomial(ring, {tuple(rng.randrange(2 * p) for _ in range(n)):
                                       rng.randrange(p) for _ in range(rng.randint(1, 4))})
                     for _ in range(rng.randint(0, 2)))
        X = variety(IdealPresentation(ring, gens))
        expected = [pt for pt in space
                    if all(sum(c * math.prod(x ** e for x, e in zip(pt, exps))
                               for exps, c in g.terms.items()) % p == 0 for g in gens)]
        assert X == PointSet(p, n, tuple(expected))
        shuffled = [tuple(c + p * rng.randint(-1, 1) for c in pt) for pt in expected * 2]
        rng.shuffle(shuffled)
        assert X == PointSet(p, n, tuple(shuffled)) == PointSet.trusted(p, n, tuple(expected))
        assert type(X.points) is tuple and all(type(pt) is tuple for pt in X.points)


def test_antitonicity_on_points_f2():
    subsets = list(all_subsets(2, 2))
    ideals = {X.points: vanishing_ideal(X) for X in subsets}
    for X in subsets:
        for Y in subsets:
            if set(X.points) <= set(Y.points):
                span_y = ideals[Y.points]
                for g in span_y.generators:
                    assert ideals[X.points].spans_function(g)


def test_expansion_s_subset_ivs():
    rng = random.Random(31)
    polys = _f2_polys()
    dom = RF2.domain
    for _ in range(100):
        S = [rng.choice(polys) for _ in range(rng.randint(1, 2))]
        ideal = IdealPresentation(RF2, tuple(S))
        pts = variety(ideal)
        for f in ideal.generators:
            for pt in pts:
                assert f.evaluate(tuple(dom.element(c) for c in pt)).is_zero


def test_descending_chains_cannot_exceed_space_size():
    # strictly descending subsets of F_2^2: at most 4 strict steps
    rng = random.Random(37)
    for _ in range(50):
        current = set(itertools.product(range(2), repeat=2))
        steps = 0
        while current:
            removed = rng.sample(sorted(current), rng.randint(1, len(current)))
            current -= set(removed)
            steps += 1
        assert steps <= 4


def test_intersection_of_collections_is_variety_of_union():
    rng = random.Random(43)
    polys = _f2_polys()
    for _ in range(60):
        collections = [
            [rng.choice(polys) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(1, 4))
        ]
        intersection = set(itertools.product(range(2), repeat=2))
        for S in collections:
            intersection &= set(variety(IdealPresentation(RF2, tuple(S))))
        merged = [f for S in collections for f in S]
        assert set(variety(IdealPresentation(RF2, tuple(merged)))) == intersection


def test_hypersurface_intersection_random_f3():
    rng = random.Random(41)
    space = list(itertools.product(range(3), repeat=2))
    for _ in range(25):
        chosen = tuple(pt for pt in space if rng.random() < 0.5)
        X = PointSet(3, 2, chosen)
        result = vanishing_ideal(X)
        common = set(space)
        for g in result.all_generators():
            common &= set(variety(IdealPresentation(result.ring, (g,))))
        assert common == set(X.points)


def test_membership_of_generators_in_viv_bounded():
    # viv_closure constructs its certificates; a bounded search agrees
    S = IdealPresentation(RF2, (pf("x*y + 1", RF2),))
    result = viv_closure(S)
    target = result.ideal()
    g = S.generators[0]
    bound = int(g.total_degree()) * (2 - 1) * 2
    assert membership_bounded(g, target, bound).verdict == MEMBER


def test_point_set_validation():
    with pytest.raises(InvalidDomain):
        PointSet(4, 1, ())  # 4 is not prime
    with pytest.raises(InvalidDomain):
        PointSet(3, 2, ((1,),))  # wrong dimension
    assert PointSet(3, 1, ((5,), (2,), (2,))).points == ((2,),)  # canonical


@pytest.mark.parametrize("p, points", [(2, [(0, 0), (1, 1)]), (3, [(1, 2), (0, 0), (2, 2)]),
                                       (5, [(0,), (3,)]), (3, [(0, 0, 0), (1, 2, 0)])])
def test_prime_check_estimate_bounds_its_largest_product(p, points, monkeypatch):
    # f*g is never formed: f and g, up to p^n terms of n coordinates each, are built and
    # evaluated at the points, so the estimate is p^n (n + |X|)
    mul, pairs, operands = Polynomial.__mul__, [], []
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: operands.append({a, b})
                        or pairs.append(len(a.terms) * len(b.terms)) or mul(a, b))
    monkeypatch.setattr(Polynomial, "__pow__", None)  # a power raises TypeError
    evaluate, evaluated = Polynomial.evaluate, {}
    monkeypatch.setattr(Polynomial, "evaluate", lambda f, pt: evaluated.update(
        {f: evaluated.get(f, 0) + len(f.terms)}) or evaluate(f, pt))
    dim = len(points[0])
    f, g = is_prime_vanishing_ideal(PointSet(p, dim, tuple(points))).witnesses
    assert pairs == []  # the indicator is written term by term, with no product or power
    assert {f, g} not in operands
    estimate = p ** dim * (dim + len(points))
    assert set(evaluated) == {f, g} and max(evaluated.values()) <= p ** dim * len(points)
    monkeypatch.setattr(varieties, "WORK_LIMIT", estimate - 1)
    with pytest.raises(TooLarge, match=f"at {len(points)} points in {estimate} steps"):
        is_prime_vanishing_ideal(PointSet(p, dim, tuple(points)))


def test_vanishing_ideal_past_the_work_limit_raises_before_the_solve(monkeypatch):
    X = PointSet(5, 2, ((0, 0), (1, 2)))
    steps = 5 ** 2 * (2 + 1) ** 2
    monkeypatch.setattr(varieties, "WORK_LIMIT", steps)
    assert len(vanishing_ideal(X).generators) == 23
    monkeypatch.setattr(varieties, "WORK_LIMIT", steps - 1)
    monkeypatch.setattr(varieties, "nullspace_mod_p", None)  # the solve must not start
    with pytest.raises(TooLarge, match=f"takes up to {steps} steps"):
        vanishing_ideal(X)


def test_a_generator_that_misses_a_point_of_x_fails_the_recheck(monkeypatch):
    solve = varieties.nullspace_mod_p

    def shifted(rows, p, ncols):  # the first generator plus 1: nonzero on all of X
        basis = solve(rows, p, ncols)
        basis[0][0] = (basis[0].get(0, 0) + 1) % p
        return basis

    monkeypatch.setattr(varieties, "nullspace_mod_p", shifted)
    with pytest.raises(AssertionError, match=re.escape("V(I(X)) must recover X")):
        vanishing_ideal(PointSet(3, 2, ((0, 1), (2, 2), (1, 0))))


def test_generators_with_common_zeros_past_x_fail_the_recheck(monkeypatch):
    # I((0,0)) over F_2^2 is (y, x, x*y) in column order; with y's vector
    # replaced by x's the count is still 3, but (0,1) is a common zero too
    solve = varieties.nullspace_mod_p

    def doubled(rows, p, ncols):
        basis = solve(rows, p, ncols)
        assert basis == [{1: 1}, {2: 1}, {3: 1}]
        return [basis[1], basis[1], basis[2]]

    monkeypatch.setattr(varieties, "nullspace_mod_p", doubled)
    with pytest.raises(AssertionError, match=re.escape("V(I(X)) must recover X")):
        vanishing_ideal(PointSet(2, 2, ((0, 0),)))


def test_vanishing_ideal_builds_no_evaluation_kernel(monkeypatch):
    # the re-check reads the evaluation rows and the generators' leading
    # monomials; the scan it replaced built 326 kernels for this input
    built = []
    build = Polynomial._build_evaluator
    monkeypatch.setattr(Polynomial, "_build_evaluator", lambda f: built.append(f) or build(f))
    rng = random.Random(15)
    X = PointSet(7, 3, tuple(rng.sample(list(itertools.product(range(7), repeat=3)), 20)))
    result = vanishing_ideal(X)
    assert len(result.generators) == 7 ** 3 - 20
    assert built == []


def test_vanishing_ideal_at_the_widest_packed_field():
    # the re-check sums each generator's |X| + 1 products of residues in one 64-bit field
    # per point; under p^n (|X| + 1)^2 <= WORK_LIMIT the bound (|X| + 1)(p - 1)^2 on that
    # sum is largest at one point of F_p, p the largest prime up to WORK_LIMIT / 4
    p = 249989
    assert is_prime(p) and not any(map(is_prime, range(p + 1, WORK_LIMIT // 4 + 1)))
    assert 2 ** 32 < 2 * (p - 1) ** 2 < 2 ** 40
    result = vanishing_ideal(PointSet(p, 1, ((p - 1,),)))  # admitted: p * 2^2 <= WORK_LIMIT
    assert len(result.generators) == p - 1
    # x^f - (-1)^f, one for each free column f
    assert all(g.terms == {(0,): -(-1) ** f % p, (f,): 1}
               for f, g in enumerate(result.generators, 1))


def test_point_set_membership_by_bisection():
    X = PointSet(5, 2, ((4, 1), (0, 3), (2, 2), (0, 0)))
    assert (0, 3) in X and [2, 2] in X and (4, 1) in X and (0, 0) in X
    assert (0, 1) not in X and (4, 4) not in X and (1, 0) not in X
    assert (0,) not in X and (0, 3, 0) not in X and () not in X
    assert (0, 0) not in PointSet(5, 2, ())


def test_point_set_and_certify_doors():
    with pytest.raises(InvalidDomain, match="dimension must be >= 1"):
        PointSet(5, 0, ())
    result = vanishing_ideal(PointSet(3, 2, ((0, 1),)))
    with pytest.raises(RingMismatch):
        result.certify(parse_polynomial("x", PolyRing(Fp(5), ("x", "y"))))
