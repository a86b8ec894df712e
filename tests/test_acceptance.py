"""Acceptance suite: every criterion runs at its stated scale and prints a line.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion as it completes.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conftest import cells_containing
from ringlab.axioms import all_triples, check_ring_axioms, random_rational_triples
from ringlab.domains import Fp, QQ, Zn, is_prime
from ringlab.intideals import (
    IntIdeal,
    all_zn_ideals_by_filtering,
    enumerate_ideals_mod_n,
    prime_defs_agree,
)
from ringlab.parsing import parse_polynomial
from ringlab.polyideals import (
    IdealPresentation,
    MEMBER,
    NON_MEMBER,
    hbt_extract_univariate,
    membership_bounded,
    radical_univariate,
    strict_chain_demo,
)
from ringlab.polynomials import Polynomial, PolyRing
from ringlab.raster import raster_plane_curve, render_ascii
from ringlab.varieties import (
    PointSet,
    decompose,
    is_irreducible,
    is_prime_vanishing_ideal,
    vanishing_ideal,
    variety,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num:2d}: {description}")
        raise
    print(f"PASS  criterion {num:2d}: {description} "
          f"[{time.perf_counter() - t0:.2f}s]")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_ring_axiom_suite():
    with criterion(1, "exhaustive ring axioms for Z/6, F_5, Z/1 and 10^4 rational triples"):
        t0 = time.perf_counter()
        z6 = check_ring_axioms(Zn(6), all_triples(Zn(6)))
        assert z6.passed and z6.triples_checked == 216
        f5 = check_ring_axioms(Fp(5), all_triples(Fp(5)))
        assert f5.passed and f5.nonzero_invertible
        trivial = check_ring_axioms(Zn(1), all_triples(Zn(1)))
        assert trivial.passed and trivial.one_equals_zero
        rationals = check_ring_axioms(QQ, random_rational_triples(10_000, random.Random(2)))
        assert rationals.passed and rationals.triples_checked == 10_000
        assert time.perf_counter() - t0 < 5.0


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_ideal_counts_mod_n():
    with criterion(2, "ideals of Z/n counted by divisors for n <= 30, filter-checked to 12"):
        t0 = time.perf_counter()
        for n in range(1, 31):
            ideals = enumerate_ideals_mod_n(n)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert len(ideals) == len(divisors)
            assert (len(ideals) == 2) == is_prime(n)
        for n in range(1, 13):
            fast = sorted(i.elements for i in enumerate_ideals_mod_n(n))
            slow = sorted(i.elements for i in all_zn_ideals_by_filtering(n))
            assert fast == slow
        assert time.perf_counter() - t0 < 10.0


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_prime_definition_equivalence():
    with criterion(3, "both primality definitions agree on every ideal of Z/n, n <= 30"):
        mismatches = 0
        for n in range(1, 31):
            for ideal in enumerate_ideals_mod_n(n):
                verdict = prime_defs_agree(n, ideal)
                if verdict.def_direct != verdict.def_quotient:
                    mismatches += 1
        assert mismatches == 0


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_integer_primality_table():
    with criterion(4, "primality classification of integer ideals"):
        for g in (0, 2, 3, 5, 7, 11, 13):
            assert IntIdeal(g).is_prime(), f"({g}) should be prime"
        for g in (1, 4, 6, 8, 9, 10, 12):
            assert not IntIdeal(g).is_prime(), f"({g}) should not be prime"


# -- criterion 5 ---------------------------------------------------------------


RF2 = PolyRing(Fp(2), ("x", "y"))
F2_SPACE = tuple(itertools.product(range(2), repeat=2))


def _f2_poly_corpus():
    monos = [e for e in itertools.product(range(3), repeat=2) if sum(e) <= 2]
    return [
        Polynomial(RF2, {m: b for m, b in zip(monos, bits) if b})
        for bits in itertools.product((0, 1), repeat=len(monos))
    ]


def _f2_point_subsets():
    out = []
    for r in range(len(F2_SPACE) + 1):
        out.extend(PointSet(2, 2, c) for c in itertools.combinations(F2_SPACE, r))
    return out


def _variety_of(gens):
    return set(variety(IdealPresentation(RF2, tuple(gens))))


def test_criterion_05_galois_connection_suite():
    with criterion(5, "exhaustive V/I Galois laws over F_2^2, degree-<=2 generators"):
        t0 = time.perf_counter()
        polys = _f2_poly_corpus()
        subsets = _f2_point_subsets()
        assert len(polys) == 64 and len(subsets) == 16

        # V(I(X)) = X, exactly, for all 16 point sets
        ideals = {}
        for X in subsets:
            result = vanishing_ideal(X)
            ideals[X.points] = result
            assert variety(result.ideal()).points == X.points

        # span membership is I(X) membership: for every X, spans_function
        # agrees with direct evaluation on every corpus polynomial
        dom = RF2.domain
        def vanishes_on(f, pts):
            return all(f.evaluate(tuple(dom.element(c) for c in p)).is_zero
                       for p in pts)
        for X in subsets:
            for f in polys:
                assert ideals[X.points].spans_function(f) == vanishes_on(f, X)

        # antitonicity on points: X <= Y implies span I(Y) <= span I(X)
        for X in subsets:
            for Y in subsets:
                if set(X.points) <= set(Y.points):
                    for g in ideals[Y.points].generators:
                        assert ideals[X.points].spans_function(g)

        # singleton varieties, computed once by the real scan
        v_single = [_variety_of([f]) for f in polys]

        # antitonicity on generator sets: {} <= {f} <= {f, g}
        all_points = set(F2_SPACE)
        for i, f in enumerate(polys):
            assert v_single[i] <= all_points
            for j, g in enumerate(polys):
                v_pair = _variety_of([f, g])
                assert v_pair <= v_single[i]
                # intersection law on the same pass
                assert v_pair == v_single[i] & v_single[j]
                # product/union law
                assert _variety_of([f * g]) == v_single[i] | v_single[j]

        # S <= I(V(S)) as functions: every generator vanishes on V(S)
        for i, f in enumerate(polys):
            assert vanishes_on(f, v_single[i])
        rng = random.Random(17)
        for _ in range(800):
            S = [rng.choice(polys) for _ in range(2)]
            pts = _variety_of(S)
            assert all(vanishes_on(f, pts) for f in S)

        # X u Y = V(ST) with ST the pairwise products
        for _ in range(500):
            S = [rng.choice(polys) for _ in range(rng.randint(1, 2))]
            T = [rng.choice(polys) for _ in range(rng.randint(1, 2))]
            st_products = [f * g for f in S for g in T]
            assert _variety_of(st_products) == (_variety_of(S) | _variety_of(T))

        assert time.perf_counter() - t0 < 60.0


# -- criteria 6, 7, 8 ----------------------------------------------------------


def _random_f3_subsets(count, seed):
    rng = random.Random(seed)
    space = list(itertools.product(range(3), repeat=2))
    out = []
    for _ in range(count):
        chosen = tuple(pt for pt in space if rng.random() < 0.5)
        out.append(PointSet(3, 2, chosen))
    return out


def _corpora():
    return _f2_point_subsets() + _random_f3_subsets(100, seed=19)


def test_criterion_06_hypersurface_intersection():
    with criterion(6, "every point set is the intersection of its hypersurfaces"):
        failures = 0
        for X in _corpora():
            result = vanishing_ideal(X)
            space = set(itertools.product(range(X.p), repeat=X.dim))
            common = space
            for g in result.all_generators():
                common = common & set(variety(IdealPresentation(result.ring, (g,))))
            if common != set(X.points):
                failures += 1
        assert failures == 0


def test_criterion_07_decomposition():
    with criterion(7, "decomposition into irreducibles with no redundant component"):
        for X in _corpora():
            components = decompose(X)
            assert all(is_irreducible(c) for c in components)
            union = set()
            for c in components:
                union |= set(c.points)
            assert union == set(X.points)
            for a in components:
                for b in components:
                    if a is not b:
                        assert not set(a.points) <= set(b.points)


def test_criterion_08_irreducible_iff_prime():
    with criterion(8, "irreducible point sets exactly match prime vanishing ideals"):
        for X in _corpora():
            report = is_prime_vanishing_ideal(X)
            assert report.prime == is_irreducible(X)
            if not report.prime and len(X) >= 2:
                f, g = report.witnesses
                dom = f.ring.domain
                pts = [tuple(dom.element(c) for c in pt) for pt in X]
                assert all((f * g).evaluate(pt).is_zero for pt in pts)
                assert any(not f.evaluate(pt).is_zero for pt in pts)
                assert any(not g.evaluate(pt).is_zero for pt in pts)


# -- criterion 9 ---------------------------------------------------------------


def _random_poly(ring, rng, max_degree=2, allow_zero=True):
    from ringlab.polynomials import monomials_up_to

    dom = ring.domain
    terms = {}
    for exps in monomials_up_to(ring.nvars, max_degree):
        if rng.random() < 0.4:
            if dom == QQ:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            else:
                c = rng.randrange(dom.modulus)
            terms[exps] = c
    f = Polynomial(ring, terms)
    if f.is_zero and not allow_zero:
        return Polynomial.one(ring)
    return f


MEMBG_RINGS = [
    PolyRing(Fp(3), ("x", "y")),
    PolyRing(Fp(5), ("x",)),
    PolyRing(QQ, ("x",)),
]


def test_criterion_09_membership_certificates():
    with criterion(9, "500 member + 500 non-member certificates, all re-verified"):
        rng = random.Random(23)

        member_instances = []
        for k in range(500):
            ring = MEMBG_RINGS[k % len(MEMBG_RINGS)]
            gens = tuple(_random_poly(ring, rng, allow_zero=False)
                         for _ in range(rng.randint(1, 2)))
            ideal = IdealPresentation(ring, gens)
            cofactors = [_random_poly(ring, rng) for _ in ideal.generators]
            f = Polynomial.zero(ring)
            for h, g in zip(cofactors, ideal.generators):
                f = f + h * g
            cert = membership_bounded(f, ideal, 2)
            assert cert.verdict == MEMBER
            assert cert.verify(f, ideal)
            member_instances.append((f, ideal))

        for k in range(500):
            ring = MEMBG_RINGS[k % 2]  # finite fields only: scan is exhaustive
            p = ring.domain.modulus
            anchor = tuple(rng.randrange(p) for _ in range(ring.nvars))
            point = tuple(ring.domain.element(c) for c in anchor)
            gens = []
            for _ in range(rng.randint(1, 2)):
                g = _random_poly(ring, rng, allow_zero=False)
                g = g - Polynomial.constant(ring, g.evaluate(point).value)
                if not g.is_zero:
                    gens.append(g)
            ideal = IdealPresentation(ring, tuple(gens))
            f = _random_poly(ring, rng)
            if f.evaluate(point).is_zero:
                f = f + Polynomial.one(ring)
            cert = membership_bounded(f, ideal, 2)
            assert cert.verdict == NON_MEMBER
            assert cert.verify(f, ideal)

        for f, ideal in member_instances[:100]:
            for bound in (3, 4):
                assert membership_bounded(f, ideal, bound).verdict == MEMBER


# -- criterion 10 --------------------------------------------------------------


def _list_gcd_mod5(a, b):
    """Independent oracle: Euclid on dense coefficient lists over F_5."""

    def norm(v):
        while v and v[-1] % 5 == 0:
            v.pop()
        return [c % 5 for c in v]

    def rem(f, g):
        f = f[:]
        inv = pow(g[-1], -1, 5)
        while len(f) >= len(g) and f:
            c = (f[-1] * inv) % 5
            shift = len(f) - len(g)
            for i, gc in enumerate(g):
                f[shift + i] = (f[shift + i] - c * gc) % 5
            f = norm(f)
        return f

    a, b = norm(a[:]), norm(b[:])
    while b:
        a, b = b, rem(a, b)
    if a:
        inv = pow(a[-1], -1, 5)
        a = [(c * inv) % 5 for c in a]
    return a


def test_criterion_10_chains_and_basis_extraction():
    with criterion(10, "strict chains certified to k=6; extraction matches Euclid oracle"):
        for k in range(1, 7):
            ring = PolyRing(Fp(2), tuple(f"x{i}" for i in range(1, k + 2)))
            steps = strict_chain_demo(k, ring)
            assert len(steps) == k
            for s in steps:
                ideal = IdealPresentation(
                    ring, tuple(Polynomial.variable(ring, v) for v in s.ideal_vars))
                f = Polynomial.variable(ring, s.new_variable)
                assert s.certificate.verdict == NON_MEMBER
                assert s.certificate.verify(f, ideal)

        ring = PolyRing(Fp(5), ("x",))
        rng = random.Random(29)
        for _ in range(200):
            lists = []
            gens = []
            for _ in range(2):
                coeffs = [rng.randrange(5) for _ in range(rng.randint(1, 5))]
                if not any(coeffs):
                    coeffs[0] = 1
                lists.append(coeffs)
                gens.append(Polynomial(ring, {(i,): c for i, c in enumerate(coeffs) if c}))
            result = hbt_extract_univariate(IdealPresentation(ring, tuple(gens)))
            expected = _list_gcd_mod5(lists[0], lists[1])
            got = [result.extracted.terms.get((i,), 0) for i in range(len(expected))]
            assert got == expected
            assert int(result.extracted.degree()) == len(expected) - 1
            assert result.verified_equal


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_motivating_radical_examples():
    with criterion(11, "radical of (x^2) is (x); x^2+1 has no rational zero but two in F_5"):
        rq = PolyRing(QQ, ("x",))
        assert radical_univariate(parse_polynomial("x^2", rq)) == parse_polynomial("x", rq)

        f = parse_polynomial("x^2+1", rq)
        for num in range(-20, 21):
            for den in range(1, 6):
                assert not f.evaluate((Fraction(num, den),)).is_zero

        rf5 = PolyRing(Fp(5), ("x",))
        pts = variety(IdealPresentation(rf5, (parse_polynomial("x^2+1", rf5),)))
        assert pts.points == ((2,), (3,))


# -- criterion 12 --------------------------------------------------------------


def test_criterion_12_plane_curve_figure():
    with criterion(12, "nodal cubic raster: singular cells marked, connected, golden match"):
        ring = PolyRing(QQ, ("x", "y"))
        f = parse_polynomial("y^2 - x^2*(x+1)", ring)
        window = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
        grid = raster_plane_curve(f, window, 64, 64)

        for point in ((0, 0), (-1, 0)):
            cells = cells_containing(grid, *point)
            assert cells and all(grid.cells[r][c] for r, c in cells)

        # connected marked region through the origin
        from collections import deque

        marked = set(grid.marked())
        start = cells_containing(grid, 0, 0)[0]
        seen = {start}
        queue = deque([start])
        while queue:
            r, c = queue.popleft()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    nb = (r + dr, c + dc)
                    if nb in marked and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
        assert all(cell in seen for cell in cells_containing(grid, -1, 0))
        assert seen == marked  # one component: the node joins loop and branches

        golden = (DATA / "nodal_cubic_64.txt").read_text()
        assert render_ascii(grid) == golden
