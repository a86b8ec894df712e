"""The variety / vanishing-ideal correspondence over prime fields.

Everything here is exhaustive and exact.  A variety is the set of common
zeros in F_p^n: over each prefix x_1..x_{n-1} the last coordinate is
solved for by one lookup in a precomputed value column
(``polyideals.common_zeros``).  The vanishing ideal of a point set comes
from the nullspace of the evaluation matrix on reduced monomials
(per-variable exponents below p) together with the field equations
x_i^p - x_i.  Over a finite field every subset of F_p^n is algebraic, so
V(I(X)) = X exactly and the irreducible sets are the singletons.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from array import array
from dataclasses import dataclass

from .domains import Fp, is_prime
from .errors import DomainMismatch, InvalidDomain, RingMismatch, TooLarge, UnsupportedDomain
from .linalg import nullspace_mod_p
from .polyideals import (IdealPresentation, MEMBER, MembershipCertificate, _fold,
                         check_scan_size, common_zeros)
from .polynomials import WORK_LIMIT, Polynomial, PolyRing

_DEFAULT_NAMES = ("x", "y", "z")


def default_variables(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class PointSet:
    """A canonically sorted finite subset of F_p^n."""

    p: int
    dim: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidDomain(f"point sets live over prime fields; {self.p} is not prime")
        if self.dim < 1:
            raise InvalidDomain("dimension must be >= 1")
        cleaned = set()
        for pt in self.points:
            if len(pt) != self.dim:
                raise InvalidDomain(f"point {pt} has wrong dimension")
            cleaned.add(tuple(c % self.p for c in pt))
        object.__setattr__(self, "points", tuple(sorted(cleaned)))

    @classmethod
    def trusted(cls, p: int, dim: int, points: tuple[tuple[int, ...], ...]) -> "PointSet":
        """A point set from points already canonical, distinct and in lex order,
        as a scan of F_p^n yields them; nothing is checked."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "p", p)
        object.__setattr__(ps, "dim", dim)
        object.__setattr__(ps, "points", points)
        return ps

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt) -> bool:
        i = bisect.bisect_left(self.points, pt := tuple(pt))  # the points are in lex order
        return self.points[i:i + 1] == (pt,)

    def __str__(self) -> str:
        inner = ", ".join("(" + ", ".join(map(str, pt)) + ")" for pt in self.points)
        return "{" + inner + "}"


def _require_prime_field_ring(ring: PolyRing) -> int:
    dom = ring.domain
    if dom.kind != "Fp":
        raise UnsupportedDomain(f"varieties are computed over F_p, not {dom}")
    return dom.modulus


def variety(ideal: IdealPresentation) -> PointSet:
    """Exact common zero set of the generators in F_p^n, in lex order.

    The empty presentation (the zero ideal) cuts out all of F_p^n.
    """
    p = _require_prime_field_ring(ideal.ring)
    hits = tuple(tuple(c.value for c in pt) for pt in common_zeros(ideal))
    return PointSet.trusted(p, ideal.ring.nvars, hits)


@dataclass(frozen=True)
class VanishingIdealResult:
    """Reduced-form generators of I(X) plus the field equations.

    The generators are a nullspace basis of the evaluation matrix on
    reduced monomials; together with the field equations they present the
    full vanishing ideal, and V of them recovers X exactly.
    """

    ring: PolyRing
    point_set: PointSet
    generators: tuple[Polynomial, ...]
    field_equations: tuple[Polynomial, ...]

    def all_generators(self) -> tuple[Polynomial, ...]:
        return self.generators + self.field_equations

    def ideal(self) -> IdealPresentation:
        return IdealPresentation(self.ring, self.all_generators())

    def certify(self, f: Polynomial) -> MembershipCertificate | None:
        """Cofactors of f over all_generators(), or None if f is not in I(X).

        Reducing f by x_i^p -> x_i gives the field-equation cofactors q_i and a
        reduced remainder r.  As evaluation is a bijection from reduced polynomials
        onto functions F_p^n -> F_p, f is in I(X) exactly when r is zero on X.
        Then g_j's cofactor is r's coefficient c_j at max(g_j.terms), g_j's free
        column in the nullspace basis: g_j holds a 1 there and no other generator
        has that monomial.  So r - sum c_j g_j lies on the pivot monomials, whose
        evaluation columns are independent, and vanishes on X: it is zero.
        """
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        *quotients, r = _reduce_by_field_equations(f, self.point_set.p)
        value = r.evaluator()
        if any(value(pt) for pt in self.point_set):
            return None
        one = (0,) * self.ring.nvars  # the monomial 1; r's coefficients are canonical already
        cofactors = tuple(Polynomial._from_raw(self.ring, {one: r.terms.get(max(g.terms), 0)})
                          for g in self.generators) + tuple(quotients)
        bound = max((int(h.total_degree()) for h in cofactors if not h.is_zero), default=0)
        return MembershipCertificate(MEMBER, bound, cofactors=cofactors)

    def spans_function(self, f: Polynomial) -> bool:
        """Is f in I(X)?  Exactly when f's reduced form is zero on X."""
        return self.certify(f) is not None


def reduced_monomials(p: int, n: int) -> list[tuple[int, ...]]:
    """All exponent tuples with every entry below p, in lex order."""
    return list(itertools.product(range(p), repeat=n))


def _tensor(factors: list[list[int]], p: int) -> list[int]:
    """The products a_1[e_1] ... a_n[e_n] mod p, one per exponent tuple, in
    reduced_monomials' lex order: a point's evaluation row, or an indicator's terms."""
    out = [1]
    for a in factors:
        out = [x * y % p for x in out for y in a]
    return out


def field_equations(ring: PolyRing) -> tuple[Polynomial, ...]:
    """x_i^p - x_i for each variable; they vanish on every point of F_p^n."""
    p = _require_prime_field_ring(ring)
    units = ((0,) * i + (1,) + (0,) * (ring.nvars - 1 - i) for i in range(ring.nvars))
    return tuple(Polynomial._from_raw(ring, {tuple(p * e for e in u): 1, u: -1}) for u in units)


def vanishing_ideal(points: PointSet, variables: tuple[str, ...] | None = None) -> VanishingIdealResult:
    """I(X) for a finite point set, via an exact evaluation-matrix nullspace.

    The nullspace has dimension p^n - |X| because evaluation of reduced
    polynomials onto functions on X is onto (each point has an indicator
    polynomial).  V(I(X)) = X is then re-checked in two parts, with no
    evaluation kernel built.  First, no generator holds another's lex-leading
    monomial, so the p^n - |X| generators are independent, and each one's
    other terms lie on the |X| monomials that lead none.  Second, every
    generator is zero at each point of X.  Each evaluation column is packed
    into one int with a 64-bit field per point, so a generator's coefficients
    times its terms' columns sum to its values on all of X at once, one per
    field.  A field then adds at most |X| + 1 products of residues, so the
    check needs (|X| + 1)(p - 1)^2 < 2^64, which it tests; the admission
    bound p^n (|X| + 1)^2 <= WORK_LIMIT keeps that sum below 2^40.  As the
    generators vanish on X they span every reduced polynomial that does, the
    indicator of each point outside X among them, so no such point is a
    common zero.  The field equations vanish on all of F_p^n, so neither part
    needs them.
    """
    p, n = points.p, points.dim
    check_scan_size(p, n)
    # eliminating |X| rows of p^n entries, and re-checking up to p^n - |X| generators of
    # |X| + 1 terms on the |X| rows, each take at most p^n (|X| + 1)^2 steps; the lead
    # check reads each term once
    steps = p ** n * (len(points) + 1) ** 2
    if steps > WORK_LIMIT:
        raise TooLarge(f"the vanishing ideal of {len(points)} points in F_{p}^{n} takes up to "
                       f"{steps} steps, over the limit of {WORK_LIMIT}")
    names = tuple(variables) if variables else default_variables(n)
    ring = PolyRing(Fp(p), names)

    monos = reduced_monomials(p, n)
    matrix = [_tensor([[pow(c, e, p) for e in range(p)] for c in pt], p) for pt in points]

    basis = nullspace_mod_p(matrix, p, len(monos))
    if len(names) != n:  # the exponent vector the first generator would be built on
        raise InvalidDomain(f"bad exponent vector {monos[min(basis[0]) if basis else 0]}")
    gens = tuple(Polynomial._from_raw(ring, {monos[j]: c for j, c in vec.items()})
                 for vec in basis)
    if len(gens) != p ** n - len(points):
        raise AssertionError("nullspace dimension must be p^n - |X|")

    leads = {max(g.terms) for g in gens}
    if len(leads) != len(gens) or any(len(leads.intersection(g.terms)) != 1 for g in gens):
        raise AssertionError("V(I(X)) must recover X")
    if (len(points) + 1) * (p - 1) ** 2 >> 64:
        raise AssertionError("a 64-bit field must hold |X| + 1 products of residues")
    if matrix:  # column m packed as one int, a 64-bit field per point
        packed = {m: int.from_bytes(array("Q", col), sys.byteorder)
                  for m, col in zip(monos, zip(*matrix))}
        width = 8 * len(matrix)
        sums = (sum(map(operator.mul, g.terms.values(), map(packed.__getitem__, g.terms)))
                for g in gens)  # g's values on X, unreduced, one a field
        values = array("Q", b"".join(v.to_bytes(width, sys.byteorder) for v in sums))
        if any(map(p.__rmod__, values)):
            raise AssertionError("V(I(X)) must recover X")
    return VanishingIdealResult(ring, points, gens, field_equations(ring))


def viv_closure(ideal: IdealPresentation) -> VanishingIdealResult:
    """I(V(S)) for a generator set S, with each member of S re-certified.

    Each generator of S vanishes on V(S), so certify() reads its cofactors
    off the basis; every certificate is then re-checked exactly.
    """
    points = variety(ideal)
    result = vanishing_ideal(points, ideal.ring.variables)
    target = result.ideal()
    for g in ideal.generators:
        cert = result.certify(g)
        if cert is None or not cert.verify(g, target):
            raise AssertionError(f"{g} failed to re-certify inside I(V(S))")
    return result


def is_irreducible(points: PointSet) -> bool:
    """Over a finite field only singletons resist a proper algebraic split.

    Every subset is algebraic here, so any X with two points splits into
    two proper pieces.  The empty set is declared reducible so that
    irreducibility matches primality of the vanishing ideal.
    """
    return len(points) == 1


def decompose(points: PointSet) -> list[PointSet]:
    """Irreducible components: the singletons, pairwise incomparable."""
    return [PointSet.trusted(points.p, points.dim, (pt,)) for pt in points]


@dataclass(frozen=True)
class PrimenessReport:
    prime: bool
    witnesses: tuple[Polynomial, Polynomial] | None = None


def indicator_polynomial(ring: PolyRing, point: tuple[int, ...]) -> Polynomial:
    """The reduced polynomial that is 1 at the point and 0 elsewhere.

    It is the product of 1 - (x_i - c_i)^(p-1), written down term by term: as
    C(p-1, k) = (-1)^k and (-1)^(p-1) = 1 mod p, (x - c)^(p-1) = sum_k c^(p-1-k) x^k
    (with 0^0 = 1), so x^k has the coefficient [k = 0] - c^(p-1-k) in the i-th factor.
    """
    p = _require_prime_field_ring(ring)
    if len(point) != ring.nvars:
        raise DomainMismatch(f"expected {ring.nvars} coordinates, got {len(point)}")
    factors = [[(k == 0) - pow(c, p - 1 - k, p) for k in range(p)] for c in point]
    return Polynomial._from_raw(ring, dict(zip(reduced_monomials(p, ring.nvars),
                                               _tensor(factors, p))))


def is_prime_vanishing_ideal(points: PointSet,
                             variables: tuple[str, ...] | None = None) -> PrimenessReport:
    """Is I(X) prime?  Exactly when X is a single point.

    For |X| >= 2 the report carries an explicit witness pair: the
    indicator of one point and its complement multiply to the zero
    function (so the product vanishes on X) while neither factor vanishes
    on X.  For X empty, I(X) is the whole ring, which is excluded from
    primality outright.
    """
    names = tuple(variables) if variables else default_variables(points.dim)
    ring = PolyRing(Fp(points.p), names)
    if len(names) != points.dim:
        raise DomainMismatch(f"expected {len(names)} coordinates, got {points.dim}")
    if len(points) == 1:
        return PrimenessReport(True)
    if len(points) == 0:
        return PrimenessReport(False)
    # f and g are reduced, up to p^n terms each: building and printing them handles p^n
    # terms of n coordinates, and checking them evaluates p^n terms at each point
    size = points.p ** points.dim
    steps = size * (points.dim + len(points))
    if steps > WORK_LIMIT:
        raise TooLarge(f"the witness pair over F_{points.p}^{points.dim} has up to {size} terms "
                       f"each, built and checked at {len(points)} points in {steps} steps, over "
                       f"the limit of {WORK_LIMIT}")
    anchor = points.points[0]
    f = indicator_polynomial(ring, anchor)
    g = Polynomial.one(ring) - f
    at_f = [f.evaluate(pt) for pt in points]
    at_g = [g.evaluate(pt) for pt in points]
    # evaluation is a ring homomorphism: (f*g)(pt) = f(pt) * g(pt), so f*g is never formed
    if not (all((a * b).is_zero for a, b in zip(at_f, at_g))
            and any(not a.is_zero for a in at_f)
            and any(not b.is_zero for b in at_g)):
        raise AssertionError("indicator witness pair failed to verify")
    return PrimenessReport(False, (f, g))


def _reduce_by_field_equations(f: Polynomial, p: int) -> tuple[Polynomial, ...]:
    """(q_1, ..., q_n, r) with f = sum q_i (x_i^p - x_i) + r and r reduced.

    x^k = x^(k-p) (x^p - x) + x^(k-p+1), applied while k >= p, leaves x^r, r = _fold(k, p),
    under the quotient x^(k-p) + x^(k-2p+1) + ... + x^(r-1); x_1 is reduced first, then x_2,
    and so on.  Quotient terms past WORK_LIMIT, counted before any is written, raise TooLarge.
    """
    size = sum((k - _fold(k, p)) // (p - 1) for exps in f.terms for k in exps)
    if size > WORK_LIMIT:
        raise TooLarge(f"field-equation quotients of {size} terms exceed the limit of {WORK_LIMIT}")
    parts: list[dict] = [{} for _ in range(f.ring.nvars + 1)]
    for exps, c in f.terms.items():
        e = list(exps)
        for i, k in enumerate(exps):
            e[i] = _fold(k, p)
            for d in range(k - p, e[i] - 2, 1 - p):
                q = (*e[:i], d, *e[i + 1:])
                parts[i][q] = parts[i].get(q, 0) + c
        parts[-1][tuple(e)] = parts[-1].get(tuple(e), 0) + c
    return tuple(Polynomial._from_raw(f.ring, t) for t in parts)
