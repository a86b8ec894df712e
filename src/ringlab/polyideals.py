"""Finitely generated polynomial ideals: certified membership and friends.

Membership at a bound is decided by an exact linear system over the
cofactor coefficients: f is a bounded member of (g_1, ..., g_m) iff
f = sum h_i g_i is solvable with every h_i of total degree at most the
bound.  Its columns, each g_i times each monomial of degree at most the
bound, are filled straight from the generators' terms.  A Member
certificate carries the cofactors and re-verifies by plain polynomial
arithmetic; a NonMember certificate carries a point where all generators
vanish but f does not, found by one zero scan that runs the evaluation loop
on bare coefficient term dicts; Unknown is the honest third verdict when
the search space is exhausted.

In one variable the ring is a principal ideal domain: ``hbt`` collapses an
ideal to the gcd of its generators and ``radical`` is f / gcd(f, f').  Both run
one in-place division loop with monic remainders and a running WORK_LIMIT count.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from operator import add, mod, mul
from typing import Iterator, Sequence

from .domains import QQ, Domain, RingElement, Value
from .errors import (
    InseparableCase,
    NotEnoughVariables,
    RingMismatch,
    TooLarge,
    UnsupportedDomain,
    ZeroIdeal,
    ZeroPolynomial,
)
from .linalg import solve_mod_p, solve_rational
from .polynomials import (WORK_LIMIT, Polynomial, PolyRing, _integer_terms, _kernel,
                          monomials_up_to)

RATIONAL_GRID_SPAN = 5
MATRIX_CELL_LIMIT = 10_000_000  # rows x columns of one membership matrix
SCAN_LIMIT = 1_000_000  # points in one F_p^n or Q-grid scan (variety, videal, member) or plot raster
# kernel steps of one zero scan (see _fibre_zeros): 60-100 ns a step on a 2-vCPU host
SCAN_WORK_LIMIT = 30_000_000


def check_scan_size(p: int, n: int) -> None:
    if p ** n > SCAN_LIMIT:
        raise TooLarge(f"{p}^{n} points exceed the desk-scale scan limit of {SCAN_LIMIT}")


@dataclass(frozen=True)
class IdealPresentation:
    """A finite generator list in a fixed polynomial ring.

    Zero generators contribute nothing and are dropped; an empty list
    presents the zero ideal.
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if g.ring is not self.ring and g.ring != self.ring:
                raise RingMismatch(f"generator ring {g.ring} differs from {self.ring}")
            if not g.is_zero:
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


MEMBER = "member"
NON_MEMBER = "non_member"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a bounded membership search, re-verifiable by anyone."""

    verdict: str
    bound: int
    cofactors: tuple[Polynomial, ...] | None = None
    witness: tuple[RingElement, ...] | None = None

    def verify(self, f: Polynomial, ideal: IdealPresentation) -> bool:
        """Re-check the certificate against f and the ideal, exactly."""
        if self.verdict == MEMBER:
            if self.cofactors is None or len(self.cofactors) != len(ideal.generators):
                return False
            total = Polynomial.zero(ideal.ring)
            for h, g in zip(self.cofactors, ideal.generators):
                if not h.is_zero:  # a zero cofactor adds nothing to the sum
                    total = total + h * g
            return total == f
        if self.verdict == NON_MEMBER:
            if self.witness is None:
                return False
            point = list(self.witness)
            if any(not g.evaluate(point).is_zero for g in ideal.generators):
                return False
            return not f.evaluate(point).is_zero
        return True  # Unknown makes no claim


def membership_bounded(f: Polynomial, ideal: IdealPresentation, bound: int) -> MembershipCertificate:
    """Decide f in (g_1..g_m) with cofactor total degree <= bound.

    Field coefficients only.  Over F_p a failed solve falls back to an
    exhaustive point scan for a non-membership witness; over Q the scan
    covers a small integer grid, so the honest fallback is Unknown.
    """
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    ring, gens = f.ring, ideal.generators
    if not ring.domain.is_field:
        raise UnsupportedDomain(f"membership needs field coefficients, not {ring.domain}")

    check_matrix_size(f, gens, bound)
    shifts = monomials_up_to(ring.nvars, bound)
    sol = solve_in_span(f, gens, shifts)  # entry i*len(shifts) + k: h_i's coefficient on shifts[k]
    if sol is not None:
        k = len(shifts)
        cofactors = tuple(Polynomial._from_raw(ring, dict(zip(shifts, sol[i * k:(i + 1) * k])))
                          for i in range(len(gens)))
        cert = MembershipCertificate(MEMBER, bound, cofactors=cofactors)
        if not cert.verify(f, ideal):
            raise AssertionError("solved cofactors failed to verify")
        return cert

    value = f.evaluator()
    witness = next((pt for pt in common_zeros(ideal) if value(tuple(c.value for c in pt))), None)
    if witness is not None:
        cert = MembershipCertificate(NON_MEMBER, bound, witness=witness)
        if not cert.verify(f, ideal):
            raise AssertionError("non-membership witness failed to verify")
        return cert
    return MembershipCertificate(UNKNOWN, bound)


def check_matrix_size(f: Polynomial, gens: Sequence[Polynomial], bound: int) -> None:
    """Refuse a membership matrix past MATRIX_CELL_LIMIT before building it.

    Columns are the C(bound+n, n) shifts of each generator; the rows are at
    most the monomials of degree max(bound + max deg g, deg f).
    """
    n = f.ring.nvars
    cols = math.comb(bound + n, n) * len(gens)
    top = max([bound + int(g.total_degree()) for g in gens] + [f.total_degree(), 0])
    cells = math.comb(top + n, n) * cols
    if cells > MATRIX_CELL_LIMIT:
        raise TooLarge(f"membership matrix of about {cells} cells at bound {bound} exceeds "
                       f"the limit of {MATRIX_CELL_LIMIT}")


def solve_in_span(target: Polynomial, gens: Sequence[Polynomial],
                  shifts: Sequence[tuple[int, ...]]) -> list | None:
    """Coefficients c with sum c_j m_k g_i = target (free ones zero), or None.

    Column j = i*len(shifts) + k is generator i shifted by m_k = shifts[k],
    filled straight from g_i's terms.  One exact solve over the coefficient
    field by linalg's sparse Gauss-Jordan kernel.  Rows are the target's
    monomials, then each column's in order of first appearance;
    membership_bounded checks the matrix size first.
    """
    dom = target.ring.domain
    ncols = len(gens) * len(shifts)
    if target.is_zero:
        return [dom.zero] * ncols
    rows = {exps: [0] * ncols for exps in target.terms}  # int zeros: a cheap truth test in linalg
    for j, (g, shift) in enumerate(itertools.product(gens, shifts)):
        for exps, c in g.terms.items():
            exps = tuple(map(add, exps, shift))
            row = rows.get(exps) or rows.setdefault(exps, [0] * ncols)
            row[j] = c
    matrix, rhs = list(rows.values()), [target.terms.get(exps, 0) for exps in rows]
    if dom == QQ:
        return solve_rational(matrix, rhs)
    return solve_mod_p(matrix, rhs, dom.modulus)


def common_zeros(ideal: IdealPresentation) -> Iterator[tuple[RingElement, ...]]:
    """The points of the scan where every generator vanishes, in scan order.

    The scan is all of F_p^n (under the scan limit), or the integer grid over Q.  The first
    generator's zeros (every point for the zero ideal) come from ``_fibre_zeros``, and the
    others filter them on raw ints; a value is wrapped in a ring element on its first hit.
    """
    dom, n = ideal.ring.domain, ideal.ring.nvars
    grid = range(-RATIONAL_GRID_SPAN, RATIONAL_GRID_SPAN + 1)
    values = grid if dom == QQ else range(dom.modulus)
    check_scan_size(len(values), n)
    first, *others = ideal.generators or (Polynomial.zero(ideal.ring),)
    points = _fibre_zeros(first, values)
    for g in others:
        points = itertools.filterfalse(g.evaluator(), points)
    wrap = _Elements(dom.element).__getitem__
    for point in points:
        yield tuple(map(wrap, point))


class _Elements(dict):
    """Scan value -> its ring element, made on first lookup; a hit is a C-level get."""

    def __init__(self, element):
        self.element = element

    def __missing__(self, v):
        self[v] = e = self.element(v)
        return e


def _fold(k: int, p: int) -> int:
    """The exponent below p that x^k equals as a function on F_p (v^p = v): k if k < p."""
    return k if k < p else (k - 1) % (p - 1) + 1


def _fibre_zeros(g: Polynomial, values: range) -> Iterator[tuple[int, ...]]:
    """The zeros of g over values^n in lex order, found in the last coordinate.

    Split g = sum_k c_k(x_1..x_{n-1}) x_n^k, over Q on the ints of D*g, over F_p with each
    k folded to _fold(k, p).  Over a prefix, x_n = values[i] is a zero exactly when column[i]
    = sum_{k>=1} c_k(prefix) values[i]^k is -c_0(prefix) (mod p); a column is built once per
    distinct tuple of higher coefficients (the extension step of elimination; Cox, Little &
    O'Shea, ch. 3).  Kernel steps past SCAN_WORK_LIMIT raise TooLarge.  Before any kernel,
    the first column is charged with what every scan does, g at each prefix (a step per term
    and exponent bit) and v^k (a step per degree and its bits, over Q one per 64 bits of v^k
    too), and each column with a step per slot and degree.
    """
    m, n = g.ring.domain.modulus, g.ring.nvars
    split: dict[int, dict] = {}  # k -> the int terms of c_k, on x_1..x_{n-1}
    for exps, c in (g.terms if m else _integer_terms(g.terms)[0]).items():
        k = _fold(exps[-1], m) if m else exps[-1]
        c_k = split.setdefault(k, {})
        c_k[exps[:-1]] = c_k.get(exps[:-1], 0) + c
    c0 = _kernel(split.pop(0, {}), m)
    degrees = sorted(split)
    steps = sum(1 + sum(e.bit_length() for e in exps) for exps in g.terms)
    spent = len(values) ** (n - 1) * steps + len(values) * sum(  # over Q v^k has <= 3k bits
        1 + k.bit_length() + (0 if m else k * values[-1].bit_length() >> 6) for k in degrees)

    def charged() -> int:  # spent with one more column, or TooLarge past the limit
        total = spent + len(values) * len(degrees)
        if total > SCAN_WORK_LIMIT:
            raise TooLarge(f"a scan of {len(values)}^{n} points through a {len(g.terms)}-term "
                           f"generator takes about {total} kernel steps, over the limit of "
                           f"{SCAN_WORK_LIMIT}")
        return total
    charged()  # the first column's check, made before a kernel or power is built
    highs = [_kernel(split[k], m) for k in degrees]
    powers = [map(pow, values, itertools.repeat(k), itertools.repeat(m)) for k in degrees]
    if n > 1:  # v^k (mod p), read by every column; one univariate column streams them
        powers = [array("q", power) if m else list(power) for power in powers]
    columns: dict[tuple, array | list] = {}
    for prefix in itertools.product(values, repeat=n - 1):
        key = tuple([c(prefix) for c in highs])
        column = columns.get(key)
        if column is None:
            spent = charged()
            column = columns[key] = _column(key, powers, m, len(values))
        target, start = -c0(prefix) % m if m else -c0(prefix), 0
        while True:
            try:
                i = column.index(target, start)
            except ValueError:
                break
            yield prefix + (values[i],)
            start = i + 1


def _column(key: tuple, powers: list, m: int | None, size: int) -> array | list:
    """sum_k key[k] * powers[k] slot by slot: an int64 array mod m, or a list of exact ints.
    Over F_p the maps nest once per nonzero key[k], under p - 1 deep; over Q, where ~10^5
    nested maps overflow the C stack, each nonzero key[k] lands in a list of 11 slots."""
    column = itertools.repeat(0, size)
    for c, power in zip(key, powers):
        if c:
            column = map(add, column, map(mul, itertools.repeat(c), power))
            if not m:
                column = list(column)
    return array("q", map(mod, column, itertools.repeat(m))) if m else list(column)


EQUAL_WITHIN_BOUND = "equal_within_bound"
LEFT_NOT_IN_RIGHT = "left_not_in_right"
RIGHT_NOT_IN_LEFT = "right_not_in_left"


@dataclass(frozen=True)
class IdealComparison:
    """Mutual bounded membership of two presentations' generators."""

    kind: str
    offending: Polynomial | None = None
    certificate: MembershipCertificate | None = None


def ideal_equal_bounded(left: IdealPresentation, right: IdealPresentation,
                        bound: int) -> IdealComparison:
    """Compare two ideals by mutual membership of generators at a bound.

    A NonMember certificate in either direction is decisive; otherwise any
    Unknown verdict makes the comparison Unknown.
    """
    if left.ring != right.ring:
        raise RingMismatch(f"{left.ring} vs {right.ring}")
    saw_unknown = False
    for gens, other, kind in ((left.generators, right, LEFT_NOT_IN_RIGHT),
                              (right.generators, left, RIGHT_NOT_IN_LEFT)):
        for g in gens:
            cert = membership_bounded(g, other, bound)
            if cert.verdict == NON_MEMBER:
                return IdealComparison(kind, g, cert)
            if cert.verdict == UNKNOWN:
                saw_unknown = True
    return IdealComparison(UNKNOWN if saw_unknown else EQUAL_WITHIN_BOUND)


# -- univariate division, gcd, radical ---------------------------------------


def divmod_univariate(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder in one variable over a field, under gcd_univariate's budget."""
    rem, divisor = _raw_pair(f, g)
    if not divisor:
        raise ZeroPolynomial("division by the zero polynomial")
    quo, _ = _divide(rem, divisor, f.ring.domain, 0)
    return _poly(f.ring, quo), _poly(f.ring, rem)


def gcd_univariate(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0.

    Each remainder is made monic before it divides, over Q and F_p alike.  The
    whole sequence runs on one count of WORK_LIMIT steps, kept as the work is
    done and not estimated before it: a sequence may stay sparse (x^n + x + 1
    by x^(n-1) + 1 leaves 1 after one step) or turn dense (the same f by x - 1
    takes n steps), and only dividing tells which.
    """
    dom = f.ring.domain
    (a, b), spent = _raw_pair(f, g), 0
    while b:
        b = _monic(b, dom)
        _, spent = _divide(a, b, dom, spent)
        a, b = b, a
    return _poly(f.ring, _monic(a, dom) if a else a)


def _raw_pair(f: Polynomial, g: Polynomial) -> tuple[dict[int, Value], dict[int, Value]]:
    """f and g as {degree: value} dicts, once checked to be divisible."""
    if f.ring != g.ring:
        raise RingMismatch(f"{f.ring} vs {g.ring}")
    if f.ring.nvars != 1:
        raise UnsupportedDomain("univariate division only")
    if not f.ring.domain.is_field:
        raise UnsupportedDomain("division needs field coefficients")
    return {e: c for (e,), c in f.terms.items()}, {e: c for (e,), c in g.terms.items()}


def _poly(ring: PolyRing, raw: dict[int, Value]) -> Polynomial:
    return Polynomial._from_raw(ring, {(e,): c for e, c in raw.items()})


def _monic(raw: dict, dom: Domain) -> dict:
    """raw times the inverse of its lead, the coefficient at max(raw): the top degree,
    or with exponent-tuple keys the lex leading monomial."""
    k, m = dom.inv(raw[max(raw)]), dom.modulus
    return {e: c * k % m for e, c in raw.items()} if m else {e: c * k for e, c in raw.items()}


def _divide(rem: dict[int, Value], g: dict[int, Value], dom: Domain,
            spent: int) -> tuple[dict[int, Value], int]:
    """Divide rem by g in place, leaving the remainder; return (quotient, spent).

    Sparse classical division (Knuth, TAOCP vol. 2, 4.6.1): each step cancels
    rem's leading term, popped off a max-heap of its degrees, and updates the
    terms under g's other terms, each reduced once.  spent counts pops and
    updates, an update weighted by 1 + b/32 for a b-bit quotient coefficient
    (measured over Q up to ~24 000 bits); past WORK_LIMIT it raises TooLarge.
    """
    m, dg = dom.modulus, max(g)
    inv = dom.inv(g[dg])
    tail = [(e - dg, -c) for e, c in g.items() if e != dg]
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quo: dict[int, Value] = {}
    while heap and -heap[0] >= dg:
        d = -heapq.heappop(heap)
        c = rem.pop(d, 0)
        spent += 1
        if not c:  # a stale entry: that degree cancelled after it was pushed
            continue
        c = quo[d - dg] = c * inv % m if m else c * inv
        spent += len(tail) * (1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 32)
        if spent > WORK_LIMIT:
            raise TooLarge(f"univariate division ran {spent} steps (weighted by coefficient "
                           f"size) without finishing, over the limit of {WORK_LIMIT}")
        for shift, t in tail:
            e = d + shift
            if e not in rem:
                heapq.heappush(heap, -e)
            v = (rem.get(e, 0) + c * t) % m if m else rem.get(e, 0) + c * t
            if v:
                rem[e] = v
            else:
                del rem[e]
    return quo, spent


def monic(f: Polynomial) -> Polynomial:
    if f.is_zero:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    return Polynomial._from_raw(f.ring, _monic(f.terms, f.ring.domain))


def radical_univariate(f: Polynomial) -> Polynomial:
    """f / gcd(f, f'), normalized monic.

    Over Q the result generates the radical of (f).  Over F_p a
    nonconstant polynomial can have an identically zero derivative (x^p
    for instance); squarefree extraction breaks down there, so that case
    raises instead of guessing, and factors whose multiplicity is a
    multiple of p are beyond what this quotient can see.
    """
    if f.is_zero:
        raise ZeroPolynomial("radical of the zero ideal's generator")
    if f.ring.nvars != 1:
        raise UnsupportedDomain("radical_univariate needs one variable")
    if not f.ring.domain.is_field:
        raise UnsupportedDomain("radical needs field coefficients")
    df = f.derivative(f.ring.variables[0])
    if df.is_zero:
        if f.degree() >= 1:
            raise InseparableCase(f"derivative of {f} vanishes identically")
        return Polynomial.one(f.ring)  # nonzero constant: (f) is the whole ring
    rem, g = _raw_pair(f, gcd_univariate(f, df))
    quo, _ = _divide(rem, g, f.ring.domain, 0)
    if rem:
        raise AssertionError("gcd(f, f') must divide f")
    return _poly(f.ring, _monic(quo, f.ring.domain))


# -- the strictly growing chain and the basis-extraction demonstrator --------


@dataclass(frozen=True)
class ChainStep:
    """One certified strict inclusion (gens) < (gens + next_variable)."""

    step: int
    ideal_vars: tuple[str, ...]
    new_variable: str
    certificate: MembershipCertificate


def strict_chain_demo(k: int, ring: PolyRing) -> list[ChainStep]:
    """Certify the first k strict steps of the chain (x1) < (x1, x2) < ...

    Each step shows the next variable is outside the ideal of the previous
    ones via the evaluation point that is 1 on the new variable and 0
    elsewhere: a sound non-membership proof in any coefficient domain.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if ring.nvars < k + 1:
        raise NotEnoughVariables(f"need at least {k + 1} variables, ring has {ring.nvars}")
    check_chain_size(k, ring.nvars)
    dom = ring.domain
    if k and dom.modulus == 1:
        raise UnsupportedDomain("Z/1 is the zero ring: every ideal is the whole ring, so no "
                                "step of the chain is strict")
    steps = []
    for i in range(1, k + 1):
        prior = ring.variables[:i]
        new = ring.variables[i]
        ideal = IdealPresentation(ring, tuple(Polynomial.variable(ring, v) for v in prior))
        f = Polynomial.variable(ring, new)
        witness = tuple(
            dom.element(1 if j == i else 0) for j in range(ring.nvars)
        )
        cert = MembershipCertificate(NON_MEMBER, 0, witness=witness)
        if not cert.verify(f, ideal):
            raise AssertionError("evaluation witness failed to verify")
        steps.append(ChainStep(i, prior, new, cert))
    return steps


def check_chain_size(k: int, nvars: int) -> None:
    """Refuse a chain past WORK_LIMIT coordinate evaluations before any step.

    Step i evaluates its i generators and the new variable at a point of
    nvars coordinates.
    """
    coords = nvars * k * (k + 3) // 2
    if coords > WORK_LIMIT:
        raise TooLarge(f"a chain of {k} steps in {nvars} variables evaluates {coords} "
                       f"coordinates, over the limit of {WORK_LIMIT}")


@dataclass(frozen=True)
class BasisExtraction:
    """Result of collapsing a univariate presentation to one generator.

    ``leading_profile[i]`` is True when the degree-<=i members of the
    ideal already realize every leading coefficient, which over a field
    happens exactly from the extracted generator's degree upward.
    """

    extracted: Polynomial
    leading_profile: tuple[bool, ...]
    verified_equal: bool


def hbt_extract_univariate(ideal: IdealPresentation) -> BasisExtraction:
    """Extract the single generator of a univariate ideal over F_p.

    The gcd of the generators generates the same ideal; the returned
    profile records, degree by degree, when leading coefficients of
    bounded-degree members fill out the whole field.
    """
    ring = ideal.ring
    if ring.nvars != 1:
        raise UnsupportedDomain("univariate presentations only")
    if not (ring.domain.is_field and ring.domain.is_finite):
        raise UnsupportedDomain("expected coefficients in a prime field")
    if not ideal.generators:
        raise ZeroIdeal("no nonzero generator to extract from")
    g = Polynomial.zero(ring)
    for h in ideal.generators:  # gcd(0, h) is h made monic
        g = gcd_univariate(g, h)

    bound = max(1, sum(int(h.degree()) for h in ideal.generators))
    # its membership matrices refuse a huge degree before the profile below is built
    comparison = ideal_equal_bounded(IdealPresentation(ring, (g,)), ideal, bound)
    dg = int(g.degree())
    profile = tuple(i >= dg for i in range(max(int(h.degree()) for h in ideal.generators) + 1))
    return BasisExtraction(g, profile, comparison.kind == EQUAL_WITHIN_BOUND)
