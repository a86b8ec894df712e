"""Sparse multivariate polynomials over the exact coefficient domains.

Terms live in a dict from exponent tuples to nonzero raw coefficients; the
zero polynomial has no terms.  ``Polynomial(...)`` checks and canonicalizes
outside terms; the library's own, zero/one/constant/variable's too, go through
``Polynomial._from_raw``, which reduces each coefficient once (Z -> Z/n is a ring
map) and checks nothing, so a stored zero coefficient can never be observed.  Monomials
are compared in lexicographic order of the declared variables, the one order every writer uses.

Every product and power runs one term-pair loop, ``_raw_product``.  Over Q
it runs on integer numerators over one denominator (Knuth, TAOCP vol. 2,
4.6.1): each operand is scaled by the lcm D of its denominators, the ints
are multiplied, and each result coefficient is written once as a Fraction
over D_a*D_b, or over D^e for a power, which is scaled once before its
binary powering.  Over Z, F_p and Z/n the loop runs on the raw values.

Every point evaluation runs one loop, ``_kernel(terms, m)``: c times pow(x_i,
e, m) over each int term's nonzero exponents, summed and reduced once mod m
(None over Z and Q).  ``Polynomial.evaluator()`` caches it on f's int terms
(D*f over Q): raw canonical coordinates -> a value that is zero exactly where
f vanishes (an int at integer coordinates, over Q too).  ``evaluate`` is that
kernel behind the entry checks: arity, coordinate domains and one ``canon``
per coordinate.  The zero scan calls ``_kernel`` on its coefficient split.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

from .domains import KIND_Q, KIND_Z, Domain, QQ, RingElement, Value, ZZ
from .errors import (
    DomainMismatch,
    InvalidDomain,
    NotUnivariate,
    RingMismatch,
    TooLarge,
    UnknownVariable,
    ZeroPolynomial,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

NEG_INFINITY = float("-inf")
# term pairs one product or power may multiply, witness terms one prime check may build
# and evaluate, or coordinates one chain-demo may evaluate: 1-3 s just under it
# on a 2-vCPU host (0.3-1 s for a product or power over Q), ~7 s for a prime check over F_p
WORK_LIMIT = 1_000_000
# decimal digits of one integer: Python's default limit for int <-> str conversion
DIGIT_LIMIT = 4300


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring descriptor: coefficient domain plus variable names."""

    domain: Domain
    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise InvalidDomain("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise InvalidDomain("variable names must be distinct")
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise InvalidDomain(f"bad variable name {name!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __str__(self) -> str:
        return f"{self.domain}[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and evaluation."""

    __slots__ = ("ring", "terms", "_hash", "_evaluator")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], object] | None = None):
        raw: dict[tuple[int, ...], Value] = {}
        if terms:
            dom = ring.domain
            zero = dom.zero
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != ring.nvars or any(e < 0 for e in exps):
                    raise InvalidDomain(f"bad exponent vector {exps}")
                raw[exps] = raw.get(exps, zero) + dom.canon(coeff)
        self._set(ring, raw)

    @classmethod
    def _from_raw(cls, ring: PolyRing, raw: dict, base: dict | None = None,
                  den: int | None = None) -> "Polynomial":
        """The constructor for terms the library built: exponent tuples of ring's
        arity, raw sums and products of canonical values (over Q, or int numerators
        over the one denominator den).  Reduces, checks nothing."""
        p = cls.__new__(cls)
        p._set(ring, raw, base, den)
        return p

    def _set(self, ring: PolyRing, raw: dict, base: dict | None = None,
             den: int | None = None) -> None:
        """Fill the slots: raw's nonzero terms, each reduced once, over base's terms."""
        terms = _reduced(ring.domain, raw, den)
        if base:
            cancelled = raw.keys() - terms.keys()
            terms = {**base, **terms}
            for exps in cancelled:
                del terms[exps]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_evaluator", None)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "Polynomial":
        return cls._from_raw(ring, {})

    @classmethod
    def one(cls, ring: PolyRing) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: PolyRing, value) -> "Polynomial":
        return cls._from_raw(ring, {(0,) * ring.nvars: ring.domain.canon(value)})

    @classmethod
    def variable(cls, ring: PolyRing, name: str) -> "Polynomial":
        i = ring.index_of(name)
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls._from_raw(ring, {exps: ring.domain.one})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | float:
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def degree(self) -> int | float:
        """Degree of a univariate polynomial; the zero polynomial has -inf."""
        if self.ring.nvars != 1:
            raise NotUnivariate(f"{self.ring} has {self.ring.nvars} variables")
        if not self.terms:
            return NEG_INFINITY
        return max(e[0] for e in self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        return max(self.terms)

    def leading_coefficient(self) -> RingElement:
        return self.ring.domain.element(self.terms[self.leading_monomial()])

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        # only the smaller operand's monomials change: the larger one is copied, not reduced
        big, small = sorted((self.terms, other.terms), key=len, reverse=True)
        get, zero = big.get, self.ring.domain.zero
        return self._from_raw(self.ring, {e: get(e, zero) + c for e, c in small.items()}, big)

    __radd__ = __add__

    def __neg__(self):
        return self._from_raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        if len(self.terms) * len(other.terms) > WORK_LIMIT:
            raise TooLarge(f"a product of {len(self.terms)} by {len(other.terms)} terms exceeds "
                           f"the limit of {WORK_LIMIT} term pairs")
        if self.ring.domain == QQ:  # (A/a)(B/b) = AB/ab on the integer parts A and B
            (a, da), (b, db) = _integer_terms(self.terms), _integer_terms(other.terms)
            return self._from_raw(self.ring, _raw_product(a, b), None, da * db)
        return self._from_raw(self.ring, _raw_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        what = f"power {e} of a {len(self.terms)}-term polynomial"
        dom = self.ring.domain
        # over Q the powering runs on the integer part F = D*self and divides by D^e once
        terms, den = _integer_terms(self.terms) if dom == QQ else (self.terms, 1)
        digits = 0 if dom.modulus else _power_digits(terms, den, e)
        if digits > DIGIT_LIMIT:
            raise TooLarge(f"{what} has coefficients of up to {digits} digits, over the limit "
                           f"of {DIGIT_LIMIT}")
        # a pair of d-digit coefficients costs about 1 + d/100 pairs of small ones (measured
        # over Z and Q up to 4 000 digits)
        pairs = self._power_term_pairs(e) * (1 + digits // 100)
        if pairs > WORK_LIMIT:
            raise TooLarge(f"{what} multiplies at least {pairs} term pairs (weighted by "
                           f"coefficient size), over the limit of {WORK_LIMIT}")
        result = _reduced(dom, {(0,) * self.ring.nvars: 1})
        k = e
        while k:
            if k & 1:
                result = _reduced(dom, _raw_product(result, terms))
            terms = _reduced(dom, _raw_product(terms, terms)) if k > 1 else terms
            k >>= 1
        return self._from_raw(self.ring, result, None, den ** e if dom == QQ else None)

    def _power_term_pairs(self, e: int) -> int:
        """Term pairs that __pow__'s multiplies do, at most, or a partial sum past WORK_LIMIT.

        self**k has at most min(C(k+t-1, t-1), C(k*d+n, n)) terms: the
        monomials of degree k in t terms, and those of degree <= k*d in n
        variables.
        """
        t, n = len(self.terms), self.ring.nvars
        if t == 0:
            return 0
        d = int(self.total_degree())

        def terms(k: int) -> int:
            return min(math.comb(k + t - 1, t - 1), math.comb(k * d + n, n))

        pairs, done, k = 0, 0, 1  # the loop below holds result = self**done, base = self**k
        while e and pairs <= WORK_LIMIT:
            if e & 1:
                pairs += terms(done) * terms(k)
                done += k
            if e > 1:
                pairs += terms(k) ** 2
            k *= 2
            e >>= 1
        return pairs

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index_of(var)
        # lowering exponent i is one-to-one on the terms it keeps, so nothing accumulates
        return self._from_raw(self.ring, {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
                                          for exps, c in self.terms.items() if exps[i]})

    def evaluate(self, point: Sequence) -> RingElement:
        """Exact value at a point with coordinates in the coefficient domain.

        A polynomial over Z may be evaluated at rational coordinates; the
        result then lives in Q.
        """
        if len(point) != self.ring.nvars:
            raise DomainMismatch(f"expected {self.ring.nvars} coordinates, got {len(point)}")
        dom = out = self.ring.domain
        # kind and identity tests: the dataclass __eq__ runs only on a foreign coordinate
        over_z, canon, coords = dom.kind == KIND_Z, dom.canon, []
        for x in point:
            if isinstance(x, RingElement):
                if x.domain is not dom and x.domain != dom and not (over_z and x.domain == QQ):
                    raise DomainMismatch(f"point coordinate in {x.domain}, expected {dom}")
                x = x.value
            # a rational coordinate lifts the point into Q, where the ints before it stay exact
            if (over_z and out is dom and type(x) is not int and isinstance(x, Fraction)
                    and x.denominator != 1):
                out, canon = QQ, QQ.canon
            coords.append(canon(x))
        kernel, den = self._evaluator or self._build_evaluator()
        value = kernel(coords)
        return RingElement.trusted(out, Fraction(value, den) if out.kind == KIND_Q else value)

    def evaluator(self) -> Callable[[tuple], Value]:
        """The cached kernel: self's residue mod n, or over Z and Q the value of D * self
        (D the lcm of the coefficient denominators), an int at integer coordinates and
        a Fraction at rational ones.  Nothing checks the coordinates; evaluate does."""
        return (self._evaluator or self._build_evaluator())[0]

    def _build_evaluator(self) -> tuple[Callable[[tuple], Value], int]:
        """Cache and return (kernel, D): the kernel of D * self's int terms."""
        terms, den = _integer_terms(self.terms) if self.ring.domain == QQ else (self.terms, 1)
        pair = _kernel(terms, self.ring.domain.modulus), den
        object.__setattr__(self, "_evaluator", pair)
        return pair

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{self.ring}: {format_polynomial(self)}>"


def _kernel(terms: Mapping[tuple[int, ...], int], m: int | None) -> Callable[[Sequence], Value]:
    """The one evaluation loop: at a point of raw canonical coordinates, each int term's
    c times pow(x_i, e, m) over its nonzero exponents, summed and reduced once mod m at
    the end (m is None over Z and Q)."""
    monos = [(c, [(i, e) for i, e in enumerate(exps) if e]) for exps, c in terms.items()]

    def kernel(point: Sequence) -> Value:
        total = 0
        for c, factors in monos:
            for i, e in factors:
                c *= pow(point[i], e, m)
            total += c
        return total % m if m else total

    return kernel


def _reduced(dom: Domain, raw: dict[tuple[int, ...], Value],
             den: int | None = None) -> dict[tuple[int, ...], Value]:
    """The nonzero terms of raw, reduced once: over Z and Q sums and products
    of canonical values are canonical already, mod n they need their residue.
    Int numerators over a denominator den become Fractions in lowest terms."""
    m = dom.modulus
    if m:
        return {e: r for e, c in raw.items() if (r := c % m)}
    if den == 1:
        return {e: Fraction(c) for e, c in raw.items() if c}
    if den:
        return {e: Fraction(c, den) for e, c in raw.items() if c}
    return {e: c for e, c in raw.items() if c}


def _integer_terms(terms: Mapping[object, Fraction | int]) -> tuple[dict, int]:
    """(F, D) with D the lcm of the denominators of terms' values and F = D * terms, on ints."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _raw_product(a: Mapping, b: Mapping) -> dict:
    """The unreduced product of two term dicts: ca*cb summed at each ea + eb."""
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for ea, ca in a.items():
        for eb, cb in b_items:
            exps = tuple(map(add, ea, eb))
            out[exps] = get(exps, 0) + ca * cb
    return out


def _power_digits(terms: Mapping[tuple[int, ...], int], den: int, e: int) -> int:
    """Digits of the largest numerator or denominator in (terms/den)**e, at most.

    Each coefficient of F**e, for F with t int terms, is at most
    (t * max |F_i|)**e in size, and den**e is a common denominator.
    """
    if not terms:
        return 0
    top = max(map(abs, terms.values()))
    return math.ceil(e * math.log10(max(len(terms) * top, den)))


def format_polynomial(f: Polynomial) -> str:
    """Canonical string form: terms lex-descending, explicit '*', '^' powers.

    parse(format(f)) == f holds for every polynomial, including ones whose
    variable names would be ambiguous under juxtaposition.
    """
    if f.is_zero:
        return "0"
    names = f.ring.variables
    signed = f.ring.domain.kind in ("Z", "Q")
    pieces: list[str] = []
    for exps, coeff in sorted(f.terms.items(), reverse=True):
        negative = signed and coeff < 0
        magnitude = -coeff if negative else coeff
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors or magnitude != 1:
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def poly_to_json(f: Polynomial) -> dict:
    """Canonical JSON form with exact string coefficients, terms lex-descending."""
    return {
        "vars": list(f.ring.variables),
        "domain": domain_tag(f.ring.domain),
        "terms": [{"exps": list(exps), "coeff": str(c)}
                  for exps, c in sorted(f.terms.items(), reverse=True)],
    }


def poly_from_json(obj: Mapping) -> Polynomial:
    ring = PolyRing(domain_from_tag(obj["domain"]), tuple(obj["vars"]))
    terms = {}
    for t in obj["terms"]:
        terms[tuple(t["exps"])] = Fraction(t["coeff"]) if ring.domain == QQ else int(t["coeff"])
    return Polynomial(ring, terms)


def domain_tag(domain: Domain) -> str:
    if domain == ZZ:
        return "z"
    if domain == QQ:
        return "q"
    if domain.kind == "Fp":
        return f"fp:{domain.modulus}"
    return f"zn:{domain.modulus}"


def domain_from_tag(tag: str) -> Domain:
    from .domains import Fp, Zn

    if tag == "z":
        return ZZ
    if tag == "q":
        return QQ
    if tag[:3] not in ("fp:", "zn:"):
        raise InvalidDomain(f"unknown domain tag {tag!r}")
    try:
        modulus = int(tag[3:])
    except ValueError:
        raise InvalidDomain(f"domain tag {tag!r} has no integer modulus") from None
    return (Fp if tag[:3] == "fp:" else Zn)(modulus)


def monomials_up_to(nvars: int, bound: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= bound, ascending in degree."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 0:
            out.append(prefix)
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), bound, nvars)
    out.sort(key=lambda t: (sum(t), t))
    return out
