"""Sparse multivariate polynomials over the exact coefficient domains.

Terms live in a dict from exponent tuples to nonzero raw coefficients;
the zero polynomial has no terms.  Coefficients are canonicalized once,
on construction, and every operation keeps them canonical, so a stored
zero coefficient can never be observed.  Monomials are compared in
lexicographic order of the declared variables by default; graded-lex is
available for display.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .domains import Domain, QQ, RingElement, Value, ZZ
from .errors import (
    DomainMismatch,
    InvalidDomain,
    NotUnivariate,
    RingMismatch,
    UnknownVariable,
    ZeroPolynomial,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

NEG_INFINITY = float("-inf")


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


class MonomialOrder(Enum):
    LEX = "lex"
    GRLEX = "grlex"

    def key(self, exps: tuple[int, ...]):
        if self is MonomialOrder.GRLEX:
            return (sum(exps), exps)
        return exps


DEFAULT_ORDER = MonomialOrder.LEX


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and evaluation."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], object] | None = None):
        canon: dict[tuple[int, ...], Value] = {}
        if terms:
            dom = ring.domain
            zero = dom.zero
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != ring.nvars or any(e < 0 for e in exps):
                    raise InvalidDomain(f"bad exponent vector {exps}")
                c = dom.canon(coeff)
                if c != zero:
                    acc = dom.add(canon.get(exps, zero), c)
                    if acc == zero:
                        canon.pop(exps, None)
                    else:
                        canon[exps] = acc
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "Polynomial":
        return cls(ring)

    @classmethod
    def one(cls, ring: PolyRing) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: PolyRing, value) -> "Polynomial":
        return cls(ring, {(0,) * ring.nvars: value})

    @classmethod
    def variable(cls, ring: PolyRing, name: str) -> "Polynomial":
        i = ring.index_of(name)
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls(ring, {exps: 1})

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(ring, {tuple(exps): coeff})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> RingElement:
        return self.ring.domain.element(self.terms.get(tuple(exps), 0))

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

    def leading_monomial(self, order: MonomialOrder = DEFAULT_ORDER) -> tuple[int, ...]:
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = DEFAULT_ORDER) -> RingElement:
        return self.ring.domain.element(self.terms[self.leading_monomial(order)])

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
        dom = self.ring.domain
        dom_add = dom.add
        zero = dom.zero
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            acc = dom_add(get(exps, zero), c)
            if acc == zero:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self):
        dom = self.ring.domain
        return self._raw({e: dom.neg(c) for e, c in self.terms.items()})

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
        dom = self.ring.domain
        dom_add, dom_mul = dom.add, dom.mul
        zero = dom.zero
        out: dict[tuple[int, ...], Value] = {}
        get = out.get
        other_items = list(other.terms.items())
        for ea, ca in self.terms.items():
            for eb, cb in other_items:
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = dom_add(get(exps, zero), dom_mul(ca, cb))
                if acc == zero:
                    out.pop(exps, None)
                else:
                    out[exps] = acc
        return self._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _raw(self, terms: dict[tuple[int, ...], Value]) -> "Polynomial":
        # terms are already canonical; skip re-reduction
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "ring", self.ring)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index_of(var)
        dom = self.ring.domain
        out: dict[tuple[int, ...], Value] = {}
        zero = dom.zero
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            scaled = dom.mul(c, dom.canon(e))
            if scaled == zero:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            acc = dom.add(out.get(new, zero), scaled)
            if acc == zero:
                out.pop(new, None)
            else:
                out[new] = acc
        return self._raw(out)

    def evaluate(self, point: Sequence) -> RingElement:
        """Exact value at a point with coordinates in the coefficient domain.

        A polynomial over Z may be evaluated at rational coordinates; the
        result then lives in Q.
        """
        if len(point) != self.ring.nvars:
            raise DomainMismatch(f"expected {self.ring.nvars} coordinates, got {len(point)}")
        dom = self.ring.domain
        coords = []
        for x in point:
            if isinstance(x, RingElement):
                if x.domain != dom and not (dom == ZZ and x.domain == QQ):
                    raise DomainMismatch(f"point coordinate in {x.domain}, expected {dom}")
                coords.append(x.value)
            else:
                coords.append(x)
        if dom == ZZ and any(isinstance(x, Fraction) and x.denominator != 1 for x in coords):
            dom = QQ
        coords = [dom.canon(x) for x in coords]

        # stored coefficients are canonical by the class invariant; only coordinates need canon
        total = dom.zero
        for exps, term in self.terms.items():
            for x, e in zip(coords, exps):
                if e:
                    term = dom.mul(term, dom.pow(x, e))
            total = dom.add(total, term)
        return RingElement.trusted(dom, total)

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


def format_polynomial(f: Polynomial, order: MonomialOrder = DEFAULT_ORDER) -> str:
    """Canonical string form: terms descending, explicit '*', '^' powers.

    parse(format(f)) == f holds for every polynomial, including ones whose
    variable names would be ambiguous under juxtaposition.
    """
    if f.is_zero:
        return "0"
    names = f.ring.variables
    signed = f.ring.domain.kind in ("Z", "Q")
    pieces: list[str] = []
    for exps in sorted(f.terms, key=order.key, reverse=True):
        coeff = f.terms[exps]
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


def poly_to_json(f: Polynomial, order: MonomialOrder = DEFAULT_ORDER) -> dict:
    """Canonical JSON form with exact string coefficients."""
    return {
        "vars": list(f.ring.variables),
        "domain": domain_tag(f.ring.domain),
        "terms": [
            {"exps": list(exps), "coeff": str(f.terms[exps])}
            for exps in sorted(f.terms, key=order.key, reverse=True)
        ],
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
    if tag.startswith("fp:"):
        return Fp(int(tag[3:]))
    if tag.startswith("zn:"):
        return Zn(int(tag[3:]))
    raise InvalidDomain(f"unknown domain tag {tag!r}")


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
