"""Sampled (or exhaustive) verification of the commutative-ring axioms."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .domains import Domain, RingElement
from .errors import AlgebraError, InvalidDomain

Triple = tuple[RingElement, RingElement, RingElement]

AXIOM_NAMES = (
    "add_associative",
    "add_commutative",
    "add_identity",
    "add_inverse",
    "mul_associative",
    "mul_identity",
    "mul_commutative",
    "distributive_left",
    "distributive_right",
)


@dataclass
class AxiomReport:
    """Per-axiom verdicts over a sample of element triples.

    A pass means every sampled instance satisfied the identity exactly.
    ``one_equals_zero`` flags the one-element ring.  For finite modular
    domains ``nonzero_invertible`` reports whether every nonzero element
    has an inverse (exhaustively); for Z and Q it is judged on the sampled
    elements only.
    """

    domain: Domain
    triples_checked: int
    axioms: dict[str, bool] = field(default_factory=dict)
    one_equals_zero: bool = False
    nonzero_invertible: bool | None = None

    @property
    def passed(self) -> bool:
        return all(self.axioms.values())


def check_ring_axioms(domain: Domain, samples: list[Triple]) -> AxiomReport:
    """Check the ring laws on the given triples, exactly, with no shortcuts."""
    zero = domain.element(0)
    one = domain.element(1)
    results = {name: True for name in AXIOM_NAMES}
    for a, b, c in samples:
        if (a + b) + c != a + (b + c):
            results["add_associative"] = False
        if a + b != b + a:
            results["add_commutative"] = False
        if a + zero != a or zero + a != a:
            results["add_identity"] = False
        if a + (-a) != zero:
            results["add_inverse"] = False
        if (a * b) * c != a * (b * c):
            results["mul_associative"] = False
        if one * a != a or a * one != a:
            results["mul_identity"] = False
        if a * b != b * a:
            results["mul_commutative"] = False
        if a * (b + c) != a * b + a * c:
            results["distributive_left"] = False
        if (a + b) * c != a * c + b * c:
            results["distributive_right"] = False

    if domain.is_finite:
        invertible = _all_nonzero_invertible(domain)
    else:
        sampled = {x for t in samples for x in t if x != zero}
        invertible = all(_has_inverse(x) for x in sampled) if sampled else None

    return AxiomReport(
        domain=domain,
        triples_checked=len(samples),
        axioms=results,
        one_equals_zero=(one == zero),
        nonzero_invertible=invertible,
    )


def _has_inverse(x: RingElement) -> bool:
    try:
        x.inv()
        return True
    except AlgebraError:
        return False


def _all_nonzero_invertible(domain: Domain) -> bool:
    zero = domain.element(0)
    return all(_has_inverse(x) for x in domain.elements() if x != zero)


def all_triples(domain: Domain) -> list[Triple]:
    """Every (a, b, c) over a finite domain; |domain|^3 triples."""
    if not domain.is_finite:
        raise InvalidDomain("exhaustive triples need a finite domain")
    elems = list(domain.elements())
    return list(itertools.product(elems, repeat=3))


def random_rational_triples(count: int, rng: random.Random | None = None,
                            span: int = 50) -> list[Triple]:
    """Random triples over Q with numerators/denominators up to span."""
    from .domains import QQ

    rng = rng or random.Random(0)

    def draw() -> RingElement:
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        return QQ.element(Fraction(num, den))

    return [(draw(), draw(), draw()) for _ in range(count)]
