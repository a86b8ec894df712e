"""Exact coefficient domains: the integers, the rationals, Z/n, and prime fields.

A ``Domain`` canonicalizes, inverts and powers raw values (Python ints, or
``fractions.Fraction`` for the rationals); sums and products are formed raw
with ``+ - *`` and canonicalized once per result.  ``RingElement`` wraps a
raw value with its domain for the public API.  Z/n residues are kept
canonical in ``[0, n)``; rationals are always in lowest terms with a
positive denominator (``Fraction`` guarantees both).  Z/1 is a legal ring
whose single element satisfies 1 = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import (
    DivisionByZero,
    DomainMismatch,
    InvalidDomain,
    NoInverse,
    TooLarge,
)

Value = Union[int, Fraction]

KIND_Z = "Z"
KIND_Q = "Q"
KIND_ZN = "Zn"
KIND_FP = "Fp"


# Sorenson & Webster (2015): the primes up to 41 as strong-pseudoprime bases
# decide primality for every n below MR_BOUND
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, proven for n < MR_BOUND.

    Above the bound a composite verdict is still a proof, but a probable
    prime raises TooLarge instead of being reported as prime.
    """
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise TooLarge(f"{n} is a probable prime; primality is proven only below {MR_BOUND}")
    return True


# rho steps per split in smallest_factor: ~1.3 s on a 2-vCPU host; a least factor near 10^12 fits
RHO_BUDGET = 1 << 21
RHO_BATCH = 128  # rho differences multiplied together between two gcds


def smallest_factor(n: int) -> int:
    """Least prime factor of n >= 2; n itself when prime.

    Division by MR_BASES, then Pollard's rho splits the rest and both parts
    are factored the same way; TooLarge past RHO_BUDGET steps in one split.
    A part past MR_BOUND, which is_prime cannot prove prime, is searched by
    division below its cofactor's least factor.
    """
    for b in MR_BASES:
        if n % b == 0:
            return b
    if is_prime(n):
        return n
    d = _rho_divisor(n)
    small, large = sorted((d, n // d))
    a = smallest_factor(small)
    if large >= MR_BOUND and a <= RHO_BUDGET:
        return next((q for q in range(MR_BASES[-1] + 2, a, 2) if large % q == 0), a)
    return min(a, smallest_factor(large))


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n: Pollard's rho in Brent's (1980) variant."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > RHO_BUDGET:  # a round takes at most 2r steps
                raise TooLarge(f"Pollard rho found no factor of {n} in {steps} steps "
                               f"(budget {RHO_BUDGET})")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, RHO_BATCH):  # one gcd per batch of differences
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            steps, r = steps + 2 * r, 2 * r
        if g == n:  # the last batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@dataclass(frozen=True)
class Domain:
    """Descriptor plus arithmetic provider for one coefficient domain."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind in (KIND_Z, KIND_Q):
            if self.modulus is not None:
                raise InvalidDomain(f"{self.kind} takes no modulus")
        elif self.kind == KIND_ZN:
            if self.modulus is None or self.modulus < 1:
                raise InvalidDomain("Z/n requires n >= 1")
        elif self.kind == KIND_FP:
            if self.modulus is None or not is_prime(self.modulus):
                raise InvalidDomain(f"F_p requires a prime modulus, got {self.modulus}")
        else:
            raise InvalidDomain(f"unknown domain kind {self.kind!r}")

    # -- structure ---------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in (KIND_Q, KIND_FP)

    @property
    def is_finite(self) -> bool:
        return self.kind in (KIND_ZN, KIND_FP)

    # -- raw value arithmetic ----------------------------------------------

    def canon(self, v) -> Value:
        """Reduce an int, Fraction, or string into canonical form."""
        if self.kind == KIND_Q:
            return Fraction(v)
        if type(v) is int:  # the common case; skips Fraction's ABCMeta instance check
            return v % self.modulus if self.modulus else v
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise DomainMismatch(f"{v} is not an element of {self}")
            v = v.numerator
        return int(v) % self.modulus if self.modulus else int(v)

    @property
    def zero(self) -> Value:
        return Fraction(0) if self.kind == KIND_Q else 0

    @property
    def one(self) -> Value:
        return self.canon(1)

    def inv(self, a: Value) -> Value:
        """Multiplicative inverse of a canonical value.

        Fields invert every nonzero element (zero raises DivisionByZero).
        In Z and Z/n only units are invertible; anything else raises
        NoInverse.  In Z/1 the sole element 0 is its own inverse.
        """
        if self.kind == KIND_Q:
            if a == 0:
                raise DivisionByZero("inverse of 0")
            return 1 / Fraction(a)
        if self.kind == KIND_FP:
            if a % self.modulus == 0:
                raise DivisionByZero("inverse of 0")
            return pow(a, -1, self.modulus)
        if self.kind == KIND_ZN:
            if self.modulus == 1:
                return 0
            if math.gcd(a, self.modulus) != 1:
                raise NoInverse(f"{a} is not a unit modulo {self.modulus}")
            return pow(a, -1, self.modulus)
        if a in (1, -1):
            return a
        raise NoInverse(f"{a} is not a unit in Z")

    def pow(self, a: Value, e: int) -> Value:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return pow(a, e, self.modulus) if self.modulus else a ** e

    # -- enumeration --------------------------------------------------------

    def raw_elements(self) -> Iterator[Value]:
        if not self.is_finite:
            raise InvalidDomain(f"{self} is infinite")
        return iter(range(self.modulus))

    def elements(self) -> Iterator["RingElement"]:
        return (RingElement(self, v) for v in self.raw_elements())

    def element(self, v) -> "RingElement":
        return RingElement(self, v)

    def __str__(self) -> str:
        return {
            KIND_Z: "Z",
            KIND_Q: "Q",
            KIND_ZN: f"Z/{self.modulus}",
            KIND_FP: f"F_{self.modulus}",
        }[self.kind]


ZZ = Domain(KIND_Z)
QQ = Domain(KIND_Q)


def Zn(n: int) -> Domain:
    return Domain(KIND_ZN, n)


def Fp(p: int) -> Domain:
    return Domain(KIND_FP, p)


@dataclass(frozen=True)
class RingElement:
    """A canonical value tagged with its domain.

    Equality is structural; arithmetic between mismatched domains raises
    DomainMismatch.  Plain ints (and Fractions over Q) coerce on the fly.
    """

    domain: Domain
    value: Value

    def __post_init__(self):
        object.__setattr__(self, "value", self.domain.canon(self.value))

    @classmethod
    def trusted(cls, domain: Domain, value: Value) -> "RingElement":
        """Wrap a value that is already canonical in domain, without canon."""
        e = object.__new__(cls)
        object.__setattr__(e, "domain", domain)
        object.__setattr__(e, "value", value)
        return e

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.domain != self.domain:
                raise DomainMismatch(f"{self.domain} vs {other.domain}")
            return other
        if isinstance(other, (int, Fraction)):
            return RingElement(self.domain, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.domain, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.domain, self.value - other.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.domain, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.domain, -self.value)

    def __pow__(self, e: int):
        return RingElement(self.domain, self.domain.pow(self.value, e))

    def inv(self) -> "RingElement":
        return RingElement(self.domain, self.domain.inv(self.value))

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __str__(self) -> str:
        return str(self.value)


def units_of(domain: Domain) -> set[RingElement]:
    """All units of a finite modular ring, by exhaustive inverse search.

    In Z/1 the single element 0 (= 1) is a unit.  For n >= 2 the units are
    exactly the residues coprime to n, which this search rediscovers.
    """
    if not domain.is_finite:
        raise InvalidDomain("units_of expects Z/n or F_p")
    n = domain.modulus
    found = set()
    for u in range(n):
        if any(u * v % n == 1 % n for v in range(n)):
            found.add(RingElement(domain, u))
    return found


@dataclass(frozen=True)
class ModHomomorphism:
    """The reduction map from the integers onto Z/n.

    ``modulus == 0`` encodes the identity map of the integers onto
    themselves, which is what quotienting by the zero ideal produces.
    """

    modulus: int

    def __post_init__(self):
        if self.modulus < 0:
            raise InvalidDomain("modulus must be >= 0")

    @property
    def target(self) -> Domain:
        return ZZ if self.modulus == 0 else Zn(self.modulus)

    def apply(self, r: int) -> RingElement:
        return self.target.element(r)

    def __call__(self, r: int) -> RingElement:
        return self.apply(r)


@dataclass(frozen=True)
class HomReport:
    """Outcome of sampling a map for the homomorphism laws."""

    additive: bool
    multiplicative: bool
    preserves_one: bool
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.additive and self.multiplicative and self.preserves_one


def hom_check(phi: ModHomomorphism, samples: list[tuple[int, int]]) -> HomReport:
    """Verify phi(a+b) = phi(a)+phi(b), phi(ab) = phi(a)phi(b), phi(1) = 1."""
    additive = all(phi(a + b) == phi(a) + phi(b) for a, b in samples)
    multiplicative = all(phi(a * b) == phi(a) * phi(b) for a, b in samples)
    preserves_one = phi(1) == phi.target.element(1)
    return HomReport(additive, multiplicative, preserves_one, len(samples))
