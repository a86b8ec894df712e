"""Ideals of Z and of Z/n.

Every ideal of Z is principal, so an ``IntIdeal`` is just its canonical
non-negative generator: 0 for the zero ideal, 1 for the whole ring.
Ideals of Z/n are small enough to store element-by-element, which lets
both definitions of primality be checked by brute force.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .domains import Domain, ModHomomorphism, Zn, ZZ, is_prime
from .errors import InvalidIdeal, NotAChain, OutOfRange

ENUMERATION_LIMIT = 10_000


@dataclass(frozen=True)
class IntIdeal:
    """An ideal of Z in canonical principal form (non-negative generator)."""

    generator: int

    def __post_init__(self):
        if self.generator < 0:
            object.__setattr__(self, "generator", -self.generator)

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "IntIdeal":
        """The ideal generated by a finite set, reduced to principal form.

        The gcd of the absolute values generates the same ideal; the empty
        set generates the zero ideal.
        """
        g = 0
        for z in gens:
            g = math.gcd(g, abs(z))
        return cls(g)

    def contains(self, z: int) -> bool:
        if self.generator == 0:
            return z == 0
        return z % self.generator == 0

    def __contains__(self, z: int) -> bool:
        return self.contains(z)

    def is_prime(self) -> bool:
        """Zero ideal and prime-generated ideals are prime; (1) = Z is not."""
        if self.generator == 0:
            return True
        return is_prime(self.generator)

    @property
    def is_whole_ring(self) -> bool:
        return self.generator == 1

    def __str__(self) -> str:
        return f"({self.generator})"


@dataclass(frozen=True)
class QuotientByIdeal:
    """A quotient of Z by one of its ideals, with the projection map."""

    ring: Domain
    projection: ModHomomorphism


def quotient_ring(ideal: IntIdeal) -> QuotientByIdeal:
    """Quotient Z by an ideal: Z/(n) is Z/n, Z/(0) is Z with the identity map.

    The kernel of the returned projection is exactly the input ideal.
    """
    n = ideal.generator
    ring = ZZ if n == 0 else Zn(n)
    return QuotientByIdeal(ring, ModHomomorphism(n))


@dataclass(frozen=True)
class ZnIdeal:
    """An ideal of Z/n, stored as its sorted list of residues."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidIdeal("modulus must be >= 1")
        object.__setattr__(self, "elements", tuple(sorted({e % self.modulus for e in self.elements})))

    @classmethod
    def generated_by(cls, n: int, d: int) -> "ZnIdeal":
        return cls(n, tuple((d * k) % n for k in range(n)))

    def is_valid(self) -> bool:
        """Contains 0, closed under + and under multiplication by anything."""
        s = set(self.elements)
        if 0 not in s:
            return False
        n = self.modulus
        for i in s:
            for j in s:
                if (i + j) % n not in s:
                    return False
            for r in range(n):
                if (r * i) % n not in s:
                    return False
        return True

    def contains(self, z: int) -> bool:
        return z % self.modulus in set(self.elements)

    @property
    def is_whole_ring(self) -> bool:
        return len(self.elements) == self.modulus

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def enumerate_ideals_mod_n(n: int) -> list[ZnIdeal]:
    """All ideals of Z/n, one per divisor of n, smallest generator first.

    Exactly two ideals exist iff n is prime: the zero ideal and the ring.
    """
    if n < 1 or n > ENUMERATION_LIMIT:
        raise OutOfRange(f"n must be in [1, {ENUMERATION_LIMIT}], got {n}")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [ZnIdeal.generated_by(n, d) for d in divisors]


@dataclass(frozen=True)
class PrimeDefinitionVerdict:
    """The two primality definitions evaluated independently on one ideal."""

    def_direct: bool
    def_quotient: bool


def prime_defs_agree(n: int, ideal: ZnIdeal) -> PrimeDefinitionVerdict:
    """Evaluate primality of an ideal of Z/n under both definitions.

    The direct route checks, for every product landing in the ideal, that
    some factor already lies in it (and that the ideal is proper).  The
    quotient route builds Z/n modulo the ideal and looks for a nontrivial
    ring with no zero-divisors.
    """
    if ideal.modulus != n or not ideal.is_valid():
        raise InvalidIdeal(f"{ideal} is not an ideal of Z/{n}")
    members = set(ideal.elements)

    direct = not ideal.is_whole_ring
    if direct:
        for i in range(n):
            for j in range(n):
                if (i * j) % n in members and i not in members and j not in members:
                    direct = False
                    break
            if not direct:
                break

    # Quotient construction: classes of r are r + ideal; multiply via reps.
    class_of = {}
    for r in range(n):
        rep = min((r + i) % n for i in members)
        class_of[r] = rep
    classes = sorted(set(class_of.values()))
    zero_class = class_of[0]

    nontrivial = len(classes) >= 2
    has_zero_divisor = any(
        class_of[(s * t) % n] == zero_class
        for s in classes if s != zero_class
        for t in classes if t != zero_class
    )
    return PrimeDefinitionVerdict(direct, nontrivial and not has_zero_divisor)


def ascending_chain_stabilizes(chain: Sequence[Sequence[int]]) -> int:
    """First index at which consecutive ideals of an ascending chain coincide.

    Each entry is a generator list; the generated ideals must be ascending
    (checked via divisibility of the gcds, else NotAChain).  If no two
    consecutive ideals are equal the chain is strictly growing throughout,
    and the final index is returned.
    """
    if not chain:
        raise NotAChain("empty chain")
    gcds = [IntIdeal.from_generators(gens).generator for gens in chain]
    for k in range(len(gcds) - 1):
        lo, hi = gcds[k], gcds[k + 1]
        contained = (lo == 0) if hi == 0 else (lo % hi == 0)
        if not contained:
            raise NotAChain(f"({lo}) is not contained in ({hi}) at step {k}")
    for k in range(len(gcds) - 1):
        if gcds[k] == gcds[k + 1]:
            return k
    return len(gcds) - 1


def bounded_combination_member(gens: Sequence[int], z: int, coeff_bound: int) -> bool:
    """Brute-force search for z = sum of c_i * gens_i with |c_i| <= bound.

    Independent oracle for principal reduction; exponential in len(gens),
    so callers keep the generator list short.
    """
    if not gens:
        return z == 0
    head, tail = gens[0], gens[1:]
    if not tail:
        if head == 0:
            return z == 0
        return z % head == 0 and abs(z // head) <= coeff_bound
    return any(
        bounded_combination_member(tail, z - c * head, coeff_bound)
        for c in range(-coeff_bound, coeff_bound + 1)
    )


def all_zn_ideals_by_filtering(n: int) -> list[ZnIdeal]:
    """Exhaustive subset filter over Z/n; cross-check for the enumerator.

    Cost 2^n subsets, so keep n small (the tests stop at 12).
    """
    if n < 1 or n > 16:
        raise OutOfRange("subset filtering is exponential; n must be <= 16")
    out = []
    rest = list(range(1, n))
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = ZnIdeal(n, (0,) + combo)
            if cand.is_valid():
                out.append(cand)
    return sorted(out, key=lambda ideal: ideal.elements)
