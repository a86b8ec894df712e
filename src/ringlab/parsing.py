"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := '-'? base ('^' nat)?
    base   := coeff | var | '(' expr ')'
    coeff  := nat ('/' posnat)?

A nat is a run of decimal digits, a name a letter followed by letters and
decimal digits.  Juxtaposition multiplies ("3x^2y"), but a juxtaposed
factor may not start with '-'; after an explicit '*' it may.  Identifiers
munch greedily, so "x2" is one name, never x*2.  Fractions are exact over
Q; over F_p and Z/n the slash multiplies by the modular inverse; over Z
the denominator must divide exactly.  Parentheses nest at most MAX_NESTING
deep, so a deep input is a ParseError rather than a RecursionError.

Monomials fold: base() reads a coefficient or a variable as a raw monomial
(coeff, exps), factor() raises one of coefficient 1 by scaling its
exponents, and term() multiplies a run of them into one monomial whose
coefficient is canonicalized once.  The run is multiplied into the term
where it ends, as the left-to-right products would be, so every limit and
error fires where it does with one product per factor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .domains import QQ, ZZ
from .errors import AlgebraError, BadCoefficient, ParseError, TooLarge, UnknownVariable
from .polynomials import DIGIT_LIMIT, WORK_LIMIT, Polynomial, PolyRing

# \s and \d are str.isspace and str.isdecimal; a name's \w also takes numerals
# such as '²', which tokenize() refuses, as it does any other unmatched character
_TOKEN = re.compile(r"(?P<nat>\d+)|(?P<name>[^\W\d_][^\W_]*)|(?P<op>[-+*/^()])|(?P<bad>\S)")
MAX_NESTING = 100  # parentheses; each level costs about 4 Python frames


class Token(NamedTuple):
    kind: str  # 'nat', 'name', one of +-*/^(), or 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start()
        if kind == "op":
            kind = tok
        elif kind == "nat":
            if len(tok) > DIGIT_LIMIT:
                raise TooLarge(f"a {len(tok)}-digit number at position {pos} exceeds the limit "
                               f"of {DIGIT_LIMIT} digits")
        elif kind == "bad" or not tok.isascii():  # a name is letters, then decimal digits
            for k, ch in enumerate(tok):
                if not (ch.isalpha() or k and ch.isdecimal()):
                    raise ParseError(f"unexpected character {ch!r}", pos + k, ch)
        tokens.append(Token(kind, tok, pos))
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.monomial = {name: (1, tuple(int(j == k) for j in range(ring.nvars)))
                         for k, name in enumerate(ring.variables)}  # of each variable
        self.i = 0
        self.depth = 0

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.pos, tok.text)
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        f = self.expr()
        tok = self.tokens[self.i]
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, tok.text)
        return f

    def expr(self) -> Polynomial:
        f = self.term()
        while (op := self.tokens[self.i].kind) in ("+", "-"):
            self.i += 1
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> Polynomial:
        # f is the product so far and run the monomials read since, folded into one;
        # past WORK_LIMIT terms f times a monomial is refused, so each goes in as it is read
        f = run = None
        m = self.ring.domain.modulus
        while True:
            g = self.factor()
            if type(g) is tuple and (f is None or len(f.terms) <= WORK_LIMIT):
                if run is None:
                    run = g
                else:
                    c = run[0] * g[0]
                    run = c % m if m else c, tuple(map(add, run[1], g[1]))
            else:
                f, run = self._times(self._times(f, run), g), None
            kind = self.tokens[self.i].kind
            if kind == "*":
                self.i += 1
            elif kind not in ("nat", "name", "("):  # else juxtaposition: an unsigned factor
                return self._times(f, run)

    def _times(self, f: Polynomial | None, g) -> Polynomial | None:
        """f * g, for g a Polynomial, a raw monomial (coeff, exps) or None; None means 1."""
        if type(g) is tuple:
            g = Polynomial._from_raw(self.ring, {g[1]: self.ring.domain.canon(g[0])})
        return f if g is None else g if f is None else f * g

    def factor(self):
        """A raw monomial (coeff, exps), or a Polynomial: a group or a power __pow__ checks."""
        negate = self.tokens[self.i].kind == "-"
        if negate:
            self.i += 1
        f = self.base()
        if self.tokens[self.i].kind == "^":
            self.i += 1
            e = int(self.expect("nat").text)
            if type(f) is tuple and f[0] == 1:
                f = 1, tuple([k * e for k in f[1]])
            else:
                f = self._times(None, f) ** e
        if negate:
            return (-f[0], f[1]) if type(f) is tuple else -f
        return f

    def base(self):
        tok = self.tokens[self.i]
        if tok.kind == "name":
            self.i += 1
            if tok.text not in self.monomial:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos, tok.text)
            return self.monomial[tok.text]
        if tok.kind == "nat":
            self.i += 1
            num = int(tok.text)
            if self.tokens[self.i].kind == "/":
                self.i += 1
                den = self.expect("nat")
                num = self._fraction(num, int(den.text), den.pos)
            return num, (0,) * self.ring.nvars
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos, "(")
            self.i += 1
            self.depth += 1
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        raise ParseError(f"expected a coefficient, variable, or '(', found "
                         f"{tok.text or 'end of input'!r}", tok.pos, tok.text)

    def _fraction(self, num: int, den: int, pos: int):
        dom = self.ring.domain
        if den == 0:
            raise BadCoefficient("zero denominator", pos, str(den))
        if dom == QQ:
            return Fraction(num, den)
        if dom == ZZ:
            if num % den != 0:
                raise BadCoefficient(f"{num}/{den} is not an integer", pos)
            return num // den
        try:
            return num * dom.inv(dom.canon(den))  # reduced where the monomial is built
        except AlgebraError:
            raise BadCoefficient(f"{num}/{den} has no meaning in {dom}: denominator "
                                 f"is not a unit", pos) from None


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression into a canonical polynomial of the given ring."""
    return _Parser(tokenize(text), ring).parse()


def identifiers_in(text: str) -> list[str]:
    """Distinct identifiers in source order; used to size default rings."""
    seen: list[str] = []
    for tok in tokenize(text):
        if tok.kind == "name" and tok.text not in seen:
            seen.append(tok.text)
    return seen
