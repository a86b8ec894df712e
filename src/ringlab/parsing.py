"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := factor ('*'? factor)*
    factor := '-'? base ('^' nat)?
    base   := coeff | var | '(' expr ')'
    coeff  := nat ('/' posnat)?

Juxtaposition multiplies ("3x^2y"), but a juxtaposed factor may not start
with '-'; after an explicit '*' it may.  Identifiers munch greedily, so
"x2" is one name, never x*2.  Fractions are exact over Q; over F_p and
Z/n the slash multiplies by the modular inverse; over Z the denominator
must divide exactly.  Parentheses nest at most MAX_NESTING deep, so a
deep input is a ParseError rather than a RecursionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import QQ, ZZ
from .errors import AlgebraError, BadCoefficient, ParseError, TooLarge, UnknownVariable
from .polynomials import DIGIT_LIMIT, Polynomial, PolyRing

_TOKEN_CHARS = set("+-*/^()")
MAX_NESTING = 100  # parentheses; each level costs about 4 Python frames


@dataclass(frozen=True)
class Token:
    kind: str  # 'nat', 'name', one of +-*/^(), or 'end'
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > DIGIT_LIMIT:
                raise TooLarge(f"a {j - i}-digit number at position {i} exceeds the limit of "
                               f"{DIGIT_LIMIT} digits")
            tokens.append(Token("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j].isdigit()):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ch)
    tokens.append(Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.pos, tok.text)
        return self.advance()

    def parse(self) -> Polynomial:
        f = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, tok.text)
        return f

    def expr(self) -> Polynomial:
        f = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            g = self.term()
            f = f + g if op.kind == "+" else f - g
        return f

    def term(self) -> Polynomial:
        f = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                f = f * self.factor()
            elif tok.kind in ("nat", "name", "("):
                # juxtaposition: an unsigned factor follows directly
                f = f * self.factor()
            else:
                return f

    def factor(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        f = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("nat")
            f = f ** int(tok.text)
        return -f if negate else f

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos, "(")
            self.advance()
            self.depth += 1
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        if tok.kind == "name":
            self.advance()
            if tok.text not in self.ring.variables:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos, tok.text)
            return Polynomial.variable(self.ring, tok.text)
        if tok.kind == "nat":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("nat")
                den = int(den_tok.text)
                return Polynomial.constant(self.ring, self._fraction(num, den, den_tok.pos))
            return Polynomial.constant(self.ring, num)
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
            return num * dom.inv(dom.canon(den))  # Polynomial.constant reduces it
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
