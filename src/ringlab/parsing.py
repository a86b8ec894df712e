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

Atoms fold: a run of them in a term (nat, nat/nat, a known variable with
an optional ^nat, each optionally negated) becomes one monomial whose
coefficient is canonicalized once.  It is multiplied into the term where
the run ends, as the left-to-right products would be, so every limit and
error fires where it did with one product per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import QQ, ZZ
from .errors import AlgebraError, BadCoefficient, ParseError, TooLarge, UnknownVariable
from .polynomials import DIGIT_LIMIT, WORK_LIMIT, Polynomial, PolyRing

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
        self.index = {name: k for k, name in enumerate(ring.variables)}
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
        f = None
        while True:
            # a run of atoms is one monomial, multiplied in where the run ends; past
            # WORK_LIMIT terms f times an atom is refused, so each atom is its own factor
            g = self.atoms() if f is None or len(f.terms) <= WORK_LIMIT else None
            if g is None:
                g = self.factor()
            f = g if f is None else f * g
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
            elif tok.kind not in ("nat", "name", "("):  # else juxtaposition: an unsigned factor
                return f

    def atoms(self) -> Polynomial | None:
        """A run of atoms joined by '*' or juxtaposition, as one monomial; None
        when no atom starts here.  An atom is a nat, a nat/nat or a known
        variable with an optional ^nat, each optionally negated; the run stops
        before a '*' that no atom follows, and factor() reads the rest."""
        toks, index, m = self.tokens, self.index, self.ring.domain.modulus
        coeff, exps, start = 1, [0] * self.ring.nvars, self.i
        i = start
        while True:
            j = i + (toks[i].kind == "-")
            tok = toks[j]
            if tok.kind == "name" and tok.text in index:
                e, end = 1, j + 1
                if toks[end].kind == "^":
                    if toks[j + 2].kind != "nat":
                        break
                    e, end = int(toks[j + 2].text), j + 3
                exps[index[tok.text]] += e
                value = 1
            elif tok.kind == "nat" and toks[j + 1].kind != "^":  # nat^nat is a factor
                value, end = int(tok.text), j + 1
                if toks[end].kind == "/":
                    den = toks[j + 2]
                    if den.kind != "nat" or toks[j + 3].kind == "^":
                        break
                    value, end = self._fraction(value, int(den.text), den.pos), j + 3
            else:
                break
            coeff = coeff * value if j == i else -coeff * value
            if m:
                coeff %= m
            i = self.i = end
            if toks[i].kind == "*":
                i += 1
            elif toks[i].kind not in ("nat", "name"):
                break
        if self.i == start:
            return None
        return Polynomial._from_raw(self.ring, {tuple(exps): self.ring.domain.canon(coeff)})

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
