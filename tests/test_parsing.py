import random
from fractions import Fraction

import pytest

from ringlab import parsing, polynomials
from ringlab.domains import Fp, QQ, Zn, ZZ
from ringlab.errors import BadCoefficient, ParseError, TooLarge, UnknownVariable
from ringlab.parsing import MAX_NESTING, identifiers_in, parse_polynomial, tokenize
from ringlab.polynomials import Polynomial, PolyRing, format_polynomial

RQ = PolyRing(QQ, ("x", "y"))
RQ1 = PolyRing(QQ, ("x",))
RF2 = PolyRing(Fp(2), ("x", "y"))
RF5 = PolyRing(Fp(5), ("x",))


def test_figure_one_expression():
    f = parse_polynomial("y^2 - x^2*(x+1)", RQ)
    assert f == parse_polynomial("y^2 - x^3 - x^2", RQ)
    assert f.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1), (2, 0): Fraction(-1)}


def test_zero_literal():
    assert parse_polynomial("0", RQ).is_zero


def test_square_expands_mod2():
    f = parse_polynomial("(x+y)^2", RF2)
    assert f.terms == {(2, 0): 1, (0, 2): 1}


def test_juxtaposition():
    assert parse_polynomial("3x^2y", RQ) == parse_polynomial("3 * x^2 * y", RQ)
    assert parse_polynomial("x y", RQ) == parse_polynomial("x*y", RQ)
    assert parse_polynomial("2(x+1)", RQ1) == parse_polynomial("2x + 2", RQ1)
    assert parse_polynomial("3 4", RQ1) == Polynomial.constant(RQ1, 12)


def test_numeric_powers():
    assert parse_polynomial("2^3", RQ1) == Polynomial.constant(RQ1, 8)


def test_unary_minus_binds_to_factor():
    assert parse_polynomial("-x^2", RQ1) == -parse_polynomial("x^2", RQ1)
    assert parse_polynomial("x*-y", RQ) == -parse_polynomial("x*y", RQ)
    assert parse_polynomial("-x + y", RQ) == parse_polynomial("y - x", RQ)
    assert parse_polynomial("3 -2", RQ1) == Polynomial.constant(RQ1, 1)


def test_fractions_by_domain():
    assert parse_polynomial("1/2", RQ1).terms == {(0,): Fraction(1, 2)}
    assert parse_polynomial("1/2x", RQ1) == parse_polynomial("1/2 * x", RQ1)
    # over F_5 the slash multiplies by the inverse: 1/2 = 3
    assert parse_polynomial("1/2", RF5).terms == {(0,): 3}
    # over Z only exact quotients are integers
    rz = PolyRing(ZZ, ("x",))
    assert parse_polynomial("4/2", rz) == Polynomial.constant(rz, 2)
    with pytest.raises(BadCoefficient):
        parse_polynomial("1/2", rz)
    # over Z/6 the denominator must be a unit
    rz6 = PolyRing(Zn(6), ("x",))
    assert parse_polynomial("1/5", rz6).terms == {(0,): 5}
    with pytest.raises(BadCoefficient):
        parse_polynomial("1/2", rz6)


def test_bad_denominators():
    with pytest.raises(BadCoefficient):
        parse_polynomial("1/0", RQ1)
    with pytest.raises(BadCoefficient):
        parse_polynomial("1/5", RF5)  # 5 = 0 in F_5


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariable) as exc:
        parse_polynomial("x + z", RQ)
    assert exc.value.position == 4
    assert exc.value.token == "z"


def test_identifier_munches_digits():
    # "x2" is one identifier, not x*2
    with pytest.raises(UnknownVariable):
        parse_polynomial("x2", RQ)
    ring = PolyRing(QQ, ("x2",))
    assert parse_polynomial("x2^2", ring).terms == {(2,): Fraction(1)}


@pytest.mark.parametrize("text,pos", [
    ("x +", 3),
    (")", 0),
    ("x ^ y", 4),
    ("(x+1", 4),
    ("x + * y", 4),
    ("", 0),
    ("x $ y", 2),
    ("\u00b2", 0),
    ("x+\u00b9", 2),
    ("x \u00bd", 2),
    ("x\u00b2", 1),
])
def test_syntax_error_positions(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, RQ)
    assert exc.value.position == pos


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^2^3", RQ1)


def test_whitespace_ignored():
    assert parse_polynomial("  x   +\t1 ", RQ1) == parse_polynomial("x+1", RQ1)


def test_tokenize_positions():
    toks = tokenize("x + 12")
    assert [(t.kind, t.pos) for t in toks] == [("name", 0), ("+", 2), ("nat", 4), ("end", 6)]


def test_identifiers_in():
    assert identifiers_in("y^2 - x^2*(x+1)") == ["y", "x"]
    assert identifiers_in("3 + 4") == []


def test_nesting_is_capped_at_a_fixed_depth():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deep, RQ) == parse_polynomial("x", RQ)
    assert parse_polynomial(f"{deep}*{deep}", RQ) == parse_polynomial("x^2", RQ)  # depth resets
    with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as info:
        parse_polynomial("(" + deep + ")", RQ)
    assert info.value.position == MAX_NESTING


# -- atom folding: seeded expression trees against Polynomial arithmetic --------

PARSE_DOMAINS = {"q": QQ, "z": ZZ, "fp:5": Fp(5), "zn:6": Zn(6), "zn:1": Zn(1),
                 "fp:2147483647": Fp(2147483647)}
RXYZ = {tag: PolyRing(dom, ("x", "y", "z")) for tag, dom in PARSE_DOMAINS.items()}


def _atom(rng, ring):
    """(text, value) of a nat, a nat/nat that means something in ring, or a variable."""
    dom, kind = ring.domain, rng.choice(("nat", "frac", "var", "var"))
    if kind == "var":
        name = rng.choice(ring.variables)
        return name, Polynomial.variable(ring, name)
    if kind == "nat":
        n = rng.choice((0, 1, 2, 3, 7, 12, 10 ** 30 + 1))
        return str(n), Polynomial.constant(ring, n)
    den = rng.choice({QQ: (1, 2, 6, 10 ** 30), ZZ: (1, 2, 3), Fp(5): (1, 2, 3, 4, 7),
                      Zn(6): (1, 5, 7, 11), Zn(1): (1, 2, 6),
                      Fp(2147483647): (1, 2, 10 ** 30, 2 ** 31)}[dom])
    num = den * rng.randint(0, 5) if dom == ZZ else rng.randint(0, 40)
    value = (Fraction(num, den) if dom == QQ else num // den if dom == ZZ
             else num * pow(den, -1, dom.modulus))
    return f"{num}/{den}", Polynomial.constant(ring, value)


def _factor(rng, ring, depth, signed):
    """'-'? base ('^' nat)?, base an atom or a parenthesized expression."""
    if depth and rng.random() < 0.3:
        text, value = _expr(rng, ring, depth - 1)
        text = f"({text})"
    else:
        text, value = _atom(rng, ring)
    if rng.random() < 0.3:
        e = rng.randint(0, 3)
        text, value = f"{text}^{e}", value ** e
    if signed and rng.random() < 0.3:
        text, value = f"-{text}", -value
    return text, value


def _term(rng, ring, depth):
    text, value = _factor(rng, ring, depth, signed=True)
    for _ in range(rng.randint(0, 4)):
        star = rng.random() < 0.5
        right, v = _factor(rng, ring, depth, signed=star)
        if star:
            sep = rng.choice(("*", " * "))
        else:  # juxtaposition: glue only where the tokens cannot run together
            glued = text[-1] in "0123456789)" and right[0] in "xyz("
            sep = rng.choice(("", " ")) if glued else " "
        text, value = f"{text}{sep}{right}", value * v
    return text, value


def _expr(rng, ring, depth):
    text, value = _term(rng, ring, depth)
    for _ in range(rng.randint(0, 2)):
        right, v = _term(rng, ring, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {right}", value + v
        else:
            text, value = f"{text} - {right}", value - v
    return text, value


@pytest.mark.parametrize("tag", sorted(PARSE_DOMAINS))
def test_parsed_text_equals_the_tree_built_with_polynomial_arithmetic(tag):
    rng, ring = random.Random(f"parse trees {tag}"), RXYZ[tag]
    for _ in range(400):
        text, value = _expr(rng, ring, depth=2)
        assert parse_polynomial(text, ring) == value, text


@pytest.mark.parametrize("tag, text, error, position", [
    ("q", "2*x*w", UnknownVariable, 4),
    ("q", "x y w^2", UnknownVariable, 4),
    ("q", "3x -w", UnknownVariable, 4),
    ("q", "x^", ParseError, 2),
    ("q", "2 x^ + 1", ParseError, 5),
    ("q", "x*y^*2", ParseError, 4),
    ("q", "x^y", ParseError, 2),
    ("q", "x*-", ParseError, 3),
    ("q", "x*y*", ParseError, 4),
    ("q", "2/x", ParseError, 2),
    ("q", "1/0", BadCoefficient, 2),
    ("q", "3x*1/0", BadCoefficient, 5),
    ("q", "x 2/0^2", BadCoefficient, 4),
    ("z", "1/2", BadCoefficient, 2),
    ("z", "x*4/2*1/2", BadCoefficient, 8),
    ("z", "6/3x + 1/2y", BadCoefficient, 9),
    ("fp:5", "1/5", BadCoefficient, 2),
    ("fp:5", "2 x 1/5", BadCoefficient, 6),
    ("fp:5", "x*-3/10", BadCoefficient, 5),
    ("zn:6", "x 1/5 y 1/3", BadCoefficient, 10),
])
def test_a_folded_run_raises_the_error_of_its_first_bad_atom(tag, text, error, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, RXYZ[tag])
    assert type(info.value) is error and info.value.position == position


@pytest.mark.parametrize("text", ["0*(x+y+1)^60*(x+y+1)^60", "(x+y+1)^60*0*(x+y+1)^60"])
def test_a_zero_atom_zeroes_the_product_before_the_next_factor(text):
    # multiplied in where its run ends, the 0 leaves 0 by 1891 terms, not 1891 by 1891
    assert parse_polynomial(text, RQ).is_zero


def test_past_the_work_limit_an_atom_after_a_wide_factor_is_refused_first(monkeypatch):
    # one product per factor refuses (x + y + 1) * x before it reads 1/0
    monkeypatch.setattr(polynomials, "WORK_LIMIT", 2)
    monkeypatch.setattr(parsing, "WORK_LIMIT", 2)
    with pytest.raises(TooLarge, match="a product of 3 by 1 terms"):
        parse_polynomial("(x + y + 1)*x*1/0", RQ)
    assert parse_polynomial("(x + y + 1)*0*x*y", RQ).is_zero


# -- the tokenizer against the character loop it replaced -----------------------


def _loop_tokenize(text):
    """The per-character tokenizer the compiled regex replaced, on ASCII text."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > polynomials.DIGIT_LIMIT:
                raise TooLarge(f"a {j - i}-digit number at position {i} exceeds the limit of "
                               f"{polynomials.DIGIT_LIMIT} digits")
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j].isdigit()):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ch)
    tokens.append(("end", "", n))
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except (ParseError, TooLarge) as exc:  # a ParseError's text leads with its position
        return type(exc), str(exc)


def _triples(text):
    return [(tok.kind, tok.text, tok.pos) for tok in tokenize(text)]


def test_tokenize_matches_the_character_loop_on_random_ascii():
    rng = random.Random("tokenize ascii")
    alphabet = "xyzab_019+-*/^() \t\n\r\x0b\x0c$#.,;'\"\\~`!@%&=[]{}<>?|:\x00\x7f"
    long_nat = "7" * polynomials.DIGIT_LIMIT
    for _ in range(3000):
        parts = [rng.choice(alphabet) for _ in range(rng.randint(0, 24))]
        if rng.random() < 0.02:
            parts.insert(rng.randint(0, len(parts)), long_nat + "7" * rng.randint(0, 1))
        text = "".join(parts)
        assert _tokens_or_error(_triples, text) == _tokens_or_error(_loop_tokenize, text), text


@pytest.mark.parametrize("text, expected", [
    ("\u0663x", "3*x"),                        # an Arabic-Indic digit three is a decimal digit
    ("x\u00a0+\u00a01", "x + 1"),             # a no-break space is whitespace
    ("2\u0663/1\u0660", "23/10"),
])
def test_a_nat_is_a_run_of_decimal_digits(text, expected):
    assert format_polynomial(parse_polynomial(text, RQ1)) == expected
