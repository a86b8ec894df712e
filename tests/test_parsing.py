from fractions import Fraction

import pytest

from ringlab.domains import Fp, QQ, Zn, ZZ
from ringlab.errors import BadCoefficient, ParseError, UnknownVariable
from ringlab.parsing import MAX_NESTING, identifiers_in, parse_polynomial, tokenize
from ringlab.polynomials import Polynomial, PolyRing

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
