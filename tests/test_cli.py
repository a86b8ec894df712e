import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import domains
from ringlab.cli import json_text, run, split_argv, UsageError
from ringlab.polynomials import Polynomial, PolyRing, poly_from_json, poly_to_json

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv, "--format", "json")
    assert code == 0, err
    # round-trip: re-emitting the parsed payload reproduces the bytes
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out
    return payload


def test_split_argv_keeps_dashed_values():
    flags, pos = split_argv(["--window", "-2:2,-2:2", "-x^2+1", "--res", "40"])
    assert flags == {"window": "-2:2,-2:2", "res": "40"}
    assert pos == ["-x^2+1"]
    with pytest.raises(UsageError):
        split_argv(["--nope", "1"])


def test_parse_command_text_and_json():
    code, out, _ = invoke("parse", "y^2 - x^2*(x+1)")
    assert code == 0 and out == "-x^3 - x^2 + y^2\n"
    payload = invoke_json("parse", "x^2 - 1")
    assert payload == {
        "vars": ["x"],
        "domain": "q",
        "terms": [{"exps": [2], "coeff": "1"}, {"exps": [0], "coeff": "-1"}],
    }


def test_variety_documented_example():
    payload = invoke_json("variety", "--field", "fp:5", "--vars", "x", "x^2+1")
    assert payload["points"] == [[2], [3]]
    code, out, _ = invoke("variety", "--field", "fp:5", "--vars", "x", "x^2+1")
    assert code == 0 and out == "2\n3\n"


def test_zideal_prime_documented_text():
    code, out, _ = invoke("zideal", "prime", "6")
    assert code == 0
    assert out == "not prime: 6 = 2*3 with 2,3 not in (6)\n"
    code, out, _ = invoke("zideal", "prime", "7")
    assert out == "prime: (7)\n"
    code, out, _ = invoke("zideal", "prime", "0")
    assert out == "prime (zero ideal)\n"
    code, out, _ = invoke("zideal", "prime", "1")
    assert out.startswith("not prime: (1)")


@pytest.mark.parametrize("argv, code, expected", [
    (("zideal", "prime", "2305843009213693951"), 0, "prime: (2305843009213693951)\n"),
    (("parse", "--field", "fp:2305843009213693951", "x"), 0, "x\n"),
    (("zideal", "prime", "3317044064679887385961981"), 3, ""),
    (("zideal", "prime", "1000036000099"), 0,
     "not prime: 1000036000099 = 1000003*1000033 with 1000003,1000033 not in (1000036000099)\n"),
])
def test_primality_of_large_moduli_answers_within_a_second(argv, code, expected):
    t0 = time.perf_counter()
    got_code, out, err = invoke(*argv)
    assert time.perf_counter() - t0 < 1.0
    assert (got_code, out) == (code, expected), err


def test_zideal_prime_splits_a_composite_without_a_small_factor_by_rho():
    # trial division to the factor 399165290221 ran past 5 s
    n = 318665857834031151167461
    t0 = time.perf_counter()
    code, out, err = invoke("zideal", "prime", str(n))
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (0, f"not prime: {n} = 399165290221*798330580441 with "
                              f"399165290221,798330580441 not in ({n})\n"), err


def test_zideal_prime_past_the_rho_budget_exits_three(monkeypatch):
    monkeypatch.setattr(domains, "RHO_BUDGET", 1000)
    code, out, err = invoke("zideal", "prime", "318665857834031151167461")
    assert code == 3 and out == ""
    assert "steps" in err and "budget 1000" in err


def test_zideal_gens_and_contains():
    code, out, _ = invoke("zideal", "gens", "6", "10")
    assert code == 0 and out == "(2)\n"
    assert invoke_json("zideal", "gens", "6", "10")["generator"] == 2
    code, out, _ = invoke("zideal", "contains", "3", "6")
    assert out == "true\n"
    code, out, _ = invoke("zideal", "contains", "6", "2")
    assert out == "false\n"


def test_ideals_mod_text_and_json():
    code, out, _ = invoke("ideals-mod", "6")
    assert code == 0
    assert out.splitlines() == ["{0, 1, 2, 3, 4, 5}", "{0, 2, 4}", "{0, 3}", "{0}"]
    payload = invoke_json("ideals-mod", "5")
    assert payload["count"] == 2


def test_member_and_ideal_eq():
    code, out, _ = invoke("member", "--bound", "1", "x^2-1", "x-1")
    assert code == 0 and out == "member\n  cofactor 1: x + 1\n"
    payload = invoke_json("member", "--bound", "2", "--field", "fp:5", "--vars", "x", "1", "x")
    assert payload["verdict"] == "non_member"
    assert payload["witness"] == ["0"]
    code, out, _ = invoke("ideal-eq", "--bound", "3", "x^2-1; x^3-1", "x-1")
    assert out == "equal within bound 3\n"
    code, out, _ = invoke("ideal-eq", "--bound", "2", "--field", "fp:2", "x", "x; y")
    assert "right generator y is not in the left ideal" in out


@pytest.mark.parametrize("argv, expected", [
    (("--bound", "1", "x*y", "x", "y"), "member\n  cofactor 1: y\n  cofactor 2: 0\n"),
    (("--bound", "1", "--field", "fp:5", "x*y", "x", "y"),
     "member\n  cofactor 1: y\n  cofactor 2: 0\n"),
    (("--bound", "2", "x^2*y+x*y^2", "x*y", "x+y", "x"),
     "member\n  cofactor 1: x + y\n  cofactor 2: 0\n  cofactor 3: 0\n"),
    (("--bound", "1", "--vars", "x,y", "x", "x*y"), "non-member\n  witness: (-5, 0)\n"),
    (("--bound", "1", "--vars", "x,y", "--field", "fp:5", "x", "x*y"),
     "non-member\n  witness: (1, 0)\n"),
])
def test_member_prints_the_first_certificate_of_several(argv, expected):
    # cofactors: free solve variables are zero; witness: first common zero in scan order
    code, out, err = invoke("member", *argv)
    assert (code, out) == (0, expected), err


def test_member_requires_bound():
    code, out, err = invoke("member", "x^2-1", "x-1")
    assert code == 1 and out == "" and "--bound" in err


def test_radical_command():
    code, out, _ = invoke("radical", "x^2")
    assert code == 0 and out == "x\n"
    code, out, _ = invoke("radical", "(x^2+1)^2")
    assert out == "x^2 + 1\n"


def test_chain_demo_command():
    code, out, _ = invoke("chain-demo", "2")
    assert code == 0
    assert out.splitlines() == [
        "step 1: x2 not in (x1); witness (0, 1, 0)",
        "step 2: x3 not in (x1, x2); witness (0, 0, 1)",
    ]
    payload = invoke_json("chain-demo", "6")
    assert len(payload["steps"]) == 6


def test_hbt_command():
    payload = invoke_json("hbt", "--field", "fp:5", "x^2-1", "x^3-1")
    assert payload["verified_equal"] is True
    assert payload["leading_profile"] == [False, True, True, True]
    assert payload["extracted"]["terms"] == [
        {"exps": [1], "coeff": "1"}, {"exps": [0], "coeff": "4"}]


def test_videal_viv_decompose_prime_check():
    payload = invoke_json("videal", "--field", "fp:2", "0,0")
    assert payload["field"] == 2
    assert len(payload["generators"]) == 3
    payload = invoke_json("viv", "--field", "fp:5", "--vars", "x", "x^2")
    assert payload["points"] == [[0]]
    payload = invoke_json("decompose", "--field", "fp:2", "0,0", "1,1")
    assert payload["components"] == [[[0, 0]], [[1, 1]]]
    code, out, _ = invoke("prime-check", "--field", "fp:2", "0,0")
    assert out == "prime\n"
    payload = invoke_json("prime-check", "--field", "fp:2", "0,0", "1,1")
    assert payload["prime"] is False
    assert payload["witnesses"] is not None


@pytest.mark.parametrize("argv", [
    ("videal", "--field", "fp:2", "--vars", "x,y", "0", "1"),
    ("videal", "--field", "fp:3", "--vars", "x,y", "0", "1", "2"),
    ("videal", "--field", "fp:2", "--vars", "x", "0,0", "0,1", "1,0", "1,1"),
    ("videal", "--field", "fp:2", "--vars", "x,y,z", "0,0", "0,1", "1,0", "1,1"),
])
def test_videal_of_every_point_with_the_wrong_number_of_vars_exits_two(argv):
    # every point of F_p^n leaves no generator to reject the --vars; this ended in an
    # AssertionError traceback
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "bad exponent vector" in err


@pytest.mark.parametrize("argv, message", [
    (("prime-check", "--field", "fp:5", "--vars", "x,y", "0"), "expected 2 coordinates, got 1"),
    (("prime-check", "--field", "fp:5", "--vars", "x", "0,1"), "expected 1 coordinates, got 2"),
    (("prime-check", "--field", "fp:5", "--vars", "x", "0,1", "1,0"),
     "expected 1 coordinates, got 2"),
])
def test_prime_check_with_the_wrong_number_of_vars_exits_two(argv, message):
    # one point used to answer "prime" whatever the --vars; two or more already exited 2
    assert invoke(*argv) == (2, "", f"domain error: {message}\n")


def test_plot_documented_example_and_golden():
    code, out, _ = invoke("plot", "--window", "-2:2,-2:2", "--res", "64",
                          "y^2 - x^2*(x+1)")
    assert code == 0
    assert out == (DATA / "nodal_cubic_64.txt").read_text()


def test_plot_json_and_svg():
    payload = invoke_json("plot", "--window", "-1:1,-1:1", "--res", "8", "x")
    assert payload["res"] == [8, 8]
    assert payload["rows"] == ["...##..."] * 8
    assert payload["window"] == ["-1", "1", "-1", "1"]
    code, out, _ = invoke("plot", "--format", "svg", "--window", "-1:1,-1:1",
                          "--res", "8", "x")
    assert code == 0 and out.startswith("<svg")


def test_plot_vertical_line_default_window():
    code, out, _ = invoke("plot", "--res", "8", "x")
    assert code == 0
    assert all(row.count("#") == 2 for row in out.splitlines())


def test_plot_of_the_nodal_cubic_at_256_squared_takes_under_one_and_a_half_seconds():
    # per-corner Fraction evaluation took ~3 s here; the integer row kernel ~0.2 s
    t0 = time.perf_counter()
    code, out, err = invoke("plot", "--res", "256", "y^2 - x^2*(x+1)")
    assert time.perf_counter() - t0 < 1.5
    assert code == 0, err
    assert len(out.splitlines()) == 256


def test_plot_past_the_corner_limit_exits_three_before_allocating():
    t0 = time.perf_counter()
    code, out, err = invoke("plot", "--res", "100000", "x")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "10000200001 corners" in err and "1000000" in err


def test_deep_nesting_is_one_clean_parse_error():
    code, out, err = invoke("parse", "(" * 3000 + "x" + ")" * 3000)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error:")


def test_exit_code_one_for_syntax_and_usage():
    code, out, err = invoke("parse", "x +")
    assert code == 1 and out == "" and "position 3" in err
    code, out, err = invoke("parse", "x + w")
    assert code == 1 and "w" in err
    code, out, err = invoke("frobnicate", "1")
    assert code == 1
    code, out, err = invoke("plot", "--window", "oops", "x")
    assert code == 1
    code, out, err = invoke("parse", "--format", "svg", "x")
    assert code == 1  # svg only makes sense for plot
    # str.isdigit takes superscripts that int() refuses; a nat is decimal digits
    for argv in (["parse", "\u00b2"], ["parse", "--vars", "x", "x+\u00b9"],
                 ["variety", "--field", "fp:5", "x+\u00b2"]):
        code, out, err = invoke(*argv)
        assert code == 1 and out == "" and err.count("\n") == 1, argv


def test_exit_code_two_for_domain_errors():
    code, out, err = invoke("variety", "--vars", "x", "x^2+1")  # default field q
    assert code == 2 and out == ""
    code, out, err = invoke("parse", "--field", "fp:6", "x")
    assert code == 2
    code, out, err = invoke("radical", "x*y")
    assert code == 2
    code, out, err = invoke("radical", "--field", "fp:5", "x^5")
    assert code == 2
    code, out, err = invoke("chain-demo", "3", "--vars", "x1,x2")
    assert code == 2
    code, out, err = invoke("chain-demo", "--field", "zn:1", "1")  # a traceback before
    assert code == 2 and out == "" and "zero ring" in err


def test_exit_code_three_for_resource_limits():
    code, out, err = invoke("ideals-mod", "20000")
    assert code == 3 and out == ""
    code, out, err = invoke("variety", "--field", "fp:101", "--vars", "x,y,z", "x")
    assert code == 3
    # one scan limit guards variety, videal and the non-membership scan
    code, out, err = invoke("videal", "--field", "fp:1009", "0,0")
    assert code == 3 and out == ""
    code, out, err = invoke("member", "--field", "fp:32003", "--vars", "x,y,z",
                            "--bound", "1", "1", "x*y - z", "y + z")
    assert code == 3 and out == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_answer_past_the_digit_limit_exits_three(fmt):
    # N*N has 8000 digits: str() and int.__repr__ both refuse it, as a constant answer
    # or as the denominator of a polynomial's coefficient
    nines = "9" * 4000
    for expr in ("N*N", "x^2 + 1/N*1/N*x"):
        code, out, err = invoke("parse", expr.replace("N", nines), "--format", fmt)
        assert (code, out) == (3, "")
        assert err == "resource limit: the answer holds a number of more than 4300 digits\n"


def test_rational_witness_scan_past_the_scan_limit_exits_three():
    # 11^6 grid points; the scan ran past 20 s before the limit covered Q
    t0 = time.perf_counter()
    code, out, err = invoke("member", "--bound", "0", "--vars", "a,b,c,d,e,f", "1", "a")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "11^6 points" in err
    # 11^5 points are within the limit; a+5 vanishes at the first grid point
    code, out, err = invoke("member", "--bound", "0", "--vars", "a,b,c,d,e", "1", "a+5")
    assert (code, out) == (0, "non-member\n  witness: (-5, -5, -5, -5, -5)\n"), err


def run_capped(argv, address_space):
    """Run the CLI in a child process whose address space is capped."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "ringlab.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=60)


def test_videal_over_f23_cubed_fits_in_half_a_gibibyte():
    # a dense nullspace basis of (23^3)^2 entries raised MemoryError under a 1 GiB cap
    t0 = time.perf_counter()
    done = run_capped(["videal", "--field", "fp:23", "0,0,0"], 512 << 20)
    assert time.perf_counter() - t0 < 3.0
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    gens = lines[lines.index("generators:") + 1:lines.index("field equations:")]
    assert len(gens) == 23 ** 3 - 1 and gens[0] == "  z"


def test_videal_output_bytes_are_unchanged():
    code, out, err = invoke("videal", "--field", "fp:17", "0,0,0", "1,2,3")
    assert code == 0, err
    assert hashlib.md5(out.encode()).hexdigest() == "3040eb35861d2a89991fa3ede92ba0e9"


def test_member_past_the_matrix_cell_limit_exits_three_before_allocating():
    # the dense membership matrix ran ~10 s into a MemoryError traceback under 1 GiB
    for bound in ("1000", "100000"):
        t0 = time.perf_counter()
        code, out, err = invoke("member", "--bound", bound, "x", "y")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "10000000" in err and "cells" in err


@pytest.mark.parametrize("argv, estimate", [
    (("parse", "(x+y+1)^100000"), "47713 digits"),
    (("parse", "--field", "fp:7", "(x+y+1)^100000"), "4942011 term pairs"),
    (("parse", "(x+1)^2000"), "11597845 term pairs"),
    (("parse", "7^100000000"), "84509805 digits"),
    (("parse", "1" * 4301), "4301-digit number"),
    (("hbt", "--field", "fp:7", "x^100000-1", "x^3-1"), "cells"),
    (("prime-check", "--field", "fp:1009", "0,0", "1,1"), "4072324 steps"),
    # the first primes past prime-check's estimate p^n (n + |X|) <= 10^6, the one limit there
    (("prime-check", "--field", "fp:333337", "1", "2"), "1000011 steps"),
    (("prime-check", "--field", "fp:503", "0,0", "1,1"), "1012036 steps"),
    (("videal", "--field", "fp:997", "0,0"), "3976036 steps"),  # 24 s before
    (("viv", "--field", "fp:101", "x-y"), "106131204 steps"),    # 12-24 s before
    (("chain-demo", "300"), "13680450 coordinates"),
    (("chain-demo", "1000000000000"), "coordinates"),
])
def test_work_past_the_limit_exits_three_before_starting(argv, estimate):
    # each ran 10 s to well past 25 s before the estimate came first
    t0 = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and estimate in err and "limit of" in err


def test_prime_check_verifies_the_witness_pair_without_forming_their_product():
    # refused at 101^4 = 104060401 term pairs while f*g was formed; now f and g are
    # evaluated at each point, and f(pt) g(pt) = 0 is the same claim
    t0 = time.perf_counter()
    code, out, err = invoke("prime-check", "--field", "fp:101", "5,5", "7,7")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "not prime" and lines[-1] == "f*g vanishes on X; neither factor does"
    assert lines[1].startswith("f = x^100*y^100 + 5*x^100*y^99 + 25*x^100*y^98 + ")
    payload = invoke_json("prime-check", "--field", "fp:101", "5,5", "7,7")
    f, g = (poly_from_json(payload["witnesses"][k]) for k in "fg")
    assert len(f.terms) == 100 ** 2 and g == 1 - f  # (1 - (x-5)^100)(1 - (y-5)^100)
    assert [f.evaluate(pt).value for pt in ((5, 5), (7, 7))] == [1, 0]


@pytest.mark.parametrize("p", [10007, 3001])
def test_prime_check_past_the_old_power_budget_answers(p):
    # both exited 3 at the power (x - 5)^(p-1) before the indicator was written in closed form
    t0 = time.perf_counter()
    payload = invoke_json("prime-check", "--field", f"fp:{p}", "5", "7")
    assert time.perf_counter() - t0 < 1.0
    assert payload["prime"] is False
    f, g = (poly_from_json(payload["witnesses"][k]) for k in "fg")
    assert [f.evaluate((c,)).value for c in (5, 7)] == [1, 0]
    assert g == 1 - f


def test_power_of_a_monomial_answers_at_once():
    t0 = time.perf_counter()
    code, out, _ = invoke("parse", "x^100000000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out == "x^100000000000000\n"


def test_viv_certifies_curves_without_a_cofactor_search():
    t0 = time.perf_counter()
    code, out, err = invoke("viv", "--vars", "x,y", "--field", "fp:11", "y^2-x^3-x-1")
    assert code == 0, err
    assert time.perf_counter() - t0 < 1.0
    assert out.startswith("points:\n0,1\n0,10\n")
    code, out, err = invoke("viv", "--vars", "x,y", "--field", "fp:7", "x^2+y^2-1")
    assert code == 0, err
    assert out.splitlines()[1:9] == ["0,1", "0,6", "1,0", "2,2", "2,5", "5,2", "5,5", "6,0"]


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0 and "commands:" in out
    code, _, _ = invoke()
    assert code == 0


# strings with JSON's escapes, control characters, non-ASCII text and lone surrogates
_json_strings = st.text(st.characters(exclude_categories=())
                        | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'))
_json_scalars = (st.none() | st.booleans() | _json_strings | st.floats()
                 | st.integers() | st.integers(-10 ** 4000, 10 ** 4000))
_DOMAINS = (domains.ZZ, domains.QQ, domains.Fp(2), domains.Fp(32003), domains.Zn(1),
            domains.Zn(12))


@st.composite
def _polynomials(draw):
    """Polynomials over z, q, fp:P and zn:N in 1-4 variables: zero, constants, and up
    to 6 terms with negative, large and (over q) non-integral coefficients."""
    domain = draw(st.sampled_from(_DOMAINS))
    names = draw(st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,2}", fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    coeffs = st.integers(-10 ** 40, 10 ** 40)
    if domain is domains.QQ:
        coeffs |= st.fractions(max_denominator=10 ** 12)
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, 10 ** 6)] * len(names))
    constant = st.dictionaries(st.just((0,) * len(names)), coeffs, max_size=1)
    terms = draw(constant | st.dictionaries(exps, coeffs, max_size=6))
    return Polynomial(PolyRing(domain, tuple(names)), terms)


def _as_dumped(obj):
    """obj with poly_to_json(f) in place of each polynomial f, as json.dumps takes it."""
    if isinstance(obj, Polynomial):
        return poly_to_json(obj)
    if isinstance(obj, dict):
        return {k: _as_dumped(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_dumped(v) for v in obj]
    return obj


_json_values = st.recursive(_json_scalars | _polynomials(),
                            lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(_json_strings, inner, max_size=4), max_leaves=30)


@settings(max_examples=300, database=None, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps_indent_two(obj):
    assert json_text(obj) == json.dumps(_as_dumped(obj), indent=2)


def test_json_writer_edge_cases():
    for obj in ([], {}, [[]], {"": {}}, (1, (2, "3")), {"a": [None, True, False, -0, 10 ** 99]}):
        assert json_text(obj) == json.dumps(obj, indent=2)
    for domain in _DOMAINS:  # the zero polynomial and a constant, alone and nested
        ring = PolyRing(domain, ("x", "y"))
        for f in (Polynomial(ring), Polynomial(ring, {(0, 0): -7})):
            for obj in (f, [f], {"f": [f, {"g": f}]}):
                assert json_text(obj) == json.dumps(_as_dumped(obj), indent=2)
    past_the_limit = {"n": [10 ** 4300]}
    for write in (json_text, lambda obj: json.dumps(obj, indent=2)):
        with pytest.raises(ValueError):
            write(past_the_limit)
    with pytest.raises(TypeError):
        json_text({"points": {(0, 1)}})
