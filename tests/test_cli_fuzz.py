"""Tier-1 run of the CLI contract fuzzer (scripts/fuzz_cli.py): a fixed seed and count."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings

FUZZ = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_cli.py"
_spec = importlib.util.spec_from_file_location("fuzz_cli", FUZZ)
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)


@pytest.fixture(scope="module")
def worker():
    w = fuzz.Worker(deadline=2.0)
    yield w
    w.close()


def test_cli_contract_holds_on_fuzzed_argv(worker):
    @seed(20261018)
    @settings(max_examples=120, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(fuzz.argvs())
    def check(argv):
        problem = fuzz.violation(argv, worker.run(argv))
        assert problem is None, (problem, argv)

    check()


def _dense(r, d):
    return "(" + "+".join(f"({r.randint(-9, 9)})*x^{i}" for i in range(d + 1)) + ")"


_R = random.Random(120)
# each hung, ran for seconds to minutes or raised MemoryError before its limit: (argv, exit
# code, seconds at most, a stderr fragment for exit 3)
CAPPED_REPROS = [
    (["radical", "--field", "fp:7", "x^20001+x^20000+1"], 0, 1.0, None),
    (["radical", "--field", "fp:7", "x^40001+x^40000+1"], 0, 2.0, None),
    (["radical", "--field", "fp:7", "x^1000000000+x+1"], 3, 2.0, "limit of"),
    (["radical", "(x^201-7*x^100+3*x^11-2)*(2*x^3-x+5)^2"], 0, 2.0, None),
    (["radical", _dense(_R, 120) + "*" + _dense(_R, 3) + "^2"], 0, 5.0, None),  # 284 s before
    (["hbt", "--field", "fp:7", "x^1000000000+x+1", "x^999999999+1"], 3, 1.0,
     "membership matrix of about 12000000000000000000 cells at bound 1999999999"),
    (["hbt", "--field", "fp:7", "x^1000000000+x+1", "x-1"], 3, 2.0, "univariate division"),
    # both exited 3 past a span-solve cell limit before certify read cofactors off the basis
    (["viv", "--field", "fp:32003", "x"], 0, 5.0, None),
    (["viv", "--field", "fp:10007", "x"], 0, 5.0, None),
    # exited 3 at the power budget of (x - 5)^10006 before the indicator's closed form
    (["prime-check", "--field", "fp:10007", "5", "7"], 0, 2.0, None),
    # 6.6-14 s over Q while every product and power ran on Fractions
    (["parse", "(x+y+1)^87*(x+y+1)^87"], 3, 3.0, "3916 by 3916 terms"),
    (["parse", "(x+y+1)^87"], 0, 2.0, None),
    # sparse high y-degree rows: 3.2 s while each row evaluated its c_k(y) on Fractions
    (["plot", "--res", "999", "--window", "-1/3:2/7,-5/11:3/13", "y^900 - x"], 0, 4.0, None),
    # zero scans: every prefix its own fibre column, and one column of 999 983 slots
    (["variety", "--field", "fp:997", "--vars", "x,y", "x*y^2+y+x"], 0, 1.5, None),
    (["variety", "--field", "fp:999983", "--vars", "x", "x^5+3*x^2+1"], 0, 2.0, None),
    # sparse high x-degree rows: over 60 s and 18-29 s while x went through a dense Taylor shift
    (["plot", "--res", "8", "x^20000 - y"], 0, 1.0, None),
    (["plot", "--res", "999", "--window", "-1/3:2/7,-5/11:3/13", "x^100 - y"], 0, 2.0, None),
    # ran until killed building X_j^(10^14) before the corner values' bits were estimated
    (["plot", "--res", "8", "x^100000000000000 - y"], 3, 1.0, "limit of"),
    # 11.8 s and 10.6 s under the corner-bit limit, before the raster's work was estimated
    (["plot", "--res", "999", "y^9000 - x"], 3, 1.0, "limit of"),
    (["plot", "--res", "999", "--window", "-1/3:2/7,-5/11:3/13", "(x+1)^60 - y"], 3, 1.0,
     "limit of"),
    # 9.7 s raising each of 602 terms to its powers on every row
    (["plot", "--res", "2x999", "(y+1)^600 - x"], 3, 1.0, "limit of"),
    # product scans: 41 s for (x+1)^100 and over 150 s for each of these before the scan's
    # kernel steps were charged
    (["variety", "--field", "fp:999983", "--vars", "x", "(x+1)^200"], 3, 1.0, "limit of"),
    (["member", "--vars", "a,b,c,d,e", "--bound", "0", "1", "(a+b+c+d+e)^12+1"], 3, 1.0,
     "limit of"),
    # 8-14 s on the fibre scan before its columns were charged
    (["variety", "--field", "fp:997", "--vars", "x,y", "(x+y+1)^80"], 3, 2.0, "limit of"),
    # a witness at the grid's first point, refused while the whole grid was charged up front
    (["member", "--vars", "a,b,c,d,e", "--bound", "0", "1",
      "(a+5)*(e^12+e^11+e^10+e^9+e^8+e^7+e^6+e^5+e^4+e^3+e^2+e+1)*(b+c+d+1)"], 0, 1.0, None),
    # ran past 120 s at 7.6 GB stepping x^p = x through 166 666 666 quotient terms
    (["viv", "--field", "fp:7", "--vars", "x", "x^1000000000+x+1"], 3, 1.0, "limit of"),
    (["viv", "--field", "fp:7", "--vars", "x", "x^1000000+x+1"], 0, 2.0, None),
    # over 3.5 CPU minutes on exact powers v^k of 131 405 x-degrees, charged a step per bit of k
    (["member", "--vars", "x", "--bound", "0", "1",
      "(" + "+".join(f"x^{i}" for i in range(363)) + ")*("
      + "+".join(f"x^{363 * j}" for j in range(362)) + ")"], 3, 3.0, "limit of"),
]


@pytest.fixture(scope="module")
def patient_worker():
    w = fuzz.Worker(deadline=20.0)
    yield w
    w.close()


@pytest.mark.parametrize("argv, code, seconds, fragment", CAPPED_REPROS)
def test_repros_answer_or_refuse_in_the_capped_worker(patient_worker, argv, code, seconds,
                                                      fragment):
    result = patient_worker.run(argv)
    assert fuzz.violation(argv, result) is None, result["error"] or result["stderr"]
    assert result["code"] == code and result["seconds"] < seconds, result
    if fragment:
        assert fragment in result["stderr"] and "limit of" in result["stderr"]


@pytest.mark.parametrize("argv, problem", [
    (["parse", "x"], {"code": 0, "stdout": "x\n", "stderr": "x\n"}),
    (["parse", "x +"], {"code": 1, "stdout": "", "stderr": "a\nb\n"}),
    (["parse", "x +"], {"code": 1, "stdout": "x\n", "stderr": "a\n"}),
    (["parse", "x"], {"code": 4, "stdout": "", "stderr": ""}),
    (["member", "--bound", "1", "--format", "json", "x*y", "x"],
     {"code": 0, "stderr": "", "stdout": '{"verdict": "member", "cofactors": [{"terms": '
                                         '[{"exps": [0, 1], "coeff": "2"}]}]}'}),
    (["member", "--bound", "0", "--field", "fp:5", "--format", "json", "y", "x"],
     {"code": 0, "stderr": "", "stdout": '{"verdict": "non_member", "witness": ["0", "0"]}'}),
])
def test_the_contract_check_rejects_each_kind_of_breach(argv, problem):
    assert fuzz.violation(argv, {"error": None, "seconds": 0.0, **problem}) is not None


def test_the_contract_check_accepts_real_member_certificates(worker):
    for argv in (["member", "--bound", "1", "--format", "json", "x*y+x", "x"],
                 ["member", "--bound", "0", "--field", "fp:5", "--format", "json", "y", "x"],
                 ["member", "--bound", "2", "--format", "json", "x^2-1", "x-1", "0", "x+1"]):
        result = worker.run(argv)
        assert result["code"] == 0 and fuzz.violation(argv, result) is None


def test_a_saved_run_replays_the_same_argv_lists(tmp_path, monkeypatch, capsys):
    saved, again = tmp_path / "run.json", tmp_path / "again.json"
    monkeypatch.setattr(sys, "argv", ["fuzz_cli.py", "--examples", "15", "--seed", "7",
                                      "--deadline", "2", "--save", str(saved)])
    assert fuzz.main() == 0
    drawn = json.loads(saved.read_text())
    assert len(drawn) == 15 and all(isinstance(argv, list) for argv in drawn)
    monkeypatch.setattr(sys, "argv", ["fuzz_cli.py", "--replay", str(saved), "--deadline", "2",
                                      "--save", str(again)])
    assert fuzz.main() == 0
    assert json.loads(again.read_text()) == drawn
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"0 violations in 15 examples (replay of {saved})")
