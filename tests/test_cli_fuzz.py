"""Tier-1 run of the CLI contract fuzzer (scripts/fuzz_cli.py): a fixed seed and count."""

import importlib.util
import json
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
