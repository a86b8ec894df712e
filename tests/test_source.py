import ast
import importlib.util
import io
from pathlib import Path

import pytest

import ringlab
from ringlab import cli, polyideals
from ringlab.polynomials import Polynomial

SRC = Path(ringlab.__file__).parent
BENCH_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_no_assert_statements_in_src():
    # python -O strips assert, so every verification must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_only_polynomials_calls_the_validating_constructor():
    # Polynomial(...) checks outside terms; terms the library built go through
    # Polynomial._from_raw, so a new internal builder cannot re-validate by accident
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "polynomials.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "Polynomial"]
    assert not found, found


def test_benchmark_tracer_binds_every_function_it_wraps():
    # the traced benchmark rebinds ringlab functions by name; a renamed or
    # deleted one makes install() raise here instead of in a benchmark run
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = polyideals.membership_bounded
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert polyideals.membership_bounded is not original
    finally:
        tracer.uninstall()
    assert polyideals.membership_bounded is original


# a few small commands per benchmark workload that reach every function the
# traced benchmark requires there (bench/spans.py MUST_CALL)
WORKLOAD_COMMANDS = {
    "fp-scan": [
        ["variety", "--field", "fp:5", "x^2+y^2-1"],
        ["videal", "--field", "fp:5", "0,1", "1,0"],
        ["prime-check", "--field", "fp:5", "0,1", "1,0"],
    ],
    "certify": [
        ["member", "--bound", "1", "x*y", "x"],
        ["member", "--bound", "1", "y", "x"],
        ["member", "--field", "fp:5", "--bound", "1", "x^2-1", "x-1"],
        ["viv", "--field", "fp:3", "--vars", "x,y", "x^2-y"],
        ["hbt", "--field", "fp:7", "x^2-1", "x^2+x"],
        ["radical", "--vars", "x", "(x-1)^2*(x+2)"],
        ["zideal", "prime", "91"],
        ["zideal", "gens", "12", "18"],
        ["zideal", "contains", "6", "18"],
        ["ideals-mod", "12"],
    ],
    "plot": [
        ["plot", "--res", "8", "x^2+y^2-1"],
        ["plot", "--res", "8", "--format", "svg", "y^2-x^3-x^2"],
        ["plot", "--res", "8", "y^60 - x"],  # lanes past raster.LANE_CAP: the Horner rows
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_COMMANDS))
def test_benchmark_workload_reaches_every_traced_function(workload):
    # a refactor that stops calling, say, Domain.element on the fp-scan path
    # would fail the traced benchmark; this finds it in tier-1
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for argv in WORKLOAD_COMMANDS[workload]:
            assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
    finally:
        tracer.uninstall()
    assert tracer.missing_calls(workload) == []


def test_the_plot_commands_run_both_row_paths(monkeypatch):
    # 9 corner rows at --res 8: a packed raster evaluates its row polynomial once a row, the
    # Horner rows evaluate each of f's x-coefficients once a row (y^60 - x has two)
    evaluate, calls = Polynomial.evaluate, []
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda g, point: calls.append(g) or evaluate(g, point))
    counts = []
    for argv in WORKLOAD_COMMANDS["plot"]:
        calls.clear()
        assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv
        counts.append(len(calls))
    assert counts == [9, 9, 2 * 9]


def test_no_command_reaches_the_validating_constructor(monkeypatch):
    # Polynomial(...) validates outside terms; zero/one/constant/variable and every internal
    # builder go through _from_raw, so the commands print the same with __init__ disabled
    argvs = [argv for commands in WORKLOAD_COMMANDS.values() for argv in commands] + [
        ["viv", "--field", "fp:7", "--vars", "x,y", "x^20*y - x*y^9", "x^8 - y^8"],
        ["hbt", "--field", "fp:5", "x^3 - 1", "x^2 - 1", "x^9 + 4*x"],
        ["member", "--field", "fp:3", "--bound", "2", "x^2*y - y", "x - 1", "y^2 - y"]]

    def run(argv):
        out = io.StringIO()
        return cli.run(argv, stdout=out, stderr=io.StringIO()), out.getvalue()

    expected = [run(argv) for argv in argvs]

    def refuse(self, *args, **kwargs):
        raise AssertionError("Polynomial.__init__ called")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert [run(argv) for argv in argvs] == expected


def test_usage_and_readme_list_the_command_table_in_order():
    table = list(cli.COMMANDS)
    usage_block = cli.USAGE.split("commands:\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in usage_block.splitlines()] == table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert [row[3:].split()[0].rstrip("`") for row in rows] == table
