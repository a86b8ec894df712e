import ast
import importlib.util
from pathlib import Path

import ringlab
from ringlab import polyideals

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
