"""scripts/output_digest.py: one md5 over every benchmark command's exit code, stdout and stderr."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
od = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(od)

# seed 0 of each workload; a change that moves any byte of these outputs moves its digest
SEED_ZERO = {
    "fp-scan": ("9819fc969e5835e223fa7d7dec486b92", 127),
    "certify": ("686ded70a934be6122eceb5555f7229a", 128),
    "plot": ("cd21924b4c76f4d7ed19dfcc3dc0e266", 104),
}


@pytest.mark.parametrize("workload", od.WORKLOADS)
def test_seed_zero_prints_its_pinned_digest(workload, capsys):
    assert od.main(["--workload", workload, "--seeds", "0"]) == 0
    digest, count = SEED_ZERO[workload]
    assert capsys.readouterr().out == f"{digest}  {workload} seeds 0-0: {count} commands\n"


def test_seed_ranges_are_inclusive():
    assert od.seed_range("0-20") == range(21)
    assert od.seed_range("7") == range(7, 8)
