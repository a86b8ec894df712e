import ast
from pathlib import Path

import ringlab

SRC = Path(ringlab.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips assert, so every verification must raise explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
