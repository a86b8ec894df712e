import hashlib
import io
import json
from pathlib import Path

from ringlab import cli

# [argv, digest] pairs written by scripts/record_cli_contract.py
CONTRACT = Path(__file__).parent / "data" / "cli_contract.json"


def outcome(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), stdout=out, stderr=err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def test_every_recorded_argv_gives_the_same_exit_code_stdout_and_stderr():
    cases = json.loads(CONTRACT.read_text())
    assert len(cases) > 5000
    changed = [argv for argv, digest in cases if outcome(argv) != digest]
    assert changed == [], f"exit code or output of {len(changed)} argv lists changed: {changed}"
