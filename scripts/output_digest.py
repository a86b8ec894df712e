"""One md5 over the exit code, stdout and stderr of every benchmark command of some seeds.

Builds each seed's command list with ``bench/workloads.py``, the benchmark's
own lists (read here, never changed), runs every command through
``ringlab.cli.run`` in this process, and hashes each command's exit code,
stdout and stderr in list order, seed after seed.  Each part is hashed with
its length in front, so no two different outputs share a byte stream.  Two
checkouts that print the same digest gave byte-identical output on every one
of those commands:

    python scripts/output_digest.py --workload plot --seeds 0-20
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from ringlab import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "nodal_cubic_64.txt"
WORKLOADS = ("fp-scan", "certify", "plot")


def seed_range(text: str) -> range:
    """A seed ("5") or an inclusive range of seeds ("0-20")."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def output_digest(workload: str, seeds: range) -> tuple[str, int]:
    """(md5 hex digest, commands run) over every command of the seeds, in order."""
    md5, count, golden = hashlib.md5(), 0, GOLDEN.read_text()
    for seed in seeds:
        for cmd in workloads.build(workload, seed, golden):
            out, err = io.StringIO(), io.StringIO()
            rc = cli.run(cmd.argv, out, err)
            for part in (str(rc), out.getvalue(), err.getvalue()):
                data = part.encode()
                md5.update(len(data).to_bytes(8, "little") + data)
            count += 1
    return md5.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-20"),
                    help="a seed or an inclusive range, such as 0-20 (the default)")
    args = ap.parse_args(argv)
    digest, count = output_digest(args.workload, args.seeds)
    print(f"{digest}  {args.workload} seeds {args.seeds.start}-{args.seeds.stop - 1}: "
          f"{count} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
