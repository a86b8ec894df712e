"""Property-based fuzzer for the CLI contract.

Draws argv lists from the expression grammar in ``ringlab.parsing`` (signs,
juxtaposition, fractions, powers, nesting, stray tokens) and from the flag
space of ``ringlab.cli`` (fields from q and z to huge primes, composites and
``zn:1``; bounds, points, windows, resolutions), runs each through
``cli.run`` in one worker subprocess, which caps its own address space
(``RLIMIT_AS``) and gives each command a SIGALRM deadline, and checks:

- the exit code is 0, 1, 2 or 3, and no exception escapes ``run``;
- a failure writes nothing to stdout and one line to stderr, a success
  nothing to stderr;
- a ``member --format json`` answer re-verifies with plain dict
  arithmetic: the cofactors times the generators sum to f, or every
  generator vanishes at the witness and f does not.

``tests/test_cli_fuzz.py`` runs a fixed seed and example count in tier-1.
Long runs print each violation and each command slower than ``--slow``
seconds, and exit 1 if any violation was found.  Hypothesis's draws can
depend on more than the seed (a slow command changes them), so ``--save``
writes the argv lists a run drew to a JSON file and ``--replay`` runs such
a file again in the same order:

    python scripts/fuzz_cli.py --examples 3000 --seed 1 --deadline 20 --save run.json
    python scripts/fuzz_cli.py --replay run.json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import select
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from ringlab import cli  # noqa: E402
from ringlab.parsing import parse_polynomial  # noqa: E402

ADDRESS_SPACE_CAP = 1 << 30  # RLIMIT_AS of the worker: a runaway input gets MemoryError

# -- argv generators -----------------------------------------------------------

NAMES = ("x", "y", "z", "x1", "x2", "a", "w")
# half the draws are prime fields, small to large; the other half also tries q, z,
# a prime past the proven primality bound, composites, Z/n and malformed tags
FIELDS = st.one_of(
    st.sampled_from(("fp:2", "fp:3", "fp:5", "fp:7", "fp:13", "fp:101", "fp:997", "fp:3001",
                     "fp:10007", "fp:32003", "fp:2147483647")),
    st.sampled_from(("q", "z", "fp:170141183460469231731687303715884105727", "fp:6", "fp:1",
                     "fp:0", "fp:-7", "fp:abc", "zn:1", "zn:6", "zn:12", "zn:0", "bogus")))
# numbers as text: one past Python's 4300-digit int conversion limit
NATS = st.one_of(st.integers(0, 12).map(str), st.integers(13, 10 ** 6).map(str),
                 st.sampled_from((str(2 ** 61 - 1), "1" + "0" * 30, "1" + "0" * 4400)))
EXPONENTS = st.one_of(st.integers(0, 6), st.integers(7, 120),
                      st.sampled_from((996, 2000, 20000, 100000, 10 ** 14)))


def _factor(base):
    return st.tuples(st.sampled_from(("", "", "-")), base,
                     st.one_of(st.just(""), EXPONENTS.map(lambda e: f"^{e}"))).map("".join)


def _joined(parts, separators):
    # parts joined by drawn separators: p0 s1 p1 s2 p2 ...
    return st.lists(st.tuples(st.sampled_from(separators), parts), min_size=1, max_size=3).map(
        lambda items: "".join(sep + part for sep, part in items)[len(items[0][0]):])


def _expr(base):
    term = _joined(_factor(base), ("*", "", " ", " * "))
    return _joined(term, ("+", "-", " + ", " - "))


_COEFF = st.one_of(NATS, st.tuples(NATS, NATS).map(lambda t: f"{t[0]}/{t[1]}"))
_BASE = st.recursive(st.one_of(_COEFF, st.sampled_from(NAMES)),
                     lambda inner: _expr(inner).map(lambda e: f"({e})"), max_leaves=6)
EXPRESSIONS = st.one_of(
    _expr(_BASE),
    st.integers(90, 150).map(lambda k: "(" * k + "x" + ")" * k),  # deep nesting
    # stray tokens, with a superscript two, a vulgar half, an Arabic-Indic three, a letter
    # outside ASCII and a no-break space
    st.text(alphabet="xyz0123+-*/^() $#.,;\u00b2\u00bd\u0663\u00e9\u00a0", max_size=12),
)
_COORD = st.one_of(st.integers(-3, 12), st.sampled_from((10 ** 9, -10 ** 20)))
_BAD_POINT = st.sampled_from(("0,a", "", ",", "1,,2", "0;1", "0,0,0,0"))
# one dimension per point list; one list in four also holds a malformed point
_POINT_LISTS = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.lists(_COORD, min_size=dim, max_size=dim).map(lambda cs: ",".join(map(str, cs))),
    max_size=4))
POINT_LISTS = st.one_of(_POINT_LISTS, _POINT_LISTS, _POINT_LISTS,
                        st.tuples(_POINT_LISTS, _BAD_POINT).map(lambda t: t[0] + [t[1]]))
FLAG_VALUES = {
    "format": st.sampled_from(("text", "json", "svg", "xml")),
    "vars": st.sampled_from(("x", "x,y", "x,y,z", "a,w", "x,x", "x1,x2,x3,x4", "1x", "")),
    "field": FIELDS,
    "bound": st.one_of(st.integers(0, 6).map(str), st.sampled_from(("12", "1000", "-1", "x", ""))),
    "window": st.sampled_from(("-2:2,-2:2", "0:1,0:1", "1:1,0:1", "-1/2:3,0:2", "0:1e5000,0:1",
                               "a", "0:1", "0:1/0,0:1", "-1/3:2/7,-5/11:3/13",
                               "-1/997:1/991,-1/10007:1/10009")),
    "res": st.sampled_from(("1", "8", "16", "64", "8x4", "0", "100000", "x", "3x", "33x17")),
}
INTS = st.one_of(st.integers(-5, 400).map(str),
                 st.sampled_from((str(10 ** 12), str(2 ** 89 - 1), "1" + "0" * 5000)))


def _exprs(least: int, most: int):
    return st.lists(EXPRESSIONS, min_size=least, max_size=most)


COMMAND_ARGS = {
    "parse": _exprs(1, 1), "variety": _exprs(1, 3), "viv": _exprs(1, 2),
    "member": _exprs(1, 3), "radical": _exprs(1, 1), "hbt": _exprs(1, 3),
    "plot": _exprs(1, 1),
    "videal": POINT_LISTS, "decompose": POINT_LISTS, "prime-check": POINT_LISTS,
    "ideal-eq": st.lists(_exprs(1, 2).map("; ".join), min_size=2, max_size=2),
    "chain-demo": st.lists(INTS, min_size=1, max_size=1),
    "zideal": st.tuples(st.sampled_from(("gens", "prime", "contains", "frob")),
                        st.lists(INTS, max_size=3)).map(lambda t: [t[0], *t[1]]),
    "ideals-mod": st.lists(INTS, min_size=1, max_size=1),
    "help": st.just([]), "nonsense": st.just([]),
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMAND_ARGS)))
    args = draw(COMMAND_ARGS[command])
    if draw(st.integers(0, 9)) == 0:  # arity errors
        args = args[:-1] if args and draw(st.booleans()) else args + ["x"]
    flags = draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), unique=True, max_size=4))
    if "field" not in flags and draw(st.booleans()):  # most commands read --field
        flags.append("field")
    tokens = [[f"--{name}", draw(FLAG_VALUES[name])] for name in flags] + [[a] for a in args]
    order = draw(st.permutations(range(len(tokens))))
    return [command] + [t for i in order for t in tokens[i]]


# -- the worker ------------------------------------------------------------------


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no handler inside ringlab eats it."""


def _on_alarm(signum, frame):
    raise Deadline()


def worker(deadline: float) -> None:
    """Read one JSON argv per line from stdin, write one JSON result per line."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            code = cli.run(argv, stdout=out, stderr=err)
        except Deadline:
            error = f"exceeded the {deadline} s deadline"
        except BaseException as exc:  # anything escaping run breaks the contract
            error = f"raised {type(exc).__name__}: {str(exc)[:200]}"
            error += " at " + traceback.extract_tb(exc.__traceback__)[-1].name
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "error": error, "seconds": time.perf_counter() - t0}
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


class Worker:
    """One worker subprocess, restarted when it dies or hangs in native code."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc: subprocess.Popen | None = None

    def run(self, argv: list[str]) -> dict:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, __file__, "--worker", "--deadline", str(self.deadline)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        # SIGALRM only fires between bytecodes; one long native call can outlive it
        ready, _, _ = select.select([self.proc.stdout], [], [], self.deadline + 10)
        line = self.proc.stdout.readline() if ready else ""
        if line:
            return json.loads(line)
        self.close()
        why = "the worker died" if ready else "hung past the deadline in native code"
        return {"code": None, "stdout": "", "stderr": "", "error": why, "seconds": None}

    def close(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None


# -- the contract ------------------------------------------------------------------


def violation(argv: list[str], result: dict) -> str | None:
    """What result breaks in the CLI contract, or None."""
    if result["error"]:
        return result["error"]
    code, out, err = result["code"], result["stdout"], result["stderr"]
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    if code:
        if out:
            return f"exit {code} with {len(out)} bytes on stdout"
        if err.count("\n") != 1 or not err.endswith("\n"):
            return f"exit {code} with stderr not one line: {err[:200]!r}"
        return None
    if err:
        return f"exit 0 with stderr {err[:200]!r}"
    if argv[0] == "member":
        return _member_violation(argv, out)
    return None


def _member_violation(argv: list[str], out: str) -> str | None:
    flags, args = cli.split_argv(argv[1:])
    if flags.get("format") != "json":
        return None
    cert = json.loads(out)
    opts = cli.Options(flags)
    ring = opts.ring(args)
    m = ring.domain.modulus
    f, *gens = (parse_polynomial(a, ring).terms for a in args)
    gens = [g for g in gens if g]  # the presentation drops zero generators
    if cert["verdict"] == "member":
        total: dict = {}
        for h, g in zip(cert["cofactors"], gens, strict=True):
            for t in h["terms"]:
                ch = Fraction(t["coeff"])
                for eg, cg in g.items():
                    exps = tuple(a + b for a, b in zip(t["exps"], eg))
                    total[exps] = total.get(exps, 0) + ch * cg
        total = {e: c % m if m else c for e, c in total.items()}
        if {e: c for e, c in total.items() if c} != f:
            return "member cofactors do not sum to f"
    elif cert["verdict"] == "non_member":
        point = [Fraction(v) for v in cert["witness"]]

        def value(poly):
            total = sum(c * math.prod(x ** e for x, e in zip(point, exps))
                        for exps, c in poly.items())
            return total % m if m else total

        if any(value(g) for g in gens) or not value(f):
            return "non-member witness does not separate f from the generators"
    return None


# -- long runs ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline", type=float, default=20.0, help="seconds per command")
    parser.add_argument("--slow", type=float, default=5.0, help="report commands slower than this")
    parser.add_argument("--save", type=Path, help="write the argv lists run, as a JSON list")
    parser.add_argument("--replay", type=Path,
                        help="run the argv lists of a --save file instead of drawing new ones")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.deadline)
        return 0

    runner, found, ran = Worker(args.deadline), [], []

    def check(argv):
        ran.append(argv)
        result = runner.run(argv)
        problem = violation(argv, result)
        if problem:
            found.append(problem)
            print(f"VIOLATION {problem}: {json.dumps(argv)}", flush=True)
        elif result["seconds"] > args.slow:
            print(f"slow {result['seconds']:.1f} s: {json.dumps(argv)}", flush=True)

    @seed(args.seed)
    @settings(max_examples=args.examples, database=None, deadline=None,
              phases=[p for p in settings.default.phases if p.name != "shrink"],
              suppress_health_check=list(HealthCheck))
    @given(argvs())
    def explore(argv):
        check(argv)

    try:
        if args.replay:
            for argv in json.loads(args.replay.read_text()):
                check(argv)
        else:
            explore()
    finally:
        runner.close()
        if args.save:  # also after an interrupt, so the argv lists that ran can be replayed
            args.save.write_text("[\n" + ",\n".join(map(json.dumps, ran)) + "\n]\n")
    source = f"replay of {args.replay}" if args.replay else f"seed {args.seed}"
    print(f"{len(found)} violations in {len(ran)} examples ({source})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
