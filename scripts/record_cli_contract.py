"""Record the CLI contract: one digest of (exit code, stdout, stderr) per argv.

Runs a fixed grid of argv lists through ``ringlab.cli.run`` in-process and
writes ``tests/data/cli_contract.json``: a list of ``[argv, digest]`` pairs,
where the digest is the first 12 hex digits of the SHA-256 of the JSON array
``[code, stdout, stderr]``.  ``tests/test_cli_contract.py`` replays the
stored argv lists and names every one whose digest differs, so any change to
an exit code, an output byte or an error message shows up in tier-1.

The grid covers every command with valid, malformed and out-of-field
arguments, every field tag and format, the flag values each command reads,
arity errors, syntax errors and variables outside the default x,y,z.  Its
inputs are small, so the whole replay takes well under a second.

Usage: python scripts/record_cli_contract.py [output-path]
"""

import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ringlab import cli

OUT = ROOT / "tests" / "data" / "cli_contract.json"

FIELDS = (None, "q", "z", "fp:5", "fp:2", "fp:6", "fp:abc", "zn:6", "bogus")
FORMATS = (None, "json", "svg", "xml")

# positional argument lists per command: valid ones, arity errors, syntax
# errors, variables outside x,y,z and values each command must reject
ARGS = {
    "parse": [[], ["x^2-1"], ["-x^2+1"], ["x +"], ["w"], ["x", "y"], ["(x+y)^2"]],
    "variety": [[], ["x^2+1"], ["x^2+y^2-1", "x-y"], ["x +"], ["w"], ["x*y*z-1"]],
    "videal": [[], ["0,1"], ["0,1", "1,0"], ["0,a"], ["0,1", "1"], ["7,8"]],
    "viv": [[], ["x^2"], ["x^2-y"], ["x +"], ["w"], ["x", "y"]],
    "decompose": [[], ["0,0", "1,1"], ["0,a"], ["0", "1,1"], ["1,2", "2,1", "0,0"]],
    "prime-check": [[], ["0,0"], ["0,0", "1,1"], ["0,a"], ["0,1", "1,0"]],
    "member": [[], ["x^2-1", "x-1"], ["x", "x*y"], ["1"], ["x +", "x"], ["w", "x"],
               ["x*y", "x", "y"]],
    "ideal-eq": [[], ["x"], ["x^2-1; x^3-1", "x-1"], ["x", "x; y"], ["x +", "x"],
                 ["w", "x"], ["x", "y", "z"], [";", "x"]],
    "radical": [[], ["x^2"], ["(x^2+1)^2"], ["x*y"], ["x +"], ["x", "y"], ["x^5"]],
    "chain-demo": [[], ["2"], ["0"], ["-1"], ["a"], ["1", "2"]],
    "hbt": [[], ["x^2-1", "x^3-1"], ["x*y"], ["x +"], ["0"], ["x^2+1"]],
    "zideal": [[], ["gens"], ["gens", "6", "10"], ["gens", "a"], ["prime"], ["prime", "6"],
               ["prime", "7"], ["prime", "0"], ["prime", "1"], ["prime", "-6"],
               ["prime", "a"], ["prime", "1", "2"], ["contains", "3", "6"],
               ["contains", "6", "2"], ["contains", "3"], ["contains", "a", "1"],
               ["frob"]],
    "ideals-mod": [[], ["6"], ["1"], ["0"], ["a"], ["6", "7"], ["20000"]],
    "plot": [[], ["x"], ["y^2-x^2*(x+1)"], ["x +"], ["w"], ["x", "y"], ["x*y*z"]],
}

BOUNDS = (None, "0", "1", "2", "-1", "x", "")
VARS = (None, "x", "x,y", "y, x", "a,b", "x,x", "", "1a")
WINDOWS = (None, "-1:1,-1:1", "0:1/2,-1:1", "oops", "0:1", "1:1,0:1", "1/0:1,0:1", "a:b,c:d")
RESES = (None, "4", "3x5", "0", "-1", "a", "4xa", "x4", "100000")


def flagged(command, args, **flags):
    argv = [command]
    for name, value in flags.items():
        if value is not None:
            argv += [f"--{name}", value]
    return argv + list(args)


def grid():
    """The fixed argv grid, in a stable order."""
    cases = [[], ["-h"], ["--help"], ["help"], ["frobnicate", "1"], ["--format", "json"],
             ["parse", "--nope", "1", "x"], ["parse", "x", "--format"],
             ["parse", "--format=json", "x"], ["parse", "--", "--x"], ["parse", "--", "-x"],
             ["parse", "--format", "json", "--format", "text", "x"],
             ["plot", "--res", "4", "--", "-x^2+y"],
             ["parse", "(" * 200 + "x" + ")" * 200]]
    # every command x field x format x argument list; an explicit text format
    # and the rarer field tags on fewer fields
    for command, arg_lists in ARGS.items():
        for field, fmt, args in itertools.product(FIELDS, FORMATS, arg_lists):
            cases.append(flagged(command, args, field=field, format=fmt))
        for field, args in itertools.product((None, "fp:5", "fp:1", "zn:"), arg_lists):
            cases.append(flagged(command, args, field=field, format="text"))
    # --bound wherever a command takes it (and where it is ignored)
    for command in ("member", "ideal-eq"):
        for bound, field, args in itertools.product(BOUNDS, (None, "fp:5", "fp:6", "bogus"),
                                                    ARGS[command]):
            cases.append(flagged(command, args, bound=bound, field=field))
    for command, args in (("parse", ["x"]), ("zideal", ["prime", "7"]),
                          ("ideals-mod", ["6"]), ("plot", ["x"])):
        for bound in BOUNDS:
            cases.append(flagged(command, args, bound=bound, res="4"
                                 if command == "plot" else None))
    # --vars on every command that names variables
    var_args = {
        "parse": [["x"], ["a*b"], ["w"]],
        "variety": [["x"], ["a*b-1"], ["x +"]],
        "videal": [["0,1"], ["0"], ["0,a"]],
        "viv": [["x"], ["a-b"]],
        "prime-check": [["0,1", "1,0"], ["0"]],
        "decompose": [["0,1"]],
        "radical": [["x^2"], ["a^2"]],
        "chain-demo": [["1"], ["2"], ["a"]],
        "hbt": [["x^2-1", "x-1"], ["a"]],
        "member": [["x", "x*y"], ["a", "a*b"]],
        "ideal-eq": [["x", "x; y"], ["a", "b"]],
        "plot": [["x"], ["a-b"]],
        "zideal": [["gens", "4"]],
        "ideals-mod": [["4"]],
    }
    for command, arg_lists in var_args.items():
        for names, field, args in itertools.product(VARS, (None, "fp:5", "fp:6", "fp:abc"),
                                                    arg_lists):
            cases.append(flagged(command, args, vars=names, field=field, bound="1",
                                 res="4" if command == "plot" else None))
    # --window and --res for plot, and ignored by the other commands
    for window, res, fmt, args in itertools.product(
            WINDOWS, RESES, (None, "json", "svg"), (["x"], ["x +"], ["x*y-1"])):
        if res is None and args != ["x"]:
            continue  # the default 40x40 raster costs milliseconds; once per window is enough
        cases.append(flagged("plot", args, window=window, res=res, format=fmt))
    for window, res in itertools.product(("oops", "-1:1,-1:1"), ("a", "4")):
        for command, args in (("parse", ["x"]), ("zideal", ["gens", "6"]), ("variety", ["x"])):
            cases.append(flagged(command, args, window=window, res=res, field="fp:2"))
    # the order of checks: format before arity, field before the default
    # variables, F_p before points but after expressions, --bound after arity
    cases += [
        ["ideals-mod", "6", "--field", "fp:6"],
        ["zideal", "prime", "7", "--bound", "x"],
        ["parse", "--field", "fp:6", "w"],
        ["parse", "--field", "bogus", "x +"],
        ["videal", "0,a"], ["videal", "0,1", "1"], ["videal"],
        ["decompose", "0,a"], ["decompose"],
        ["prime-check", "0,a"], ["prime-check", "--vars", "x,x", "0,a"], ["prime-check"],
        ["prime-check", "--field", "fp:5", "--vars", "x,x", "0,1"],
        ["variety", "x +"], ["variety", "w"], ["viv", "x +"], ["viv", "w"],
        ["member", "--bound", "x"], ["member", "--bound", "x", "x +"],
        ["member", "x +"], ["member", "--field", "bogus", "x"],
        ["member", "--bound", "-1", "--field", "bogus", "x"],
        ["ideal-eq", "--bound", "x", "x"], ["ideal-eq", "--bound", "x", "x +", "x"],
        ["ideal-eq", "x +", "x"],
        ["parse", "--format", "xml"], ["plot", "--format", "xml"],
        ["zideal", "--format", "svg"], ["chain-demo", "--field", "bogus", "a"],
        ["chain-demo", "--field", "bogus", "-1"], ["chain-demo", "--field", "bogus", "1"],
        ["plot", "--window", "oops", "--res", "a", "x +"],
        ["plot", "--window", "oops", "--res", "a", "--field", "bogus", "x"],
        ["plot", "--res", "a", "--window", "oops", "x"],
        ["hbt", "--field", "bogus", "x +"], ["radical", "--field", "bogus", "x +"],
        ["parse", "x $"], ["variety", "w", "x $"], ["member", "--bound", "1", "w", "x $"],
        ["ideal-eq", "--bound", "1", "w", "x $"], ["plot", "w $"], ["member", "--bound", "1", "0", "x"],
        ["member", "--bound", "1", "--field", "fp:5", "0", "0"], ["hbt", "--field", "fp:5", "0", "x"],
    ]
    return cases


def outcome(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), stdout=out, stderr=err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def main():
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    records = [[argv, outcome(argv)] for argv in grid()]
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"wrote {len(records)} cases to {path}")


if __name__ == "__main__":
    main()
