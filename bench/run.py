"""ringlab benchmark: seeded CLI command mixes, timed end to end, answers checked.

Run from the root of a ringlab checkout:

    python3 bench/run.py --workload fp-scan --seed 1 --seconds 35 --trace 0

One process, one closed-loop client: each command goes to
``ringlab.cli.run(argv, stdout, stderr)`` in-process only after the previous
one returned.  The run repeats the seeded command list in passes until
``--seconds`` is used up (at least three passes).  A command's latency is
its mean over passes and ``wall_s`` the mean wall time of a whole pass:
each command is sampled at several moments of the run, and on a shared
host whose speed swings for seconds at a time the mean of those samples
moves less from run to run than their median or minimum.
Every output is checked: the first pass against answers computed here, the
pinned digests in ``bench/expected/`` when the seed has them, and later
passes against the first.  A command that failed once counts as failed in
every pass that follows, so one wrong answer weighs the same in
``success_ratio`` however many passes fit in the run.

With ``--trace 1`` passes alternate between untraced and traced (see
``spans.py``) and the per-layer metrics of BENCHMARK.json are printed
instead, per pass of the list, with ``trace_overhead``.  ``--record`` runs
one pass and pins its exit codes and stdout digests for the seed.

The last stdout line is the JSON result.  Exits 2 without a result when
the directory is not a ringlab checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "nodal_cubic_64.txt"
EXPECTED = HERE / "expected"
SPANS = ROOT / ".bench_out"

MIN_PASSES = 3
COMMAND_BUDGET_S = 20  # wall-clock limit per command, via SIGALRM
ADDRESS_SPACE_CAP = 1 << 30  # RLIMIT_AS of this process: a runaway input gets MemoryError
SETUP_IMPORTS = 15

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


class CommandTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler inside ringlab eats it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


class Runner:
    """Runs the command list in passes and records latencies and failures."""

    def __init__(self, cli, cmds: list[workloads.Cmd], pinned: list | None):
        self.cli = cli
        self.cmds = cmds
        self.pinned = pinned
        # per command, its wall-clock latency in each untraced pass
        self.latency: list[list[float]] = [[] for _ in cmds]
        self.first: list[tuple | None] = [None] * len(cmds)
        self.dead = [False] * len(cmds)  # timed out or ran out of memory: not re-run
        # per command, why it first failed; it then fails in every later pass
        self.failure: list[str | None] = [None] * len(cmds)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool = False) -> float:
        """One pass over the list; returns its wall time.

        Outputs seen for the first time are checked after the pass, so the
        checks' own allocations do not land inside the timed commands.
        """
        cli, clock = self.cli, time.perf_counter
        unchecked = []
        paused = 0.0
        begin = clock()
        for i, cmd in enumerate(self.cmds):
            self.attempted += 1
            if self.dead[i]:
                self.failed += 1
                continue
            out, err = io.StringIO(), io.StringIO()
            error = None
            signal.alarm(COMMAND_BUDGET_S)
            t0 = clock()
            try:
                rc = cli.run(cmd.argv, out, err)
            except CommandTimeout:
                error = f"exceeded {COMMAND_BUDGET_S} s"
            except MemoryError:
                error = "MemoryError under the address-space cap"
            except Exception as exc:  # a traceback breaks the exit-code contract
                error = f"raised {type(exc).__name__}: {exc}"
            finally:
                t1 = clock()
                signal.alarm(0)
            if not traced:
                self.latency[i].append(t1 - t0)
            if error is not None:
                self.dead[i] = True
            elif self.first[i] is None:
                unchecked.append((i, rc, out.getvalue()))
                continue
            elif (rc, digest(out.getvalue())) != self.first[i]:
                error = "output differs from the first pass"
            self._count(i, error)
            paused += clock() - t1
        wall = clock() - begin - paused
        for i, rc, out in unchecked:
            self._count(i, self._check(i, self.cmds[i], rc, out))
        return wall

    def _count(self, i: int, error: str | None) -> None:
        if error and self.failure[i] is None:
            cmd = self.cmds[i]
            self.failure[i] = f"{cmd.kind} #{i} {cmd.argv!r}: {error}"
        if self.failure[i] is not None:
            self.failed += 1

    def _check(self, i: int, cmd: workloads.Cmd, rc: int, out: str) -> str | None:
        self.first[i] = seen = (rc, digest(out))
        if self.pinned is not None and list(seen) != self.pinned[i]:
            return f"exit {rc} / digest {seen[1]} differ from the pinned {self.pinned[i]}"
        if rc != cmd.rc:
            return f"exit code {rc}, expected {cmd.rc}"
        try:
            cmd.check(out)
        except workloads.CheckError as exc:
            return f"wrong answer: {exc}"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None


def setup_seconds() -> float:
    """Median time to import ringlab.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ringlab.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_pins(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fp-scan", "certify", "plot"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one pass and pin its exit codes and stdout digests")
    args = ap.parse_args(argv)

    if not (SRC / "ringlab" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"bench: {ROOT} is not a ringlab checkout (needs src/ringlab and "
              f"{GOLDEN.relative_to(ROOT)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    sys.path.insert(0, str(SRC))
    import ringlab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "ringlab":
        print(f"bench: imported ringlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = setup_seconds() if not (args.trace or args.record) else None
    cmds = workloads.build(args.workload, args.seed, GOLDEN.read_text())
    pins = load_pins(args.workload)
    pinned = None if args.record else pins.get(str(args.seed))
    if pinned is not None and len(pinned) != len(cmds):
        print(f"bench: bench/expected/{args.workload}.json pins {len(pinned)} commands for "
              f"seed {args.seed}, the list has {len(cmds)}; re-pin with --record", file=sys.stderr)
        return 1
    runner = Runner(cli, cmds, pinned)

    start = time.perf_counter()
    deadline = start + args.seconds
    plain: list[float] = [runner.run_pass()]
    if args.record:
        return record(args, runner, pins)
    traced: list[float] = []
    tracer = spans.Tracer() if args.trace else None
    min_passes = 2 if tracer else MIN_PASSES
    while True:
        walls = plain + traced
        if len(walls) >= min_passes and time.perf_counter() + statistics.median(walls) > deadline:
            break
        if tracer and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(runner.run_pass(traced=True))
            finally:
                tracer.uninstall()
        else:
            plain.append(runner.run_pass())

    failed = runner.failed
    for line in list(filter(None, runner.failure))[:20]:
        print(f"bench: FAIL {line}", file=sys.stderr)
    lat_ms = [1000 * statistics.mean(ts) for ts in runner.latency]
    p90_kind = cmds[lat_ms.index(percentile(lat_ms, 0.9))].kind
    print(f"bench: {args.workload} seed {args.seed}: {len(cmds)} commands x "
          f"{len(plain)} passes (+{len(traced)} traced); pass walls "
          f"{', '.join(f'{w:.3f}' for w in plain)} s; cmd_p90_ms over N={len(cmds)} commands "
          f"(a {p90_kind} command); {failed} of {runner.attempted} failed", file=sys.stderr)

    if tracer:
        missing = tracer.missing_calls(args.workload)
        if missing:
            print(f"bench: traced run recorded no calls to {', '.join(missing)} on "
                  f"{args.workload}; a wrapper was not rebound", file=sys.stderr)
            return 1
        values = tracer.layer_metrics(len(traced))
        values["trace_overhead"] = statistics.mean(traced) / statistics.mean(plain)
        values["bench.commands"] = len(cmds)
        tracer.write_spans(SPANS / f"spans-{args.workload}-{args.seed}")
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.mean(plain),
            "cmd_p50_ms": statistics.median(lat_ms),
            "cmd_p90_ms": percentile(lat_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "success_ratio": 1 - failed / runner.attempted,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record(args, runner: Runner, pins: dict) -> int:
    if runner.failed:
        for line in filter(None, runner.failure):
            print(f"bench: FAIL {line}", file=sys.stderr)
        print("bench: not pinning a seed whose answers fail their checks", file=sys.stderr)
        return 1
    pins[str(args.seed)] = [list(seen) for seen in runner.first]
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{args.workload}.json"
    lines = [f"{json.dumps(seed)}: {json.dumps(pins[seed])}" for seed in sorted(pins, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one seed per line
    print(f"bench: pinned {len(runner.first)} commands of {args.workload} seed {args.seed}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
