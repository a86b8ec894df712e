"""Command-line surface over the whole workbench.

Exit codes: 0 success, 1 usage or expression syntax error, 2 domain or
precondition error, 3 desk-scale resource limit.  Output is written once
to stdout; failures report on stderr only.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Callable, Sequence, TextIO

from .domains import Fp, QQ, Zn, ZZ, Domain, smallest_factor
from .errors import (
    AlgebraError,
    ParseError,
    ResourceLimitError,
    UnsupportedDomain,
)
from .intideals import IntIdeal, enumerate_ideals_mod_n
from .parsing import identifiers_in, parse_polynomial
from .polyideals import (
    EQUAL_WITHIN_BOUND,
    IdealPresentation,
    LEFT_NOT_IN_RIGHT,
    MEMBER,
    NON_MEMBER,
    RIGHT_NOT_IN_LEFT,
    hbt_extract_univariate,
    ideal_equal_bounded,
    membership_bounded,
    radical_univariate,
    strict_chain_demo,
)
from .polynomials import PolyRing, format_polynomial, poly_to_json
from .raster import raster_plane_curve, render_ascii, render_svg
from .varieties import (
    PointSet,
    decompose,
    is_prime_vanishing_ideal,
    vanishing_ideal,
    variety,
    viv_closure,
)


class UsageError(Exception):
    pass


_FLAG_NAMES = ("format", "vars", "field", "bound", "window", "res")

USAGE = """\
usage: ringlab <command> [flags] [args...]

commands:
  parse EXPR                      canonical form of a polynomial
  variety EXPR...                 common zero set over F_p (--field fp:P)
  videal POINT...                 vanishing ideal of points (--field fp:P)
  viv EXPR...                     I(V(S)) closure of a generator set
  decompose POINT...              irreducible components of a point set
  prime-check POINT...            is the vanishing ideal prime?
  member EXPR GEN... --bound D    bounded ideal-membership certificate
  ideal-eq GENS GENS --bound D    compare ideals (generators ';'-separated)
  radical EXPR                    squarefree part of a univariate polynomial
  chain-demo K                    certify K strict steps of (x1) < (x1,x2) < ...
  hbt GEN...                      collapse a univariate F_p ideal to one generator
  zideal gens|prime|contains N... integer-ideal operations
  ideals-mod N                    all ideals of Z/N
  plot EXPR                       rasterize a plane curve (--window, --res)

flags: --format json|text (plot also svg), --vars x,y, --field q|z|fp:P|zn:N,
       --bound D, --window x0:x1,y0:y1, --res N or CxR
points are comma-separated residues, e.g. "0,1"
"""


def split_argv(argv: Sequence[str]) -> tuple[dict[str, str], list[str]]:
    """Separate --flags from positionals; only '--'-prefixed tokens are flags.

    This keeps expressions such as "-x^2+1" and window values such as
    "-2:2,-2:2" usable as ordinary arguments.
    """
    flags: dict[str, str] = {}
    positionals: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            positionals.extend(argv[i + 1:])
            break
        if tok.startswith("--"):
            name, eq, value = tok[2:].partition("=")
            if name not in _FLAG_NAMES:
                raise UsageError(f"unknown flag --{name}")
            if not eq:
                if i + 1 >= len(argv):
                    raise UsageError(f"flag --{name} needs a value")
                value = argv[i + 1]
                i += 1
            flags[name] = value
        else:
            positionals.append(tok)
        i += 1
    return flags, positionals


def parse_field(tag: str) -> Domain:
    if tag == "q":
        return QQ
    if tag == "z":
        return ZZ
    if tag.startswith("fp:"):
        return Fp(_int_arg(tag[3:], "--field fp modulus"))
    if tag.startswith("zn:"):
        return Zn(_int_arg(tag[3:], "--field zn modulus"))
    raise UsageError(f"bad --field {tag!r}: expected q, z, fp:<p>, or zn:<n>")


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _make_ring(domain: Domain, vars_flag: str | None, texts: Sequence[str],
               fallback: tuple[str, ...] | None = None) -> PolyRing:
    """Ring for the given expressions; defaults to x,y,z sized to what is used."""
    if vars_flag:
        return PolyRing(domain, tuple(v.strip() for v in vars_flag.split(",")))
    if fallback is not None:
        return PolyRing(domain, fallback)
    used = []
    for t in texts:
        for name in identifiers_in(t):
            if name not in used:
                used.append(name)
    defaults = ("x", "y", "z")
    arity = 1
    for name in used:
        if name not in defaults:
            raise UsageError(
                f"variable {name!r} is outside the default x,y,z; pass --vars")
        arity = max(arity, defaults.index(name) + 1)
    return PolyRing(domain, defaults[:arity])


def _parse_points(args: Sequence[str], p: int) -> PointSet:
    if not args:
        raise UsageError("expected at least one point, e.g. \"0,1\"")
    pts = []
    dim = None
    for a in args:
        try:
            coords = tuple(int(c) for c in a.split(","))
        except ValueError:
            raise UsageError(f"bad point {a!r}: expected comma-separated integers") from None
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise UsageError(f"point {a!r} has dimension {len(coords)}, expected {dim}")
        pts.append(coords)
    return PointSet(p, dim, tuple(pts))


def _require_fp(domain: Domain) -> int:
    if domain.kind != "Fp":
        raise UnsupportedDomain("this command works over a prime field; pass --field fp:<p>")
    return domain.modulus


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _point_lines(points) -> str:
    pts = list(points)
    if not pts:
        return "(empty)\n"
    return "".join(",".join(str(c) for c in pt) + "\n" for pt in pts)


# -- command handlers ---------------------------------------------------------


def _cmd_parse(flags, args) -> str:
    if len(args) != 1:
        raise UsageError("parse expects exactly one expression")
    ring = _make_ring(parse_field(flags.get("field", "q")), flags.get("vars"), args)
    f = parse_polynomial(args[0], ring)
    if flags.get("format") == "json":
        return _emit_json(poly_to_json(f))
    return format_polynomial(f) + "\n"


def _parse_ideal(flags, texts: Sequence[str]) -> IdealPresentation:
    domain = parse_field(flags.get("field", "q"))
    ring = _make_ring(domain, flags.get("vars"), texts)
    gens = tuple(parse_polynomial(t, ring) for t in texts)
    return IdealPresentation(ring, gens)


def _cmd_variety(flags, args) -> str:
    if not args:
        raise UsageError("variety expects one or more generator expressions")
    ideal = _parse_ideal(flags, args)
    _require_fp(ideal.ring.domain)
    points = variety(ideal)
    if flags.get("format") == "json":
        return _emit_json({
            "field": points.p,
            "vars": list(ideal.ring.variables),
            "points": [list(pt) for pt in points],
        })
    return _point_lines(points)


def _videal_payload(result) -> dict:
    return {
        "field": result.point_set.p,
        "vars": list(result.ring.variables),
        "generators": [poly_to_json(g) for g in result.generators],
        "field_equations": [poly_to_json(g) for g in result.field_equations],
    }


def _videal_text(result) -> str:
    lines = ["generators:"]
    if result.generators:
        lines += ["  " + format_polynomial(g) for g in result.generators]
    else:
        lines.append("  (none)")
    lines.append("field equations:")
    lines += ["  " + format_polynomial(g) for g in result.field_equations]
    return "\n".join(lines) + "\n"


def _cmd_videal(flags, args) -> str:
    p = _require_fp(parse_field(flags.get("field", "q")))
    points = _parse_points(args, p)
    names = None
    if flags.get("vars"):
        names = tuple(v.strip() for v in flags["vars"].split(","))
    result = vanishing_ideal(points, names)
    if flags.get("format") == "json":
        return _emit_json(_videal_payload(result))
    return _videal_text(result)


def _cmd_viv(flags, args) -> str:
    if not args:
        raise UsageError("viv expects one or more generator expressions")
    ideal = _parse_ideal(flags, args)
    _require_fp(ideal.ring.domain)
    result = viv_closure(ideal)
    if flags.get("format") == "json":
        payload = _videal_payload(result)
        payload["points"] = [list(pt) for pt in result.point_set]
        return _emit_json(payload)
    return ("points:\n" + _point_lines(result.point_set) + _videal_text(result))


def _cmd_decompose(flags, args) -> str:
    p = _require_fp(parse_field(flags.get("field", "q")))
    points = _parse_points(args, p)
    components = decompose(points)
    if flags.get("format") == "json":
        return _emit_json({
            "field": p,
            "components": [[list(pt) for pt in comp] for comp in components],
        })
    if not components:
        return "(empty)\n"
    return "".join(str(comp) + "\n" for comp in components)


def _cmd_prime_check(flags, args) -> str:
    p = _require_fp(parse_field(flags.get("field", "q")))
    points = _parse_points(args, p)
    names = tuple(v.strip() for v in flags["vars"].split(",")) if flags.get("vars") else None
    report = is_prime_vanishing_ideal(points, names)
    if flags.get("format") == "json":
        witnesses = None
        if report.witnesses:
            witnesses = {"f": poly_to_json(report.witnesses[0]),
                         "g": poly_to_json(report.witnesses[1])}
        return _emit_json({"prime": report.prime, "witnesses": witnesses})
    if report.prime:
        return "prime\n"
    if report.witnesses:
        f, g = report.witnesses
        return ("not prime\nf = " + format_polynomial(f) + "\ng = "
                + format_polynomial(g) + "\nf*g vanishes on X; neither factor does\n")
    return "not prime (the vanishing ideal is the whole ring)\n"


def _get_bound(flags) -> int:
    if "bound" not in flags:
        raise UsageError("this command needs --bound <D>")
    bound = _int_arg(flags["bound"], "--bound")
    if bound < 0:
        raise UsageError("--bound must be >= 0")
    return bound


def _cmd_member(flags, args) -> str:
    if not args:
        raise UsageError("member expects: f followed by zero or more generators")
    bound = _get_bound(flags)
    ring = _make_ring(parse_field(flags.get("field", "q")), flags.get("vars"), args)
    f, *gens = (parse_polynomial(t, ring) for t in args)
    cert = membership_bounded(f, IdealPresentation(ring, tuple(gens)), bound)
    if flags.get("format") == "json":
        return _emit_json({
            "verdict": cert.verdict,
            "bound": cert.bound,
            "cofactors": [poly_to_json(h) for h in cert.cofactors]
            if cert.cofactors is not None else None,
            "witness": [str(w) for w in cert.witness]
            if cert.witness is not None else None,
        })
    if cert.verdict == MEMBER:
        lines = ["member"]
        for i, h in enumerate(cert.cofactors, 1):
            lines.append(f"  cofactor {i}: {format_polynomial(h)}")
        return "\n".join(lines) + "\n"
    if cert.verdict == NON_MEMBER:
        coords = ", ".join(str(w) for w in cert.witness)
        return f"non-member\n  witness: ({coords})\n"
    return f"unknown (cofactor degree bound {cert.bound} exhausted)\n"


def _cmd_ideal_eq(flags, args) -> str:
    if len(args) != 2:
        raise UsageError("ideal-eq expects two ';'-separated generator lists")
    bound = _get_bound(flags)
    left_texts = [t for t in (s.strip() for s in args[0].split(";")) if t]
    right_texts = [t for t in (s.strip() for s in args[1].split(";")) if t]
    domain = parse_field(flags.get("field", "q"))
    ring = _make_ring(domain, flags.get("vars"), left_texts + right_texts)
    left = IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in left_texts))
    right = IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in right_texts))
    comparison = ideal_equal_bounded(left, right, bound)
    if flags.get("format") == "json":
        return _emit_json({
            "verdict": comparison.kind,
            "bound": bound,
            "offending": poly_to_json(comparison.offending)
            if comparison.offending is not None else None,
        })
    if comparison.kind == EQUAL_WITHIN_BOUND:
        return f"equal within bound {bound}\n"
    if comparison.kind == LEFT_NOT_IN_RIGHT:
        return f"not equal: left generator {format_polynomial(comparison.offending)} is not in the right ideal\n"
    if comparison.kind == RIGHT_NOT_IN_LEFT:
        return f"not equal: right generator {format_polynomial(comparison.offending)} is not in the left ideal\n"
    return f"unknown at bound {bound}\n"


def _cmd_radical(flags, args) -> str:
    if len(args) != 1:
        raise UsageError("radical expects exactly one expression")
    ring = _make_ring(parse_field(flags.get("field", "q")), flags.get("vars"), args)
    f = parse_polynomial(args[0], ring)
    r = radical_univariate(f)
    if flags.get("format") == "json":
        return _emit_json(poly_to_json(r))
    return format_polynomial(r) + "\n"


def _cmd_chain_demo(flags, args) -> str:
    if len(args) != 1:
        raise UsageError("chain-demo expects the number of steps k")
    k = _int_arg(args[0], "k")
    if k < 0:
        raise UsageError("k must be >= 0")
    domain = parse_field(flags.get("field", "q"))
    if flags.get("vars"):
        names = tuple(v.strip() for v in flags["vars"].split(","))
    else:
        names = tuple(f"x{i}" for i in range(1, max(k + 1, 1) + 1))
    ring = PolyRing(domain, names)
    steps = strict_chain_demo(k, ring)
    if flags.get("format") == "json":
        return _emit_json({
            "steps": [
                {
                    "ideal": list(s.ideal_vars),
                    "new_variable": s.new_variable,
                    "witness": [str(w) for w in s.certificate.witness],
                }
                for s in steps
            ],
        })
    if not steps:
        return "no steps requested; the chain is vacuously strict\n"
    lines = []
    for s in steps:
        coords = ", ".join(str(w) for w in s.certificate.witness)
        lines.append(f"step {s.step}: {s.new_variable} not in "
                     f"({', '.join(s.ideal_vars)}); witness ({coords})")
    return "\n".join(lines) + "\n"


def _cmd_hbt(flags, args) -> str:
    if not args:
        raise UsageError("hbt expects one or more generator expressions")
    ideal = _parse_ideal(flags, args)
    result = hbt_extract_univariate(ideal)
    if flags.get("format") == "json":
        return _emit_json({
            "extracted": poly_to_json(result.extracted),
            "leading_profile": list(result.leading_profile),
            "verified_equal": result.verified_equal,
        })
    profile = ", ".join(
        f"deg<={i}: {'full field' if full else '{0}'}"
        for i, full in enumerate(result.leading_profile)
    )
    return (f"extracted generator: {format_polynomial(result.extracted)}\n"
            f"leading-coefficient profile: {profile}\n"
            f"verified equal to the input ideal: {'yes' if result.verified_equal else 'no'}\n")


def _cmd_zideal(flags, args) -> str:
    if not args:
        raise UsageError("zideal expects a mode: gens, prime, or contains")
    mode, rest = args[0], args[1:]
    as_json = flags.get("format") == "json"
    if mode == "gens":
        gens = [_int_arg(a, "generator") for a in rest]
        ideal = IntIdeal.from_generators(gens)
        if as_json:
            return _emit_json({"inputs": gens, "generator": ideal.generator})
        return f"({ideal.generator})\n"
    if mode == "prime":
        if len(rest) != 1:
            raise UsageError("zideal prime expects one integer")
        g = _int_arg(rest[0], "generator")
        ideal = IntIdeal(g)
        g = ideal.generator
        prime = ideal.is_prime()
        factor = None
        if not prime and g > 1:
            a = smallest_factor(g)
            factor = (a, g // a)
        if as_json:
            return _emit_json({
                "generator": g,
                "prime": prime,
                "factorization": list(factor) if factor else None,
            })
        if prime:
            return ("prime (zero ideal)\n" if g == 0 else f"prime: ({g})\n")
        if g == 1:
            return "not prime: (1) is the whole ring, which is excluded\n"
        a, b = factor
        return f"not prime: {g} = {a}*{b} with {a},{b} not in ({g})\n"
    if mode == "contains":
        if len(rest) != 2:
            raise UsageError("zideal contains expects: generator candidate")
        g = _int_arg(rest[0], "generator")
        z = _int_arg(rest[1], "candidate")
        verdict = IntIdeal(g).contains(z)
        if as_json:
            return _emit_json({"generator": IntIdeal(g).generator, "candidate": z,
                               "contains": verdict})
        return ("true\n" if verdict else "false\n")
    raise UsageError(f"unknown zideal mode {mode!r}")


def _cmd_ideals_mod(flags, args) -> str:
    if len(args) != 1:
        raise UsageError("ideals-mod expects one modulus")
    n = _int_arg(args[0], "modulus")
    ideals = enumerate_ideals_mod_n(n)
    if flags.get("format") == "json":
        return _emit_json({
            "modulus": n,
            "count": len(ideals),
            "ideals": [
                {"generator": min((e for e in ideal.elements if e), default=0),
                 "elements": list(ideal.elements)}
                for ideal in ideals
            ],
        })
    return "".join(str(ideal) + "\n" for ideal in ideals)


def _parse_window(text: str):
    try:
        xs, ys = text.split(",")
        x0, x1 = (Fraction(v) for v in xs.split(":"))
        y0, y1 = (Fraction(v) for v in ys.split(":"))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --window {text!r}: expected x0:x1,y0:y1") from None
    return (x0, x1, y0, y1)


def _parse_res(text: str) -> tuple[int, int]:
    if "x" in text:
        a, _, b = text.partition("x")
        return _int_arg(a, "--res cols"), _int_arg(b, "--res rows")
    n = _int_arg(text, "--res")
    return n, n


def _cmd_plot(flags, args) -> str:
    if len(args) != 1:
        raise UsageError("plot expects exactly one expression")
    domain = parse_field(flags.get("field", "q"))
    ring = _make_ring(domain, flags.get("vars"), args, fallback=("x", "y"))
    f = parse_polynomial(args[0], ring)
    window = _parse_window(flags.get("window", "-2:2,-2:2"))
    cols, rows = _parse_res(flags.get("res", "40"))
    grid = raster_plane_curve(f, window, cols, rows)
    fmt = flags.get("format", "text")
    if fmt == "json":
        return _emit_json({
            "window": [str(v) for v in grid.window],
            "res": [grid.cols, grid.rows],
            "rows": ["".join("#" if cell else "." for cell in row) for row in grid.cells],
        })
    if fmt == "svg":
        return render_svg(grid)
    return render_ascii(grid)


_COMMANDS: dict[str, Callable] = {
    "parse": _cmd_parse,
    "variety": _cmd_variety,
    "videal": _cmd_videal,
    "viv": _cmd_viv,
    "decompose": _cmd_decompose,
    "prime-check": _cmd_prime_check,
    "member": _cmd_member,
    "ideal-eq": _cmd_ideal_eq,
    "radical": _cmd_radical,
    "chain-demo": _cmd_chain_demo,
    "hbt": _cmd_hbt,
    "zideal": _cmd_zideal,
    "ideals-mod": _cmd_ideals_mod,
    "plot": _cmd_plot,
}


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        if not argv or argv[0] in ("-h", "--help", "help"):
            stdout.write(USAGE)
            return 0
        command, rest = argv[0], list(argv[1:])
        handler = _COMMANDS.get(command)
        if handler is None:
            raise UsageError(f"unknown command {command!r}")
        flags, positionals = split_argv(rest)
        fmt = flags.get("format", "text")
        allowed = ("json", "text", "svg") if command == "plot" else ("json", "text")
        if fmt not in allowed:
            raise UsageError(f"--format must be one of {', '.join(allowed)}")
        output = handler(flags, positionals)
    except UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        stderr.write(f"parse error: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        stderr.write(f"resource limit: {exc}\n")
        return 3
    except AlgebraError as exc:
        stderr.write(f"domain error: {exc}\n")
        return 2
    stdout.write(output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
