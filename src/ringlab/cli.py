"""Command-line surface over the whole workbench.

Exit codes: 0 success, 1 usage or expression syntax error, 2 domain or
precondition error, 3 desk-scale resource limit.  Output is written once
to stdout; failures report on stderr only.

Every command is one row of ``COMMANDS``; ``run`` checks its format and
arity, calls it and writes its rendering.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence, TextIO

from .domains import Fp, QQ, Zn, ZZ, Domain, smallest_factor
from .errors import (
    AlgebraError,
    ParseError,
    ResourceLimitError,
    TooLarge,
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
    check_chain_size,
    hbt_extract_univariate,
    ideal_equal_bounded,
    membership_bounded,
    radical_univariate,
    strict_chain_demo,
)
from .polynomials import DIGIT_LIMIT, Polynomial, PolyRing, domain_tag, format_polynomial
from .raster import ascii_rows, raster_plane_curve, render_ascii, render_svg
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
_DEFAULT_VARS = ("x", "y", "z")


def split_argv(argv: Sequence[str]) -> tuple[dict[str, str], list[str]]:
    """Separate --flags from positionals; only '--'-prefixed tokens are flags.

    This keeps expressions such as "-x^2+1" and window values such as
    "-2:2,-2:2" usable as ordinary arguments.
    """
    flags: dict[str, str] = {}
    positionals: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            positionals.extend(tokens)
        elif tok.startswith("--"):
            name, eq, value = tok[2:].partition("=")
            if name not in _FLAG_NAMES:
                raise UsageError(f"unknown flag --{name}")
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"flag --{name} needs a value")
            flags[name] = value
        else:
            positionals.append(tok)
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


def _int_arg(text: str, what: str, least: int | None = None) -> int:
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    if least is not None and n < least:
        raise UsageError(f"{what} must be >= {least}")
    return n


def _check_arity(args: Sequence[str], least: int, most: int | None, message: str) -> None:
    if len(args) < least or (most is not None and len(args) > most):
        raise UsageError(message)


@dataclass
class Options:
    """The --flags of one command line, each parsed when a command first reads
    it: an unread flag is never rejected, and errors come in reading order."""

    flags: dict[str, str]

    @cached_property
    def domain(self) -> Domain:
        return parse_field(self.flags.get("field", "q"))

    @property
    def names(self) -> tuple[str, ...] | None:
        text = self.flags.get("vars")
        return tuple(v.strip() for v in text.split(",")) if text else None

    @property
    def bound(self) -> int:
        if "bound" not in self.flags:
            raise UsageError("this command needs --bound <D>")
        return _int_arg(self.flags["bound"], "--bound", least=0)

    @property
    def p(self) -> int:
        if self.domain.kind != "Fp":
            raise UnsupportedDomain("this command works over a prime field; pass --field fp:<p>")
        return self.domain.modulus

    def ring(self, texts: Sequence[str], fallback: tuple[str, ...] | None = None) -> PolyRing:
        """Ring for the given expressions; defaults to x,y,z sized to what is used."""
        domain = self.domain  # read first: a bad --field outranks a foreign variable
        names = self.names or fallback
        if names is None:
            # all texts are tokenized before any name is judged: a bad token wins
            used = [name for t in texts for name in identifiers_in(t)]
            arity = 1
            for name in used:
                if name not in _DEFAULT_VARS:
                    raise UsageError(
                        f"variable {name!r} is outside the default x,y,z; pass --vars")
                arity = max(arity, _DEFAULT_VARS.index(name) + 1)
            names = _DEFAULT_VARS[:arity]
        return PolyRing(domain, names)

    def ideal(self, texts: Sequence[str], ring: PolyRing | None = None) -> IdealPresentation:
        ring = self.ring(texts) if ring is None else ring
        return IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in texts))

    def fp_ideal(self, texts: Sequence[str]) -> IdealPresentation:
        ideal = self.ideal(texts)
        self.p  # the prime field is checked after the expressions parse
        return ideal

    def points(self, args: Sequence[str]) -> PointSet:
        p = self.p
        if not args:
            raise UsageError("expected at least one point, e.g. \"0,1\"")
        pts = []
        for a in args:
            try:
                coords = tuple(int(c) for c in a.split(","))
            except ValueError:
                raise UsageError(f"bad point {a!r}: expected comma-separated integers") from None
            if pts and len(coords) != len(pts[0]):
                raise UsageError(f"point {a!r} has dimension {len(coords)}, expected {len(pts[0])}")
            pts.append(coords)
        return PointSet(p, len(pts[0]), tuple(pts))

    @property
    def window(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        text = self.flags.get("window", "-2:2,-2:2")
        try:
            xs, ys = text.split(",")
            x0, x1 = (Fraction(v) for v in xs.split(":"))
            y0, y1 = (Fraction(v) for v in ys.split(":"))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad --window {text!r}: expected x0:x1,y0:y1") from None
        return (x0, x1, y0, y1)

    @property
    def res(self) -> tuple[int, int]:
        text = self.flags.get("res", "40")
        if "x" in text:
            a, _, b = text.partition("x")
            return _int_arg(a, "--res cols"), _int_arg(b, "--res rows")
        n = _int_arg(text, "--res")
        return n, n


# -- commands: run(opts, args) computes a result, render[format] shows it ----


def _variety(opts, args):
    ideal = opts.fp_ideal(args)
    return ideal.ring.variables, variety(ideal)


def _member(opts, args):
    bound = opts.bound
    ring = opts.ring(args)
    f = parse_polynomial(args[0], ring)
    return membership_bounded(f, opts.ideal(args[1:], ring), bound)


def _ideal_eq(opts, args) -> tuple[dict, str]:
    """The JSON payload and the text of one bounded ideal comparison."""
    bound = opts.bound
    left, right = ([t for t in (s.strip() for s in arg.split(";")) if t] for arg in args)
    ring = opts.ring(left + right)
    comparison = ideal_equal_bounded(opts.ideal(left, ring), opts.ideal(right, ring), bound)
    offending = comparison.offending
    payload = {"verdict": comparison.kind, "bound": bound,
               "offending": offending}
    if comparison.kind == EQUAL_WITHIN_BOUND:
        return payload, f"equal within bound {bound}\n"
    if comparison.kind == LEFT_NOT_IN_RIGHT:
        return payload, f"not equal: left generator {format_polynomial(offending)} is not in the right ideal\n"
    if comparison.kind == RIGHT_NOT_IN_LEFT:
        return payload, f"not equal: right generator {format_polynomial(offending)} is not in the left ideal\n"
    return payload, f"unknown at bound {bound}\n"


def _chain_demo(opts, args):
    k = _int_arg(args[0], "k", least=0)
    names = opts.names
    if names is None:
        check_chain_size(k, k + 1)  # before building k + 1 default names
        names = tuple(f"x{i}" for i in range(1, k + 2))
    return strict_chain_demo(k, PolyRing(opts.domain, names))


def _zideal(opts, args) -> tuple[dict, str]:
    """The JSON payload and the text of one integer-ideal operation."""
    mode, rest = args[0], args[1:]
    if mode == "gens":
        gens = [_int_arg(a, "generator") for a in rest]
        g = IntIdeal.from_generators(gens).generator
        return {"inputs": gens, "generator": g}, f"({g})\n"
    if mode == "prime":
        _check_arity(rest, 1, 1, "zideal prime expects one integer")
        ideal = IntIdeal(_int_arg(rest[0], "generator"))
        g, prime = ideal.generator, ideal.is_prime()
        payload = {"generator": g, "prime": prime, "factorization": None}
        if prime:
            return payload, "prime (zero ideal)\n" if g == 0 else f"prime: ({g})\n"
        if g == 1:
            return payload, "not prime: (1) is the whole ring, which is excluded\n"
        a = smallest_factor(g)
        payload["factorization"] = [a, g // a]
        return payload, f"not prime: {g} = {a}*{g // a} with {a},{g // a} not in ({g})\n"
    if mode == "contains":
        _check_arity(rest, 2, 2, "zideal contains expects: generator candidate")
        ideal = IntIdeal(_int_arg(rest[0], "generator"))
        z = _int_arg(rest[1], "candidate")
        verdict = ideal.contains(z)
        return ({"generator": ideal.generator, "candidate": z, "contains": verdict},
                "true\n" if verdict else "false\n")
    raise UsageError(f"unknown zideal mode {mode!r}")


def _plot(opts, args):
    f = parse_polynomial(args[0], opts.ring(args, fallback=("x", "y")))
    return raster_plane_curve(f, opts.window, *opts.res)


def _strs(values) -> list[str] | None:
    return None if values is None else [str(v) for v in values]


def _point_lines(points) -> str:
    return "".join(",".join(str(c) for c in pt) + "\n" for pt in points) or "(empty)\n"


def _videal_json(result) -> dict:
    return {"field": result.point_set.p, "vars": list(result.ring.variables),
            "generators": result.generators,
            "field_equations": result.field_equations}


def _videal_text(result) -> str:
    lines = ["generators:"]
    lines += ["  " + format_polynomial(g) for g in result.generators] or ["  (none)"]
    lines.append("field equations:")
    lines += ["  " + format_polynomial(g) for g in result.field_equations]
    return "\n".join(lines) + "\n"


def _prime_check_text(report) -> str:
    if report.prime:
        return "prime\n"
    if report.witnesses:
        f, g = report.witnesses
        return ("not prime\nf = " + format_polynomial(f) + "\ng = "
                + format_polynomial(g) + "\nf*g vanishes on X; neither factor does\n")
    return "not prime (the vanishing ideal is the whole ring)\n"


def _member_text(cert) -> str:
    if cert.verdict == MEMBER:
        return "member\n" + "".join(f"  cofactor {i}: {format_polynomial(h)}\n"
                                    for i, h in enumerate(cert.cofactors, 1))
    if cert.verdict == NON_MEMBER:
        return f"non-member\n  witness: ({', '.join(_strs(cert.witness))})\n"
    return f"unknown (cofactor degree bound {cert.bound} exhausted)\n"


def _hbt_text(result) -> str:
    profile = ", ".join(
        f"deg<={i}: {'full field' if full else '{0}'}"
        for i, full in enumerate(result.leading_profile)
    )
    return (f"extracted generator: {format_polynomial(result.extracted)}\n"
            f"leading-coefficient profile: {profile}\n"
            f"verified equal to the input ideal: {'yes' if result.verified_equal else 'no'}\n")


@dataclass(frozen=True)
class Command:
    """One command: its usage line, arity (least, most or None, message), run and renderers.

    Each render entry turns what run returns into text, or for json into the
    payload that cli.run serializes, polynomials left as they are for
    json_text to write.  Rows call library functions by name when
    they run, so a function rebound on its module (as a tracer does) is called.
    """

    synopsis: str
    summary: str
    arity: tuple[int, int | None, str]
    run: Callable[[Options, list[str]], object]
    render: dict[str, Callable[[object], object]]


_ANY = (0, None, "")
_PAIR = {"json": lambda r: r[0], "text": lambda r: r[1]}  # run returns (payload, text)
_POLY = {"json": lambda f: f, "text": lambda f: format_polynomial(f) + "\n"}

COMMANDS: dict[str, Command] = {
    "parse": Command(
        "EXPR", "canonical form of a polynomial",
        (1, 1, "parse expects exactly one expression"),
        lambda o, a: parse_polynomial(a[0], o.ring(a)), _POLY),
    "variety": Command(
        "EXPR...", "common zero set over F_p (--field fp:P)",
        (1, None, "variety expects one or more generator expressions"),
        _variety,
        {"json": lambda r: {"field": r[1].p, "vars": list(r[0]),
                            "points": [list(pt) for pt in r[1]]},
         "text": lambda r: _point_lines(r[1])}),
    "videal": Command(
        "POINT...", "vanishing ideal of points (--field fp:P)", _ANY,
        lambda o, a: vanishing_ideal(o.points(a), o.names),
        {"json": _videal_json, "text": _videal_text}),
    "viv": Command(
        "EXPR...", "I(V(S)) closure of a generator set",
        (1, None, "viv expects one or more generator expressions"),
        lambda o, a: viv_closure(o.fp_ideal(a)),
        {"json": lambda r: {**_videal_json(r), "points": [list(pt) for pt in r.point_set]},
         "text": lambda r: "points:\n" + _point_lines(r.point_set) + _videal_text(r)}),
    "decompose": Command(
        "POINT...", "irreducible components of a point set", _ANY,
        lambda o, a: (o.p, decompose(o.points(a))),
        {"json": lambda r: {"field": r[0], "components": [[list(pt) for pt in c] for c in r[1]]},
         "text": lambda r: "".join(str(c) + "\n" for c in r[1]) or "(empty)\n"}),
    "prime-check": Command(
        "POINT...", "is the vanishing ideal prime?", _ANY,
        lambda o, a: is_prime_vanishing_ideal(o.points(a), o.names),
        {"json": lambda r: {"prime": r.prime, "witnesses":
                            dict(zip("fg", r.witnesses)) if r.witnesses else None},
         "text": _prime_check_text}),
    "member": Command(
        "EXPR GEN... --bound D", "bounded ideal-membership certificate",
        (1, None, "member expects: f followed by zero or more generators"), _member,
        {"json": lambda c: {"verdict": c.verdict, "bound": c.bound,
                            "cofactors": c.cofactors,
                            "witness": _strs(c.witness)},
         "text": _member_text}),
    "ideal-eq": Command(
        "GENS GENS --bound D", "compare ideals (generators ';'-separated)",
        (2, 2, "ideal-eq expects two ';'-separated generator lists"), _ideal_eq,
        _PAIR),
    "radical": Command(
        "EXPR", "squarefree part of a univariate polynomial",
        (1, 1, "radical expects exactly one expression"),
        lambda o, a: radical_univariate(parse_polynomial(a[0], o.ring(a))), _POLY),
    "chain-demo": Command(
        "K", "certify K strict steps of (x1) < (x1,x2) < ...",
        (1, 1, "chain-demo expects the number of steps k"), _chain_demo,
        {"json": lambda steps: {"steps": [
            {"ideal": list(s.ideal_vars), "new_variable": s.new_variable,
             "witness": _strs(s.certificate.witness)} for s in steps]},
         "text": lambda steps: "".join(
             f"step {s.step}: {s.new_variable} not in ({', '.join(s.ideal_vars)}); "
             f"witness ({', '.join(_strs(s.certificate.witness))})\n"
             for s in steps) or "no steps requested; the chain is vacuously strict\n"}),
    "hbt": Command(
        "GEN...", "collapse a univariate F_p ideal to one generator",
        (1, None, "hbt expects one or more generator expressions"),
        lambda o, a: hbt_extract_univariate(o.ideal(a)),
        {"json": lambda r: {"extracted": r.extracted,
                            "leading_profile": list(r.leading_profile),
                            "verified_equal": r.verified_equal},
         "text": _hbt_text}),
    "zideal": Command(
        "gens|prime|contains N...", "integer-ideal operations",
        (1, None, "zideal expects a mode: gens, prime, or contains"), _zideal,
        _PAIR),
    "ideals-mod": Command(
        "N", "all ideals of Z/N",
        (1, 1, "ideals-mod expects one modulus"),
        lambda o, a: enumerate_ideals_mod_n(_int_arg(a[0], "modulus")),
        {"json": lambda ideals: {"modulus": ideals[0].modulus, "count": len(ideals), "ideals": [
            {"generator": min((e for e in ideal.elements if e), default=0),
             "elements": list(ideal.elements)} for ideal in ideals]},
         "text": lambda ideals: "".join(str(ideal) + "\n" for ideal in ideals)}),
    "plot": Command(
        "EXPR", "rasterize a plane curve (--window, --res)",
        (1, 1, "plot expects exactly one expression"), _plot,
        {"json": lambda grid: {"window": [str(v) for v in grid.window],
                               "res": [grid.cols, grid.rows],
                               "rows": ascii_rows(grid)},
         "text": lambda grid: render_ascii(grid), "svg": lambda grid: render_svg(grid)}),
}


_JSON_WORDS = {True: "true", False: "false", None: "null"}


def json_text(obj, indent: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2) for str-keyed dicts, lists, str, int,
    bool and None, without its pure-Python encoder: strings go through the C
    escaper and ints through int.__repr__, which raises ValueError past Python's
    digit limit as json.dumps does.  A Polynomial is written as its poly_to_json
    form."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _JSON_WORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, Polynomial):
        return _poly_text(obj, indent)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(obj)  # a float, or a TypeError for what JSON cannot hold


def _poly_text(f: Polynomial, indent: str) -> str:
    """json_text(poly_to_json(f), indent), written from f's terms in lex-descending
    order, one template per term.  Variable names, domain tags, exponents and
    coefficients (ints, or fractions a/b) hold no character that needs escaping;
    str of a coefficient past the digit limit raises ValueError."""
    empty, head, term, comma, close = _poly_templates(f.ring, indent)
    if not f.terms:
        return empty
    return head + comma.join([term % (*exps, c)
                              for exps, c in sorted(f.terms.items(), reverse=True)]) + close


@lru_cache(maxsize=64)
def _poly_templates(ring: PolyRing, indent: str) -> tuple[str, str, str, str, str]:
    """The pieces of _poly_text for ring at indent: the zero polynomial's text, the
    text before the first term, a term's template (a %d per exponent and a %s for
    the coefficient), the text between terms and the text after the last."""
    i1 = indent + "  "
    i2, i3, i4 = i1 + "  ", i1 + "    ", i1 + "      "
    head = ("{" + i1 + '"vars": [' + i2 + ('",' + i2 + '"').join(ring.variables).join('""')
            + i1 + "]," + i1 + '"domain": "' + domain_tag(ring.domain) + '",' + i1 + '"terms": ')
    term = ("{" + i3 + '"exps": [' + i4 + ("," + i4).join(["%d"] * ring.nvars) + i3 + "],"
            + i3 + '"coeff": "%s"' + i2 + "}")
    return head + "[]" + indent + "}", head + "[" + i2, term, "," + i2, i1 + "]" + indent + "}"


USAGE = (
    "usage: ringlab <command> [flags] [args...]\n\ncommands:\n"
    + "".join(f"  {name + ' ' + c.synopsis:<31} {c.summary}\n" for name, c in COMMANDS.items())
    + """
flags: --format json|text (plot also svg), --vars x,y, --field q|z|fp:P|zn:N,
       --bound D, --window x0:x1,y0:y1, --res N or CxR
points are comma-separated residues, e.g. "0,1"
""")


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        if not argv or argv[0] in ("-h", "--help", "help"):
            stdout.write(USAGE)
            return 0
        command = COMMANDS.get(argv[0])
        if command is None:
            raise UsageError(f"unknown command {argv[0]!r}")
        flags, args = split_argv(argv[1:])
        fmt = flags.get("format", "text")
        if fmt not in command.render:
            raise UsageError(f"--format must be one of {', '.join(command.render)}")
        _check_arity(args, *command.arity)
        result = command.run(Options(flags), args)
        try:
            output = command.render[fmt](result)
            if fmt == "json":
                output = json_text(output) + "\n"
        except ValueError:  # str() of an int past Python's digit limit, in a sum or product
            raise TooLarge(f"the answer holds a number of more than {DIGIT_LIMIT} digits") from None
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
