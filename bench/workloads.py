"""Seeded command lists for the three workloads, each command with its answer check.

Every workload is a fixed multiset of command slots (kind, field, size);
the seed picks the polynomials, points, windows, formats and the order.
Keeping the slots fixed keeps a run's total work nearly the same from
seed to seed, so the spread between runs measures ringlab and not the
draw.  Each command carries the exit code it must return and a check of
its stdout written with the independent arithmetic in ``polyalg``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import polyalg as pa

XYZ = ("x", "y", "z")
XY = ("x", "y")


class CheckError(Exception):
    """A command's stdout disagrees with the independently computed answer."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Cmd:
    kind: str
    argv: list[str]
    check: Callable[[str], None]
    rc: int = 0


def build(workload: str, seed: int, golden: str) -> list[Cmd]:
    rng = random.Random(f"{workload}:{seed}")
    builders = {"fp-scan": _fp_scan, "certify": _certify, "plot": _plot}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    cmds = builders[workload](rng, golden)
    rng.shuffle(cmds)
    return cmds


# -- random inputs ------------------------------------------------------------


def _monomials(nvars: int, deg: int) -> list[tuple[int, ...]]:
    return [e for e in product(range(deg + 1), repeat=nvars) if sum(e) <= deg]


def _rand_poly(rng, nvars: int, deg: int, nterms: int, p: int | None,
               span: int = 3) -> dict:
    """nterms distinct monomials of degree <= deg, one of degree exactly deg."""
    monos = _monomials(nvars, deg)
    top = [e for e in monos if sum(e) == deg]
    chosen = {rng.choice(top)}
    while len(chosen) < min(nterms, len(monos)):
        chosen.add(rng.choice(monos))
    if p:
        return {e: rng.randrange(1, p) for e in chosen}
    return {e: rng.choice([c for c in range(-span, span + 1) if c]) for e in chosen}


def _shift_to_vanish(poly: dict, point, p: int | None) -> dict:
    """poly - poly(point): a polynomial that vanishes at the point."""
    const = (0,) * len(point)
    out = dict(poly)
    out[const] = out.get(const, 0) - pa.evaluate(poly, point, p)
    return pa.norm(out, p)


def _field(p: int | None) -> list[str]:
    return ["--field", f"fp:{p}"] if p else []


def _fmt(i: int) -> str:
    """Formats alternate by slot index, so each seed has the same format mix."""
    return ("json", "text")[i % 2]


def _points_text(points) -> list[str]:
    return [",".join(map(str, pt)) for pt in points]


def _distinct_points(rng, p: int, dim: int, k: int) -> list[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    while len(pts) < k:
        pts.add(tuple(rng.randrange(p) for _ in range(dim)))
    return sorted(pts)


def _zero_set(gens, p: int, dim: int) -> list[tuple[int, ...]]:
    return [pt for pt in product(range(p), repeat=dim)
            if all(pa.evaluate(g, pt, p) == 0 for g in gens)]


def _parse_points(lines: list[str]) -> list[tuple[int, ...]]:
    if lines == ["(empty)"]:
        return []
    return [tuple(int(c) for c in ln.split(",")) for ln in lines]


# -- checks shared by the point commands ---------------------------------------


def _check_vanishing(gens: list[dict], field_eqs: list[dict], points, p: int,
                     names) -> None:
    """Generators of I(X) in reduced form: right count, all vanish on X."""
    n = len(names)
    expect(len(gens) == p ** n - len(points),
           f"{len(gens)} generators, expected {p ** n - len(points)}")
    for g in gens:
        expect(all(e < p for m in g for e in m), "generator is not reduced")
        for pt in points:
            expect(pa.evaluate(g, pt, p) == 0, f"generator does not vanish at {pt}")
    want = []
    for i in range(n):
        xp = [0] * n
        xp[i] = p
        x1 = [0] * n
        x1[i] = 1
        want.append({tuple(xp): 1, tuple(x1): p - 1})
    expect(field_eqs == want, "field equations differ from x_i^p - x_i")


def _read_ideal_text(lines: list[str], names, p: int):
    """Split the 'generators:' / 'field equations:' text blocks."""
    expect(lines[0] == "generators:", "missing generators block")
    split = lines.index("field equations:")
    gen_lines = [ln.strip() for ln in lines[1:split]]
    if gen_lines == ["(none)"]:
        gen_lines = []
    gens = [pa.parse_poly(t, names, p) for t in gen_lines]
    eqs = [pa.parse_poly(ln.strip(), names, p) for ln in lines[split + 1:]]
    return gens, eqs


def _read_ideal_json(obj, p: int):
    gens = [pa.poly_from_json(g, p) for g in obj["generators"]]
    eqs = [pa.poly_from_json(g, p) for g in obj["field_equations"]]
    return gens, eqs


# -- fp-scan ---------------------------------------------------------------------


def _fp_scan(rng, golden: str) -> list[Cmd]:
    cmds = []
    # variety over F_p^3 (scan p^3 points) and F_p^2; slot = (p, dim, count).
    # The twelve F_17^3 scans cost the same on every seed and hold cmd_p90_ms;
    # the thirty F_29^2 scans do the same for cmd_p50_ms.
    for p, dim, count in ((31, 3, 1), (23, 3, 1), (17, 3, 12), (11, 3, 4),
                          (17, 2, 2), (19, 2, 2), (23, 2, 2), (29, 2, 30), (31, 2, 2)):
        for i in range(count):
            cmds.append(_variety_cmd(rng, p, dim, two_gens=(i % 4 >= 2), fmt=_fmt(i)))
    # videal of seeded point sets; slot = (p, dim, points, count)
    for p, dim, k, count in ((5, 3, 6, 15), (7, 2, 8, 15), (11, 2, 10, 15), (7, 3, 20, 2)):
        for i in range(count):
            cmds.append(_videal_cmd(rng, p, dim, k, _fmt(i)))
    for i in range(12):
        cmds.append(_prime_check_cmd(rng, (7, 11)[i % 2], 2, 1 + i % 4, _fmt(i // 2)))
    for i in range(12):
        cmds.append(_decompose_cmd(rng, rng.choice((5, 7, 11)), rng.choice((2, 3)),
                                   rng.randrange(2, 9), _fmt(i)))
    return cmds


def _variety_cmd(rng, p: int, dim: int, two_gens: bool, fmt: str) -> Cmd:
    names = XYZ[:dim]
    if dim == 3:  # a diagonal quadric a x^2 + b y^2 + c z^2 + d
        gens = [{(2, 0, 0): rng.randrange(1, p), (0, 2, 0): rng.randrange(1, p),
                 (0, 0, 2): rng.randrange(1, p), (0, 0, 0): rng.randrange(1, p)}]
    else:  # a Weierstrass cubic y^2 = x^3 + a x + b
        gens = [{(0, 2): 1, (3, 0): p - 1, (1, 0): rng.randrange(p), (0, 0): rng.randrange(1, p)}]
    if two_gens:
        lin = {tuple(int(i == j) for j in range(dim)): rng.randrange(1, p) for i in range(dim)}
        lin[(0,) * dim] = rng.randrange(p)
        gens.append(lin)
    gens = [pa.norm(g, p) for g in gens]
    argv = ["variety", "--field", f"fp:{p}", "--vars", ",".join(names), "--format", fmt]
    argv += [pa.format_poly(g, names) for g in gens]

    def check(out: str) -> None:
        want = _zero_set(gens, p, dim)
        if fmt == "json":
            obj = json.loads(out)
            got = [tuple(pt) for pt in obj["points"]]
            expect(obj["field"] == p and obj["vars"] == list(names), "bad header")
        else:
            got = _parse_points(out.splitlines())
        expect(got == want, f"variety has {len(got)} points, brute force finds {len(want)}")

    return Cmd("variety", argv, check)


def _videal_cmd(rng, p: int, dim: int, k: int, fmt: str) -> Cmd:
    names = XYZ[:dim]
    points = _distinct_points(rng, p, dim, k)
    argv = ["videal", "--field", f"fp:{p}", "--format", fmt] + _points_text(points)

    def check(out: str) -> None:
        if fmt == "json":
            gens, eqs = _read_ideal_json(json.loads(out), p)
        else:
            gens, eqs = _read_ideal_text(out.splitlines(), names, p)
        _check_vanishing(gens, eqs, points, p, names)

    return Cmd("videal", argv, check)


def _prime_check_cmd(rng, p: int, dim: int, k: int, fmt: str) -> Cmd:
    names = XYZ[:dim]
    points = _distinct_points(rng, p, dim, k)
    argv = ["prime-check", "--field", f"fp:{p}", "--format", fmt] + _points_text(points)

    def check(out: str) -> None:
        if fmt == "json":
            obj = json.loads(out)
            prime = obj["prime"]
            pair = None
            if obj["witnesses"]:
                pair = [pa.poly_from_json(obj["witnesses"][w], p) for w in "fg"]
        else:
            lines = out.splitlines()
            prime = lines[0] == "prime"
            pair = None
            if not prime:
                expect(lines[1].startswith("f = ") and lines[2].startswith("g = "),
                       "missing witness pair")
                pair = [pa.parse_poly(ln[4:], names, p) for ln in lines[1:3]]
        expect(prime == (k == 1), f"prime={prime} for {k} points")
        if k > 1:
            f, g = pair
            fg = pa.mul(f, g, p)
            expect(all(pa.evaluate(fg, pt, p) == 0 for pt in points), "f*g does not vanish on X")
            for h in (f, g):
                expect(any(pa.evaluate(h, pt, p) for pt in points), "a factor vanishes on X")

    return Cmd("prime-check", argv, check)


def _decompose_cmd(rng, p: int, dim: int, k: int, fmt: str) -> Cmd:
    points = _distinct_points(rng, p, dim, k)
    argv = ["decompose", "--field", f"fp:{p}", "--format", fmt] + _points_text(points)

    def check(out: str) -> None:
        if fmt == "json":
            want = {"field": p, "components": [[list(pt)] for pt in points]}
            expect(json.loads(out) == want, "components differ")
        else:
            want = "".join("{(" + ", ".join(map(str, pt)) + ")}\n" for pt in points)
            expect(out == want, "components differ")

    return Cmd("decompose", argv, check)


# -- certify ---------------------------------------------------------------------


def _certify(rng, golden: str) -> list[Cmd]:
    cmds = []
    # membership in 3 variables: (field, bound, verdict, count)
    for p, bound, verdict, count in (
            (None, 2, "member", 4), (None, 3, "member", 3), (None, 4, "member", 2),
            (None, 5, "member", 5),
            (7, 2, "member", 3), (11, 3, "member", 3), (13, 4, "member", 2), (31, 5, "member", 2),
            (None, 2, "non_member", 3), (None, 3, "non_member", 2),
            (7, 2, "non_member", 3), (11, 3, "non_member", 2),
            (None, 2, "unknown", 2), (None, 3, "unknown", 2),
            (7, 2, "unknown", 2), (11, 3, "unknown", 2)):
        for _ in range(count):
            cmds.append(_member_cmd(rng, p, bound, verdict))
    # inputs that must fail cleanly: syntax (1), domain (2), resource limit (3)
    for _ in range(3):
        cmds += [_syntax_error_cmd(rng), _field_z_cmd(rng), _scan_limit_cmd(rng)]
    for i in range(6):
        cmds.append(_ideal_eq_cmd(rng, 2, equal=(i < 3)))
    for i in range(6):
        cmds.append(_hbt_cmd(rng, (7, 11, 13)[i % 3]))
    for i in range(6):
        cmds.append(_radical_cmd(rng, None if i < 4 else (11, 13)[i % 2], _fmt(i)))
    # viv's cost swings with the curve, so its cubics and F_5 conics are fixed
    for i in range(3):
        cmds.append(_viv_cmd(3, _seeded_conic(rng, 3), _fmt(i)))
    for i, curve in enumerate(VIV_CURVES):
        cmds.append(_viv_cmd(*curve, _fmt(i)))
    for digits in (10, 11, 12):
        cmds.append(_zprime_cmd(_band(rng, 10 ** (digits - 1))))
    # cmd_p90_ms falls on a plateau of three kinds of about equal cost: the
    # five bound-5 members over Q above (solve_rational), five viv on F_3
    # quartics (solve_mod_p) and five 13-digit trial divisions (is_prime).
    # Twelve commands lie above the p90 rank, so if any one kind gets much
    # faster the rank drops below the plateau.
    for i, curve in enumerate(VIV_PLATEAU):
        cmds.append(_viv_cmd(3, curve, _fmt(i)))
        cmds.append(_zprime_cmd(_band(rng, 5 * 10 ** 12)))
    for small in (3, 4, 5, 5):
        cmds.append(_zcomposite_cmd(rng, small))
    for _ in range(3):
        cmds.append(_zgens_cmd(rng))
        cmds.append(_zcontains_cmd(rng))
    for _ in range(4):
        cmds.append(_ideals_mod_cmd(rng))
    # two dozen expansions of a sixth power cost the same on every seed and
    # hold cmd_p50_ms
    for i in range(24):
        cmds.append(_parse_cmd(rng, 6, _fmt(i)))
    return cmds


def _member_argv(p, bound: int, f: dict, gens: list[dict], fmt: str = "json") -> list[str]:
    return (["member", "--vars", "x,y,z", "--bound", str(bound), "--format", fmt]
            + _field(p) + [pa.format_poly(h, XYZ) for h in [f] + gens])


def _rand_point(rng, p):
    if p:
        return (0, rng.randrange(p), rng.randrange(p))
    # first coordinate at the grid's start keeps the witness scan short
    return (Fraction(-5), Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6)))


def _member_cmd(rng, p, bound: int, verdict: str) -> Cmd:
    if verdict == "member":
        # f = sum h_i g_i with deg h_i <= bound, so a certificate exists
        gens = [_rand_poly(rng, 3, deg, 3, p) for deg in (2, 1)]
        f = {}
        while not f:
            for g in gens:
                f = pa.add(f, pa.mul(_rand_poly(rng, 3, bound, 2, p), g, p), p)
    elif verdict == "non_member":
        # generators vanish at a grid point where f does not
        pt = _rand_point(rng, p)
        gens = [_shift_to_vanish(_rand_poly(rng, 3, deg, 3, p), pt, p) for deg in (2, 1)]
        f = {}
        while not f or pa.evaluate(f, pt, p) == 0:
            f = _rand_poly(rng, 3, 2, 3, p)
    else:
        # f = h g with deg h = bound + 1: in (g), but no cofactor fits the bound
        # and every zero of g is a zero of f, so no witness exists either
        g = _rand_poly(rng, 3, 2, 3, p)
        f = pa.mul(_rand_poly(rng, 3, bound + 1, 2, p), g, p)
        gens = [g]
    f, gens = pa.norm(f, p), [pa.norm(g, p) for g in gens]
    argv = _member_argv(p, bound, f, gens)

    def check(out: str) -> None:
        obj = json.loads(out)
        expect(obj["verdict"] == verdict, f"verdict {obj['verdict']}, built as {verdict}")
        expect(obj["bound"] == bound, "bound not echoed")
        if verdict == "member":
            hs = [pa.poly_from_json(h, p) for h in obj["cofactors"]]
            expect(len(hs) == len(gens), "cofactor count differs from generator count")
            expect(all(pa.total_degree(h) <= bound for h in hs), "cofactor exceeds the bound")
            total = {}
            for h, g in zip(hs, gens):
                total = pa.add(total, pa.mul(h, g, p), p)
            expect(total == f, "sum of cofactor * generator is not f")
        elif verdict == "non_member":
            w = [int(c) if p else Fraction(c) for c in obj["witness"]]
            expect(all(pa.evaluate(g, w, p) == 0 for g in gens), "a generator is nonzero at the witness")
            expect(pa.evaluate(f, w, p) != 0, "f vanishes at the witness")

    return Cmd(f"member-{verdict}", argv, check)


def _empty_stdout(out: str) -> None:
    expect(out == "", "failing command wrote to stdout")


def _syntax_error_cmd(rng) -> Cmd:
    f = pa.format_poly(_rand_poly(rng, 3, 2, 3, None), XYZ)
    bad = rng.choice((f + " +* x", "(" + f, f + " ^^2"))
    argv = ["member", "--vars", "x,y,z", "--bound", "2", "--format", "json", bad, "x*y - z"]
    return Cmd("exit-1", argv, _empty_stdout, rc=1)


def _field_z_cmd(rng) -> Cmd:
    f, g = (_rand_poly(rng, 3, 2, 3, None) for _ in range(2))
    argv = _member_argv(None, 2, f, [g]) + ["--field", "z"]
    return Cmd("exit-2", argv, _empty_stdout, rc=2)


def _scan_limit_cmd(rng) -> Cmd:
    # a non-member over F_32003: the solve fails and 32003^3 points exceed the scan limit
    p = 32003
    pt = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
    gens = [_shift_to_vanish(_rand_poly(rng, 3, 1, 3, p), pt, p) for _ in range(2)]
    f = {(0, 0, 0): 1}
    return Cmd("exit-3", _member_argv(p, 2, f, gens), _empty_stdout, rc=3)


def _ideal_eq_cmd(rng, bound: int, equal: bool) -> Cmd:
    if equal:
        left = [_rand_poly(rng, 3, deg, 3, None) for deg in (2, 1)]
        extra = {}
        while not extra:
            for g in left:
                extra = pa.add(extra, pa.mul(_rand_poly(rng, 3, bound, 2, None), g, None), None)
        kind, offending = "equal_within_bound", None
    else:
        pt = _rand_point(rng, None)
        left = [_shift_to_vanish(_rand_poly(rng, 3, deg, 3, None), pt, None) for deg in (2, 1)]
        extra = {}
        while not extra or pa.evaluate(extra, pt, None) == 0:
            extra = _rand_poly(rng, 3, 2, 3, None)
        kind, offending = "right_not_in_left", pa.norm(extra, None)
    right = left + [extra]
    argv = ["ideal-eq", "--vars", "x,y,z", "--bound", str(bound), "--format", "json",
            "; ".join(pa.format_poly(g, XYZ) for g in left),
            "; ".join(pa.format_poly(g, XYZ) for g in right)]

    def check(out: str) -> None:
        obj = json.loads(out)
        expect(obj["verdict"] == kind, f"verdict {obj['verdict']}, built as {kind}")
        got = pa.poly_from_json(obj["offending"], None) if obj["offending"] else None
        expect(got == offending, "offending generator differs")

    return Cmd("ideal-eq", argv, check)


def _hbt_cmd(rng, p: int) -> Cmd:
    g = _rand_poly(rng, 1, rng.randrange(1, 4), 3, p)
    gens = [pa.mul(g, _rand_poly(rng, 1, rng.randrange(1, 5), 3, p), p) for _ in range(rng.choice((2, 3)))]
    want = pa.dense(gens[0], p)
    for h in gens[1:]:
        want = pa.gcd_mod_p(want, pa.dense(h, p), p)
    max_deg = max(pa.total_degree(h) for h in gens)
    argv = ["hbt", "--vars", "x", "--field", f"fp:{p}", "--format", "json"]
    argv += [pa.format_poly(h, ("x",)) for h in gens]

    def check(out: str) -> None:
        obj = json.loads(out)
        expect(pa.poly_from_json(obj["extracted"], p) == pa.sparse(want), "extracted generator is not the gcd")
        profile = [i >= len(want) - 1 for i in range(max_deg + 1)]
        expect(obj["leading_profile"] == profile, "leading-coefficient profile differs")
        expect(obj["verified_equal"] is True, "extraction not verified equal")

    return Cmd("hbt", argv, check)


def _radical_cmd(rng, p, fmt: str) -> Cmd:
    roots = rng.sample(range(-6, 7) if not p else range(p), rng.randrange(2, 5))
    f = {(0,): rng.randrange(1, p) if p else rng.choice((1, 2, 3))}
    want = {(0,): 1}
    for r in roots:
        lin = pa.norm({(1,): 1, (0,): -r}, p)
        f = pa.mul(f, pa.power(lin, rng.randrange(1, 4), 1, p), p)
        want = pa.mul(want, lin, p)
    argv = ["radical", "--vars", "x", "--format", fmt] + _field(p) + [pa.format_poly(f, ("x",))]

    def check(out: str) -> None:
        got = (pa.poly_from_json(json.loads(out), p) if fmt == "json"
               else pa.parse_poly(out, ("x",), p))
        expect(got == want, "radical differs from the product of distinct roots")

    return Cmd("radical", argv, check)


# (p, curve) pairs: Weierstrass cubics over F_3 and conics over F_5
VIV_CURVES = [
    (3, {(0, 2): 1, (3, 0): 2, (1, 0): 2, (0, 0): 2}),
    (3, {(0, 2): 1, (3, 0): 2, (1, 0): 1}),
    (3, {(0, 2): 1, (3, 0): 2, (0, 0): 2}),
    (5, {(2, 0): 1, (0, 2): 3, (0, 0): 3}),
    (5, {(2, 0): 1, (0, 2): 1, (0, 0): 4}),
]

# quartics over F_3 whose viv costs about what a bound-5 member over Q costs
VIV_PLATEAU = [
    {(3, 1): 1, (0, 0): 1},
    {(3, 1): 1, (0, 0): 2},
    {(4, 0): 1, (0, 3): 1, (0, 0): 1},
    {(4, 0): 1, (0, 3): 2, (0, 0): 1},
    {(3, 0): 1, (0, 3): 1, (0, 0): 2},
]


def _seeded_conic(rng, p: int) -> dict:
    """x^2 + a y^2 - c through a seeded point, so V(S) is never empty."""
    x0, y0 = rng.randrange(p), rng.randrange(p)
    return _shift_to_vanish({(2, 0): 1, (0, 2): rng.randrange(1, p)}, (x0, y0), p)


def _viv_cmd(p: int, curve: dict, fmt: str) -> Cmd:
    argv = ["viv", "--vars", "x,y", "--field", f"fp:{p}", "--format", fmt,
            pa.format_poly(curve, XY)]

    def check(out: str) -> None:
        want = _zero_set([curve], p, 2)
        if fmt == "json":
            obj = json.loads(out)
            points = [tuple(pt) for pt in obj["points"]]
            gens, eqs = _read_ideal_json(obj, p)
        else:
            lines = out.splitlines()
            split = lines.index("generators:")
            points = _parse_points(lines[1:split])
            gens, eqs = _read_ideal_text(lines[split:], XY, p)
        expect(points == want, "V(S) differs from the brute-force zero set")
        _check_vanishing(gens, eqs, points, p, XY)

    return Cmd("viv", argv, check)


def _band(rng, lo: int) -> int:
    return rng.randrange(lo, lo + lo // 40)


def _zprime_cmd(start: int) -> Cmd:
    n = pa.next_prime(start)
    want = f"prime: ({n})\n"
    return Cmd("zideal-prime", ["zideal", "prime", str(n)],
               lambda out: expect(out == want, f"{n} is prime"))


def _zcomposite_cmd(rng, small_digits: int) -> Cmd:
    a = pa.next_prime(_band(rng, 10 ** (small_digits - 1)))
    b = pa.next_prime(_band(rng, 10 ** (11 - small_digits)))
    n = a * b
    want = f"not prime: {n} = {a}*{b} with {a},{b} not in ({n})\n"
    return Cmd("zideal-prime", ["zideal", "prime", str(n)],
               lambda out: expect(out == want, f"{n} = {a}*{b}"))


def _zgens_cmd(rng) -> Cmd:
    d = rng.randrange(2, 50)
    gens = [d * rng.randrange(-500, 500) for _ in range(rng.randrange(2, 5))]
    want = f"({pa.common_gcd(gens)})\n"
    return Cmd("zideal-gens", ["zideal", "gens", "--"] + [str(g) for g in gens],
               lambda out: expect(out == want, "generator is not the gcd"))


def _zcontains_cmd(rng) -> Cmd:
    g, z = rng.randrange(2, 1000), rng.randrange(-10 ** 6, 10 ** 6)
    want = "true\n" if z % g == 0 else "false\n"
    return Cmd("zideal-contains", ["zideal", "contains", "--", str(g), str(z)],
               lambda out: expect(out == want, "divisibility answer differs"))


def _ideals_mod_cmd(rng) -> Cmd:
    n = rng.randrange(100, 600)
    want = "".join("{" + ", ".join(map(str, range(0, n, d))) + "}\n" for d in pa.divisors(n))
    return Cmd("ideals-mod", ["ideals-mod", str(n)],
               lambda out: expect(out == want, f"ideals of Z/{n} differ"))


def _parse_cmd(rng, k: int, fmt: str) -> Cmd:
    base = _rand_poly(rng, 3, 1, 4, None)
    want = pa.power(base, k, 3, None)
    argv = ["parse", "--vars", "x,y,z", "--format", fmt,
            f"({pa.format_poly(base, XYZ)})^{k}"]

    def check(out: str) -> None:
        got = (pa.poly_from_json(json.loads(out), None) if fmt == "json"
               else pa.parse_poly(out, XYZ, None))
        expect(got == want, "expansion differs")

    return Cmd("parse", argv, check)


# -- plot ------------------------------------------------------------------------

CURVES = {
    "nodal": ({(0, 2): 1, (3, 0): -1, (2, 0): -1}, "y^2 - x^2*(x+1)"),
    "circle": ({(2, 0): 1, (0, 2): 1, (0, 0): -1}, "x^2 + y^2 - 1"),
    "lemniscate": ({(4, 0): 1, (2, 2): 2, (0, 4): 1, (2, 0): -2, (0, 2): 2},
                   "(x^2+y^2)^2 - 2*(x^2-y^2)"),
    "folium": ({(3, 0): 1, (0, 3): 1, (1, 1): -3}, "x^3 + y^3 - 3*x*y"),
    "elliptic-a": ({(0, 2): 1, (3, 0): -1, (1, 0): 1}, "y^2 - x^3 + x"),
    "elliptic-b": ({(0, 2): 1, (3, 0): -1, (1, 0): 1, (0, 0): -1}, "y^2 - (x^3 - x + 1)"),
}


def _plot(rng, golden: str) -> list[Cmd]:
    cmds = [_plot_cmd(rng, "nodal", 256, "text")]
    names = list(CURVES)
    for res, per_curve in ((64, 1), (48, 2), (32, 14)):
        for name in names:
            for i in range(per_curve):
                cmds.append(_plot_cmd(rng, name, res, ("text", "json", "svg")[i % 3]))
    cmds.append(Cmd("plot-golden", ["plot", "--window", "-2:2,-2:2", "--res", "64",
                                    "y^2 - x^2*(x+1)"],
                    lambda out: expect(out == golden, "differs from the nodal cubic golden file")))
    return cmds


def _endpoint(rng, base: int) -> Fraction:
    q = rng.choice((1, 2, 3, 4, 5, 7))
    return Fraction(base) + Fraction(rng.randrange(-q // 2, q // 2 + 1), q)


def _plot_cmd(rng, curve: str, res: int, fmt: str) -> Cmd:
    poly, text = CURVES[curve]
    window = (_endpoint(rng, -2), _endpoint(rng, 2), _endpoint(rng, -2), _endpoint(rng, 2))
    wtext = f"{window[0]}:{window[1]},{window[2]}:{window[3]}"
    argv = ["plot", "--window", wtext, "--res", str(res), "--format", fmt, text]

    def check(out: str) -> None:
        want = pa.raster_cells(poly, window, res, res)
        if fmt == "json":
            obj = json.loads(out)
            expect(obj["window"] == [str(v) for v in window], "window not echoed")
            expect(obj["res"] == [res, res], "resolution not echoed")
            expect(obj["rows"] == want, "marked cells differ")
        elif fmt == "svg":
            cells = [f'<rect x="{c}" y="{r}" width="1" height="1" fill="black"/>'
                     for r, row in enumerate(want) for c, ch in enumerate(row) if ch == "#"]
            lines = out.splitlines()
            expect(lines[0].endswith(f'viewBox="0 0 {res} {res}">'), "bad svg header")
            expect(lines[2:-1] == cells, "marked cells differ")
        else:
            expect(out == "\n".join(want) + "\n", "marked cells differ")

    return Cmd(f"plot-{res}", argv, check)
