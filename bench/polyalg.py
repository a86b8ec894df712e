"""Plain sparse-dict polynomial arithmetic used to generate and check answers.

Nothing here imports ringlab: the benchmark builds its inputs and re-checks
ringlab's outputs with this independent code.  A polynomial is a dict from
exponent tuples to coefficients, ints reduced mod p over F_p or Fractions
over Q; zero coefficients are never stored.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Poly = dict  # dict[tuple[int, ...], int | Fraction]


def norm(poly: Poly, p: int | None) -> Poly:
    """Drop zero terms and reduce coefficients mod p (or make them Fractions)."""
    out = {}
    for e, c in poly.items():
        c = c % p if p else Fraction(c)
        if c:
            out[e] = c
    return out


def add(a: Poly, b: Poly, p: int | None) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return norm(out, p)


def mul(a: Poly, b: Poly, p: int | None) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return norm(out, p)


def power(a: Poly, k: int, nvars: int, p: int | None) -> Poly:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mul(out, a, p)
    return out


def total_degree(poly: Poly) -> int:
    return max((sum(e) for e in poly), default=0)


def evaluate(poly: Poly, point, p: int | None):
    """Exact value at a point: raw ints mod p, or Fractions over Q."""
    total = 0
    for e, c in poly.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= pow(x, k, p) if p else x ** k
        total += term
    return total % p if p else total


def format_poly(poly: Poly, names) -> str:
    """Render as a ringlab expression: '3*x^2*y - 1/2*z + 4'."""
    if not poly:
        return "0"
    pieces = []
    for e in sorted(poly, reverse=True):
        c = Fraction(poly[e])
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not pieces:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


_SPLIT = re.compile(r" ([+-]) ")


def parse_poly(text: str, names, p: int | None) -> Poly:
    """Read ringlab's canonical text form back into a sparse dict."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _SPLIT.split(text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    index = {n: i for i, n in enumerate(names)}
    out: Poly = {}
    for s, term in zip(signs, pieces[0::2]):
        coeff = Fraction(s)
        exps = [0] * len(names)
        for fac in term.split("*"):
            if fac[0].isdigit():
                coeff *= Fraction(fac)
            else:
                name, _, k = fac.partition("^")
                exps[index[name]] += int(k) if k else 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + coeff
    if p:
        out = {e: int(c) for e, c in out.items()}
    return norm(out, p)


def poly_from_json(obj: dict, p: int | None) -> Poly:
    """Read ringlab's JSON polynomial form: {'terms': [{'exps', 'coeff'}]}."""
    out = {}
    for t in obj["terms"]:
        c = Fraction(t["coeff"])
        out[tuple(t["exps"])] = int(c) if p else c
    return norm(out, p)


# -- univariate helpers over F_p (dense coefficient lists, lowest first) ------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def dense(poly: Poly, p: int) -> list[int]:
    deg = total_degree(poly)
    out = [0] * (deg + 1)
    for (k,), c in poly.items():
        out[k] = c % p
    return _trim(out)


def sparse(coeffs: list[int]) -> Poly:
    return {(k,): c for k, c in enumerate(coeffs) if c}


def gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two univariate polynomials over F_p."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            _trim(a)
            if not a:
                break
        a, b = b, a
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# -- integers ------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases are proven for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- sign rasterization on integers --------------------------------------------


def raster_cells(poly: Poly, window, cols: int, rows: int) -> list[str]:
    """Rows of '#'/'.' marking cells whose four corner signs are not all equal.

    Corner (i, j) is (xmin + j*dx, ymax - i*dy).  With x = X/D and y = Y/D
    over a common denominator D, D^deg * L * f(x, y) is an integer with the
    sign of f, so the signs come from exact integer arithmetic.
    """
    xmin, xmax, ymin, ymax = window
    dx, dy = (xmax - xmin) / cols, (ymax - ymin) / rows
    big_d = lcm(xmin.denominator, ymax.denominator, dx.denominator, dy.denominator)
    big_l = lcm(*(Fraction(c).denominator for c in poly.values()))
    deg = total_degree(poly)
    xs = [int((xmin + j * dx) * big_d) for j in range(cols + 1)]
    ys = [int((ymax - i * dy) * big_d) for i in range(rows + 1)]

    def sign(v: int) -> int:
        return (v > 0) - (v < 0)

    signs = []
    for y in ys:
        # collapse f(X, y) into a univariate integer polynomial in X
        row_coeffs = [0] * (deg + 1)
        for (a, b), c in poly.items():
            row_coeffs[a] += int(c * big_l) * y ** b * big_d ** (deg - a - b)
        row = []
        for x in xs:
            acc = 0
            for c in reversed(row_coeffs):
                acc = acc * x + c
            row.append(sign(acc))
        signs.append(row)

    out = []
    for r in range(rows):
        top, bottom = signs[r], signs[r + 1]
        line = []
        for c in range(cols):
            s = (top[c], top[c + 1], bottom[c], bottom[c + 1])
            uniform = all(v > 0 for v in s) or all(v < 0 for v in s)
            line.append("." if uniform else "#")
        out.append("".join(line))
    return out


def common_gcd(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g
