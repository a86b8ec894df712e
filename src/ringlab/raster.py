"""Sign-change rasterization of real plane curves, in exact integer arithmetic.

The window is split into a grid of cells and the sign of f is taken at
every grid corner.  A cell is marked exactly when its four corner signs
are not all equal and nonzero, i.e. when a sign change or an exact zero
shows up.  Corner sampling can miss a curve that dips into a cell's
interior without touching a corner sign; that is the documented price of
exactness.

The signs come from one integer kernel per corner row, with no Fraction
per corner: x_j = xmin + j*dx = (u + j*w)/s and y_i = ymax - i*dy =
(a - i*b)/q on ints.  Write f = sum_k c_k(y) x^k, with L the lcm of its
coefficient denominators and e, d its largest x- and y-degrees.  Each
homogenized C_k(t, y) = s^(e-k) sum_m L*c_{k,m} t^(d-m) y^m has integer
coefficients, and with X_j = u + j*w, sum_k C_k(q, a - i*b) X_j^k =
L*q^d*s^e*f(x_j, y_i): one positive multiple at every corner, so every
sign survives, zeros included.  Horner in X_j runs over only the
x-degrees f has, multiplying from one to the next by the column X_j^gap,
built once per raster and gap.  A cell is clear exactly when its four
corner signs sum to +-4, so adjacent corners are added once per row.  A
corner value's bits are bounded from e, d, the lattice ends and L*f before
any power is built, and past CORNER_BIT_LIMIT the raster is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import lcm
from operator import add, mul
from typing import Iterator

from .domains import QQ, ZZ
from .errors import DegenerateWindow, NotBivariate, TooLarge, UnsupportedDomain, ZeroPolynomial
from .polyideals import SCAN_LIMIT
from .polynomials import Polynomial, PolyRing, _integer_terms

Window = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, xmax, ymin, ymax
# bits of one corner value: 1.5-3.8 s for a 64x64 raster just under it on a 2-vCPU host, where
# x^10000000 - y on 8x8 (3*10^7 bits) took 8.5 s
CORNER_BIT_LIMIT = 1_000_000
# the homogenized y-coefficients C_k(t, y) of a curve, evaluated at (q, a - i*b) per row
_ROW_RING = PolyRing(ZZ, ("t", "y"))


@dataclass(frozen=True)
class RasterGrid:
    """Boolean cell matrix; cells[r][c], row 0 at the top (largest y)."""

    window: Window
    cols: int
    rows: int
    cells: tuple[tuple[bool, ...], ...]

    def marked(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols) if self.cells[r][c]]


def raster_plane_curve(f: Polynomial, window: Window, cols: int, rows: int) -> RasterGrid:
    """Rasterize the zero set of a rational bivariate polynomial."""
    if f.ring.nvars != 2:
        raise NotBivariate(f"plane curves need exactly two variables, got {f.ring.nvars}")
    if f.ring.domain not in (QQ, ZZ):
        raise UnsupportedDomain("plane curves are drawn over the rationals")
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    if cols < 2 or rows < 2:
        raise DegenerateWindow("resolution must be at least 2x2")
    corners = (cols + 1) * (rows + 1)
    if corners > SCAN_LIMIT:
        raise TooLarge(f"a {cols}x{rows} raster has {corners} corners, over the scan "
                       f"limit of {SCAN_LIMIT}")
    xmin, xmax, ymin, ymax = (Fraction(v) for v in window)
    if not (xmin < xmax and ymin < ymax):
        raise DegenerateWindow(f"window {window} has no area")

    window = (xmin, xmax, ymin, ymax)
    # a cell is clear iff its four corner signs sum to +-4
    pairs = (list(map(add, signs, signs[1:])) for signs in corner_signs(f, window, cols, rows))
    cells = tuple(tuple([abs(t + b) != 4 for t, b in zip(top, bottom)])
                  for top, bottom in pairwise(pairs))
    return RasterGrid(window, cols, rows, cells)


def corner_signs(f: Polynomial, window: Window, cols: int, rows: int) -> Iterator[list[int]]:
    """Exact signs (-1, 0, 1) of f on each row of grid corners, top row first.

    Corner (i, j) is (xmin + j*dx, ymax - i*dy).  The window must hold
    Fractions and f be nonzero, as raster_plane_curve checks.
    """
    xmin, xmax, ymin, ymax = window
    dx, dy = (xmax - xmin) / cols, (ymax - ymin) / rows
    # x_j = xmin + j*dx = (u + j*w)/s and y_i = ymax - i*dy = (a - i*b)/q on ints
    s = lcm(xmin.denominator, dx.denominator)
    u, w = xmin.numerator * (s // xmin.denominator), dx.numerator * (s // dx.denominator)
    q = lcm(ymax.denominator, dy.denominator)
    a, b = ymax.numerator * (q // ymax.denominator), dy.numerator * (q // dy.denominator)

    terms, _ = _integer_terms(f.terms)  # L*f
    e, d = map(max, zip(*terms))
    # a corner value is at most t * max|L*c| * max(|X_j|, s)^e * max(|a - i*b|, q)^d over
    # f's t terms: its bits are bounded before any power is built
    bits = (e * max(abs(u), abs(u + cols * w), s).bit_length()
            + d * max(abs(a), abs(a - rows * b), q).bit_length()
            + max(map(abs, terms.values())).bit_length() + len(terms).bit_length())
    if bits > CORNER_BIT_LIMIT:
        raise TooLarge(f"the corner values of a {cols}x{rows} raster reach about {bits} bits, "
                       f"over the limit of {CORNER_BIT_LIMIT}")
    # C_k = s^(e-k) times the k-th x-coefficient of L*f, homogenized to degree d
    parts: dict[int, dict] = {}
    for (ex, ey), c in terms.items():
        parts.setdefault(ex, {})[(d - ey, ey)] = c * s ** (e - ex)
    ks = sorted(parts, reverse=True)
    coeffs = [Polynomial._from_raw(_ROW_RING, parts[k]) for k in ks]
    # Horner over the x-degrees f has; the last gap runs down to degree 0
    gaps = [k - k1 for k, k1 in pairwise(ks + [0])]
    powers = {g: [x ** g for x in range(u, u + (cols + 1) * w, w)] for g in set(gaps) if g}

    for i in range(rows + 1):
        point = (q, a - i * b)
        top, *lower = [c.evaluate(point).value for c in coeffs]  # L*q^d*s^(e-k)*c_k(y_i)
        vals = [top] * (cols + 1)
        for cy, gap in zip(lower, gaps):
            vals = [v * p + cy for v, p in zip(vals, powers[gap])]
        if gaps[-1]:
            vals = list(map(mul, vals, powers[gaps[-1]]))
        yield [(v > 0) - (v < 0) for v in vals]


def ascii_rows(grid: RasterGrid) -> list[str]:
    """One string per cell row, as render_ascii prints it."""
    return ["".join(map(".#".__getitem__, row)) for row in grid.cells]


def render_ascii(grid: RasterGrid) -> str:
    """'#' for marked cells, '.' otherwise, top row first."""
    return "\n".join(ascii_rows(grid)) + "\n"


def render_svg(grid: RasterGrid) -> str:
    """One filled unit square per marked cell, in cell coordinates."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {grid.cols} {grid.rows}">',
        f'<rect width="{grid.cols}" height="{grid.rows}" fill="white"/>',
    ]
    for r, c in grid.marked():
        parts.append(f'<rect x="{c}" y="{r}" width="1" height="1" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
