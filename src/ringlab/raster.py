"""Sign-change rasterization of real plane curves, in exact integer arithmetic.

The window is split into a grid of cells and the sign of f is taken at
every grid corner.  A cell is marked exactly when its four corner signs
are not all equal and nonzero, i.e. when a sign change or an exact zero
shows up.  Corner sampling can miss a curve that dips into a cell's
interior without touching a corner sign; that is the documented price of
exactness.

The signs come from one integer kernel per corner row, not from a
Fraction evaluation per corner.  Write f = sum_k c_k(y) x^k, let L be the
lcm of f's coefficient denominators and d its largest y-degree, and write
row y_i = ymax - i*dy as (a - i*b)/q on ints.  The homogenized
C_k(t, y) = sum_e L*c_{k,e} t^(d-e) y^e has integer coefficients and
C_k(q, a - i*b) = L*q^d*c_k(y_i), so each row's coefficients are plain
ints.  Substituting x = xmin + j*dx turns the row into a polynomial in
the column index, h_i(j) = sum_m b_m j^m (a Taylor shift), whose
coefficients are cleared to ints over one denominator den once per
raster.  Every row value is then L*q^d*den times f's value: one positive
multiple, the same at every corner, so every sign survives.  Horner on
plain ints over j = 0..cols yields exactly the signs that evaluating f
with Fractions would, zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import comb, lcm
from typing import Iterator

from .domains import QQ, ZZ
from .errors import DegenerateWindow, NotBivariate, TooLarge, UnsupportedDomain, ZeroPolynomial
from .polyideals import SCAN_LIMIT
from .polynomials import Polynomial, PolyRing, _integer_terms

Window = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, xmax, ymin, ymax
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
    # per corner row, edge j holds the common sign of corners j and j+1, or 0
    # when they differ or vanish; a cell is clear iff its top and bottom
    # edges share a nonzero sign, i.e. its four corner signs do
    edges = ([s if s == t else 0 for s, t in pairwise(signs)]
             for signs in corner_signs(f, window, cols, rows))
    cells = tuple(tuple(not (a and a == b) for a, b in zip(top, bottom))
                  for top, bottom in pairwise(edges))
    return RasterGrid(window, cols, rows, cells)


def corner_signs(f: Polynomial, window: Window, cols: int, rows: int) -> Iterator[list[int]]:
    """Exact signs (-1, 0, 1) of f on each row of grid corners, top row first.

    Corner (i, j) is (xmin + j*dx, ymax - i*dy).  The window must hold
    Fractions and f be nonzero, as raster_plane_curve checks.
    """
    xmin, xmax, ymin, ymax = window
    dx = (xmax - xmin) / cols
    dy = (ymax - ymin) / rows

    # y_i = ymax - i*dy = (a - i*b)/q on ints
    q = lcm(ymax.denominator, dy.denominator)
    a, b = ymax.numerator * (q // ymax.denominator), dy.numerator * (q // dy.denominator)

    # L*f = sum_k x^k sum_e L*c_{k,e} y^e; C_k homogenizes the inner sum to degree d in (t, y)
    terms, _ = _integer_terms(f.terms)
    d = max(ey for _, ey in terms)
    parts: dict[int, dict] = {}
    for (ex, ey), c in terms.items():
        parts.setdefault(ex, {})[(d - ey, ey)] = c
    ks = sorted(parts)
    coeffs = [Polynomial._from_raw(_ROW_RING, parts[k]) for k in ks]
    # h(j) = f(xmin + j*dx, y) = sum_m b_m j^m with b_m = sum_k shift[m][k] c_k(y),
    # shift[m][k] = C(k,m) xmin^(k-m) dx^m, kept as ints over one denominator
    shift = [[comb(k, m) * xmin ** (k - m) * dx ** m if k >= m else 0 for k in ks]
             for m in range(ks[-1] + 1)]
    den = lcm(*(t.denominator for row in shift for t in row))
    shift = [[t.numerator * (den // t.denominator) for t in row] for row in shift]

    js = range(cols + 1)
    for i in range(rows + 1):
        point = (q, a - i * b)
        cy = [c.evaluate(point).value for c in coeffs]  # L*q^d*c_k(y_i)
        # B_m = L*q^d*den*b_m: a positive multiple, so every sign survives
        ints = [sum(t * c for t, c in zip(row, cy)) for row in shift]
        vals = [ints[-1]] * (cols + 1)
        for coeff in reversed(ints[:-1]):
            vals = [v * j + coeff for v, j in zip(vals, js)]
        yield [(v > 0) - (v < 0) for v in vals]


def render_ascii(grid: RasterGrid) -> str:
    """'#' for marked cells, '.' otherwise, top row first."""
    return "\n".join(
        "".join("#" if cell else "." for cell in row) for row in grid.cells
    ) + "\n"


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
