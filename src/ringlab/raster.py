"""Sign-change rasterization of real plane curves, in exact rational arithmetic.

The window is split into a grid of cells and the polynomial is evaluated
at every grid corner with Fractions.  A cell is marked exactly when its
four corner values are neither all strictly positive nor all strictly
negative, i.e. when a sign change or an exact zero shows up.  Corner
sampling can miss a curve that dips into a cell's interior without
touching a corner sign; that is the documented price of exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import QQ, ZZ
from .errors import DegenerateWindow, NotBivariate, UnsupportedDomain, ZeroPolynomial
from .polynomials import Polynomial

Window = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, xmax, ymin, ymax


@dataclass(frozen=True)
class RasterGrid:
    """Boolean cell matrix; cells[r][c], row 0 at the top (largest y)."""

    window: Window
    cols: int
    rows: int
    cells: tuple[tuple[bool, ...], ...]

    def marked(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols) if self.cells[r][c]]

    def cells_containing(self, x, y) -> list[tuple[int, int]]:
        """All cells whose closed rectangle contains the point."""
        xmin, xmax, ymin, ymax = self.window
        dx = (xmax - xmin) / self.cols
        dy = (ymax - ymin) / self.rows
        x, y = Fraction(x), Fraction(y)
        out = []
        for r in range(self.rows):
            y_hi = ymax - r * dy
            y_lo = y_hi - dy
            if not (y_lo <= y <= y_hi):
                continue
            for c in range(self.cols):
                x_lo = xmin + c * dx
                if x_lo <= x <= x_lo + dx:
                    out.append((r, c))
        return out


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
    xmin, xmax, ymin, ymax = (Fraction(v) for v in window)
    if not (xmin < xmax and ymin < ymax):
        raise DegenerateWindow(f"window {window} has no area")

    dx = (xmax - xmin) / cols
    dy = (ymax - ymin) / rows

    # corner value signs: corner (i, j) is (xmin + j*dx, ymax - i*dy)
    signs = []
    for i in range(rows + 1):
        y = ymax - i * dy
        row = []
        for j in range(cols + 1):
            x = xmin + j * dx
            v = f.evaluate((x, y)).value
            row.append(0 if v == 0 else (1 if v > 0 else -1))
        signs.append(row)

    cells = []
    for r in range(rows):
        row = []
        for c in range(cols):
            corner = (signs[r][c], signs[r][c + 1], signs[r + 1][c], signs[r + 1][c + 1])
            all_pos = all(s > 0 for s in corner)
            all_neg = all(s < 0 for s in corner)
            row.append(not (all_pos or all_neg))
        cells.append(tuple(row))
    return RasterGrid((xmin, xmax, ymin, ymax), cols, rows, tuple(cells))


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
