"""Sign-change rasterization of real plane curves, in exact integer arithmetic.

The window is split into a grid of cells and the sign of f is taken at
every grid corner.  A cell is marked exactly when its four corner signs
are not all equal and nonzero, i.e. when a sign change or an exact zero
shows up.  Corner sampling can miss a curve that dips into a cell's
interior without touching a corner sign; that is the documented price of
exactness.

The signs come from one integer per corner row, with no Fraction per
corner: x_j = xmin + j*dx = (u + j*w)/s and y_i = ymax - i*dy = (a - i*b)/q
on ints.  Write f = sum_k c_k(y) x^k, with L the lcm of its coefficient
denominators and e, d its largest x- and y-degrees.  Each
C_k(y) = sum_m L*c_{k,m} s^(e-k) q^(d-m) y^m has integer coefficients, and
with X_j = u + j*w, v_j = sum_k C_k(a - i*b) X_j^k = L*q^d*s^e*f(x_j, y_i):
one positive multiple at every corner, so every sign survives, zeros
included.  Before any power is built, |v_j| < 2^bits is bounded from e, d,
the lattice ends and L*f (past CORNER_BIT_LIMIT the raster is refused), and
the raster's word steps (corners times x-degrees times words of a corner
value, plus every term's powers on each row) are charged against
RASTER_WORK_LIMIT.

A row is one packed integer (Kronecker substitution).  Lanes are W bits, W
the least multiple of 8 with W >= bits + 2, and P_k = sum_j X_j^k 2^(W*j) is
built once per raster for each x-degree k that f has, then the row polynomial
R(y) = sum_k C_k(y) P_k, in y alone.  Row i is OFF + R(a - i*b), with OFF =
2^(W-1) in every lane: it holds v_j + 2^(W-1) in lane j, and as |v_j| <
2^(W-2) that stays inside [0, 2^W), so no lane borrows and the lanes are its
base-2^W digits.  A lane's top byte is >= 0x80 exactly when v_j >= 0, and the
same read of the row minus 1 in every lane gives v_j >= 1: one byte per
column of a pos and a neg mask.  Lanes are capped at LANE_CAP bytes; a wider
raster runs Horner in X_j over the x-degrees f has, with X_j^gap columns, and
makes the same masks.  Byte c of pos & (pos >> 8) is set where corners c and
c+1 are both positive, and a cell is clear exactly when that holds on both
its corner rows, or the same for neg: all four positive or all four negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import lcm
from operator import mul, sub
from typing import Iterator

from .domains import QQ, ZZ
from .errors import DegenerateWindow, NotBivariate, TooLarge, UnsupportedDomain, ZeroPolynomial
from .polyideals import SCAN_LIMIT
from .polynomials import Polynomial, PolyRing, _integer_terms

Window = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, xmax, ymin, ymax
# bits of one corner value: 1.5-3.8 s for a 64x64 raster just under it on a 2-vCPU host, where
# x^10000000 - y on 8x8 (3*10^7 bits) took 8.5 s
CORNER_BIT_LIMIT = 1_000_000
# bytes of one packed lane at most; a raster whose corner values need wider lanes runs Horner
# per corner instead (uncapped, y^900 - x at res 999 packed 1 000 lanes of ~16 000 bits a row
# and took 67-70 s instead of 2-3 s)
LANE_CAP = 16
# word steps of one raster, estimated before its first row: 2.5-4 s just under it on a 2-vCPU
# host, where y^9000 - x at res 999 (3.2*10^9) took 7-12 s
RASTER_WORK_LIMIT = 10**9
# 1 for a byte >= 0x80, the top byte of a lane whose value is >= 0
_TOP = bytes(byte >> 7 for byte in range(256))
# the lattice y-coefficients C_k(y) of a curve and its row polynomial, evaluated at a - i*b
_ROW_RING = PolyRing(ZZ, ("y",))


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
    # byte j of (pos & (pos >> 8)) is 1 where corners j and j+1 are both positive
    pairs = ((pos & (pos >> 8), neg & (neg >> 8))
             for pos, neg in _corner_masks(f, window, cols, rows))
    every = int.from_bytes(b"\1" * cols, "little")
    # a cell is clear iff its four corners are all positive or all negative
    cells = tuple(tuple(map(bool, (every ^ ((tp & bp) | (tn & bn))).to_bytes(cols, "little")))
                  for (tp, tn), (bp, bn) in pairwise(pairs))
    return RasterGrid(window, cols, rows, cells)


def corner_signs(f: Polynomial, window: Window, cols: int, rows: int) -> Iterator[list[int]]:
    """Exact signs (-1, 0, 1) of f on each row of grid corners, top row first.

    Corner (i, j) is (xmin + j*dx, ymax - i*dy).  The window must hold
    Fractions and f be nonzero, as raster_plane_curve checks.
    """
    for pos, neg in _corner_masks(f, window, cols, rows):
        yield list(map(sub, pos.to_bytes(cols + 1, "little"), neg.to_bytes(cols + 1, "little")))


def _corner_masks(f: Polynomial, window: Window, cols: int,
                  rows: int) -> Iterator[tuple[int, int]]:
    """(pos, neg) for each row of grid corners, top row first: byte j of pos is 1
    where f > 0 at column j, of neg where f < 0, and 0 elsewhere."""
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
    # word steps, kept as an upper bound: a corner takes one step per x-degree k of f, a pass
    # over the 64-bit words of a corner value plus ~24 words of interpreter overhead, and a row
    # raises y to the powers its terms have, ~32 steps a word (a packed row multiplies one
    # packed integer per y-degree instead, at most bits <= 8*LANE_CAP of them)
    ks = sorted({ex for ex, _ in terms}, reverse=True)
    words = bits // 64 + 1
    work = (rows + 1) * ((cols + 1) * len(ks) * (words + 24) + len(terms) * words * 32)
    if work > RASTER_WORK_LIMIT:
        raise TooLarge(f"a {cols}x{rows} raster of {len(ks)} x-degrees, {len(terms)} terms and "
                       f"{bits}-bit corner values takes about {work} word steps, over the "
                       f"limit of {RASTER_WORK_LIMIT}")
    # C_k(y) = the k-th x-coefficient of L*f, its y^m term times s^(e-k) * q^(d-m)
    parts: dict[int, dict] = {}
    for (ex, ey), c in terms.items():
        parts.setdefault(ex, {})[(ey,)] = c * s ** (e - ex) * q ** (d - ey)
    coeffs = [Polynomial._from_raw(_ROW_RING, parts[k]) for k in ks]
    xs = range(u, u + (cols + 1) * w, w)  # X_j

    lane = (bits + 9) // 8  # bytes: W = 8*lane is the least multiple of 8 >= bits + 2
    if lane <= LANE_CAP:
        n, half = (cols + 1) * lane, 1 << (8 * lane - 1)
        ones = int.from_bytes((b"\1" + bytes(lane - 1)) * (cols + 1), "little")
        off = ones * half  # 2^(W-1) in every lane

        def top_bytes(r: int) -> int:  # byte j is 1 where lane j's top byte is >= 0x80
            return int.from_bytes(r.to_bytes(n, "little")[lane - 1::lane].translate(_TOP),
                                  "little")

        # P_k = sum_j X_j^k * 2^(W*j): as |X_j^k| < 2^bits, X_j^k + half fills lane j unsigned
        packed = [int.from_bytes(b"".join([(x ** k + half).to_bytes(lane, "little")
                                           for x in xs]), "little") - off for k in ks]
        every = int.from_bytes(b"\1" * (cols + 1), "little")
        poly = sum(c * p for c, p in zip(coeffs, packed))  # R(y) = sum_k C_k(y) * P_k
        for i in range(rows + 1):
            row = poly.evaluate((a - i * b,)).value + off
            yield top_bytes(row - ones), every ^ top_bytes(row)  # v_j >= 1, not v_j >= 0
        return

    # Horner over the x-degrees f has; the last gap runs down to degree 0
    gaps = [k - k1 for k, k1 in pairwise(ks + [0])]
    powers = {g: [x ** g for x in xs] for g in set(gaps) if g}
    for i in range(rows + 1):
        top, *lower = [c.evaluate((a - i * b,)).value for c in coeffs]  # L*q^d*s^(e-k)*c_k(y_i)
        vals = [top] * (cols + 1)
        for cy, gap in zip(lower, gaps):
            vals = [v * p + cy for v, p in zip(vals, powers[gap])]
        if gaps[-1]:
            vals = list(map(mul, vals, powers[gaps[-1]]))
        yield (int.from_bytes(bytes([v > 0 for v in vals]), "little"),
               int.from_bytes(bytes([v < 0 for v in vals]), "little"))


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
