import math
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import cells_containing

from ringlab import raster
from ringlab.domains import Fp, QQ, ZZ
from ringlab.errors import (
    DegenerateWindow,
    NotBivariate,
    TooLarge,
    UnsupportedDomain,
    ZeroPolynomial,
)
from ringlab.parsing import parse_polynomial
from ringlab.polynomials import Polynomial, PolyRing
from ringlab.raster import corner_signs, raster_plane_curve, render_ascii, render_svg

RQ2 = PolyRing(QQ, ("x", "y"))
RZ2 = PolyRing(ZZ, ("x", "y"))
DATA = Path(__file__).parent / "data"

SQUARE = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))


def nodal_cubic():
    return parse_polynomial("y^2 - x^2*(x+1)", RQ2)


def component_of(grid, start):
    marked = set(grid.marked())
    seen = {start}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nb = (r + dr, c + dc)
                if nb in marked and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    return seen


def test_vertical_line_marks_two_adjacent_columns():
    f = parse_polynomial("x", RQ2)
    grid = raster_plane_curve(f, (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)), 8, 8)
    marked_cols = {c for _, c in grid.marked()}
    assert marked_cols == {3, 4}
    for r in range(8):
        assert grid.cells[r][3] and grid.cells[r][4]


def test_positive_definite_curve_marks_nothing():
    f = parse_polynomial("x^2 + y^2 + 1", RQ2)
    grid = raster_plane_curve(f, SQUARE, 16, 16)
    assert grid.marked() == []


def test_nodal_cubic_marks_its_singular_points():
    grid = raster_plane_curve(nodal_cubic(), SQUARE, 64, 64)
    for point in ((0, 0), (-1, 0)):
        cells = cells_containing(grid, *point)
        assert cells, f"no cell contains {point}"
        assert all(grid.cells[r][c] for r, c in cells)


def test_nodal_cubic_connected_through_origin():
    grid = raster_plane_curve(nodal_cubic(), SQUARE, 64, 64)
    origin_cell = cells_containing(grid, 0, 0)[0]
    comp = component_of(grid, origin_cell)
    # the loop reaches (-1, 0) and both branches leave through top and bottom
    assert all(cell in comp for cell in cells_containing(grid, -1, 0))
    assert any(r == 0 for r, _ in comp)
    assert any(r == grid.rows - 1 for r, _ in comp)
    assert len(comp) == len(grid.marked())


def test_nodal_cubic_matches_golden_file():
    grid = raster_plane_curve(nodal_cubic(), SQUARE, 64, 64)
    golden = (DATA / "nodal_cubic_64.txt").read_text()
    assert render_ascii(grid) == golden


def test_refinement_keeps_clear_cells_clear():
    f = parse_polynomial("x", RQ2)
    window = (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
    coarse = raster_plane_curve(f, window, 8, 8)
    fine = raster_plane_curve(f, window, 16, 16)
    for r in range(8):
        for c in range(8):
            if not coarse.cells[r][c]:
                for dr in (0, 1):
                    for dc in (0, 1):
                        assert not fine.cells[2 * r + dr][2 * c + dc]


def test_raster_input_validation():
    with pytest.raises(NotBivariate):
        raster_plane_curve(parse_polynomial("x", PolyRing(QQ, ("x",))), SQUARE, 8, 8)
    rf = PolyRing(Fp(5), ("x", "y"))
    with pytest.raises(UnsupportedDomain):
        raster_plane_curve(parse_polynomial("x", rf), SQUARE, 8, 8)
    with pytest.raises(ZeroPolynomial):
        raster_plane_curve(Polynomial.zero(RQ2), SQUARE, 8, 8)
    with pytest.raises(DegenerateWindow):
        raster_plane_curve(nodal_cubic(), (Fraction(1), Fraction(1), Fraction(-1), Fraction(1)), 8, 8)
    with pytest.raises(DegenerateWindow):
        raster_plane_curve(nodal_cubic(), SQUARE, 1, 8)


def test_svg_has_one_rect_per_marked_cell():
    grid = raster_plane_curve(nodal_cubic(), SQUARE, 16, 16)
    svg = render_svg(grid)
    assert svg.count('fill="black"') == len(grid.marked())
    assert svg.startswith("<svg")


def test_exact_rational_windows():
    f = parse_polynomial("x - 1/3", RQ2)
    window = (Fraction(0), Fraction(2, 3), Fraction(0), Fraction(1))
    grid = raster_plane_curve(f, window, 2, 2)
    # x = 1/3 is exactly the interior grid line: every cell touches it
    assert len(grid.marked()) == 4


def test_raster_refuses_more_corners_than_the_scan_limit():
    f = parse_polynomial("x", RQ2)
    with pytest.raises(TooLarge, match="10000200001 corners"):
        raster_plane_curve(f, SQUARE, 100_000, 100_000)
    with pytest.raises(TooLarge, match="1000000"):
        raster_plane_curve(f, SQUARE, 1000, 999)  # 1001 * 1000 corners
    assert raster_plane_curve(f, SQUARE, 999, 999).cols == 999  # 10^6 corners exactly


def test_raster_refuses_corner_values_past_the_bit_limit_before_any_power():
    # x^(10^14) would be built as X_j^(10^14); the estimate refuses it at once
    f = parse_polynomial("x^100000000000000 - y", RQ2)
    with pytest.raises(TooLarge, match="about 300000000000006 bits, over the limit of 1000000"):
        raster_plane_curve(f, SQUARE, 8, 8)
    f = parse_polynomial("y^100000000000000 - x", RQ2)
    with pytest.raises(TooLarge, match="limit of"):
        raster_plane_curve(f, SQUARE, 8, 8)
    # on this grid |X_j|, s, |a - i*b| and q are at most 4, 3 bits a degree: x^333331 - y
    # reads 3*333331 + 3 + 1 + 2 (the coefficient 1 and the 2 terms) = 999 999 bits
    assert raster_plane_curve(parse_polynomial("x^333331 - y", RQ2), SQUARE, 8, 8).rows == 8
    with pytest.raises(TooLarge, match="about 1000002 bits"):
        raster_plane_curve(parse_polynomial("x^333332 - y", RQ2), SQUARE, 8, 8)


# -- differential test: the integer row kernel against per-corner Fractions --

def oracle_signs(f, window, cols, rows):
    """Sign of f at every grid corner, one Fraction evaluation each."""
    xmin, xmax, ymin, ymax = (Fraction(v) for v in window)
    dx = (xmax - xmin) / cols
    dy = (ymax - ymin) / rows
    signs = []
    for i in range(rows + 1):
        y = ymax - i * dy
        row = []
        for j in range(cols + 1):
            v = f.evaluate((xmin + j * dx, y)).value
            row.append(0 if v == 0 else (1 if v > 0 else -1))
        signs.append(row)
    return signs


def oracle_cells(f, window, cols, rows):
    """Marked unless all four corner values are strictly positive or negative."""
    signs = oracle_signs(f, window, cols, rows)
    cells = []
    for r in range(rows):
        row = []
        for c in range(cols):
            corner = (signs[r][c], signs[r][c + 1], signs[r + 1][c], signs[r + 1][c + 1])
            all_pos = all(s > 0 for s in corner)
            all_neg = all(s < 0 for s in corner)
            row.append(not (all_pos or all_neg))
        cells.append(tuple(row))
    return tuple(cells)


def assert_matches_oracle(f, window, cols, rows):
    window = tuple(Fraction(v) for v in window)
    assert list(corner_signs(f, window, cols, rows)) == oracle_signs(f, window, cols, rows)
    assert raster_plane_curve(f, window, cols, rows).cells == oracle_cells(f, window, cols, rows)


def random_curve(ring, rng):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        ex = rng.randint(0, 4)
        ey = rng.randint(0, 4 - ex)
        num = rng.randint(-6, 6)
        terms[(ex, ey)] = num if ring.domain == ZZ else Fraction(num, rng.randint(1, 5))
    f = Polynomial(ring, terms)
    return f if not f.is_zero else Polynomial.variable(ring, "x")


def random_window(rng):
    def interval():
        lo = Fraction(rng.randint(-12, 6), rng.randint(1, 7))
        return lo, lo + Fraction(rng.randint(1, 12), rng.randint(1, 7))
    (x0, x1), (y0, y1) = interval(), interval()
    return (x0, x1, y0, y1)


@pytest.mark.parametrize("ring", [RQ2, RZ2], ids=["q", "z"])
def test_row_kernel_matches_per_corner_fractions_on_random_curves(ring):
    rng = random.Random(6 if ring is RQ2 else 7)
    for _ in range(60):
        f = random_curve(ring, rng)
        assert_matches_oracle(f, random_window(rng), rng.randint(2, 13), rng.randint(2, 11))


@pytest.mark.parametrize("text", ["x", "y", "x*y", "x^2 - y^2", "x^3*y - x*y^3",
                                  "y^2 - x^2*(x+1)", "x^4 + y^4 - 1/16"])
@pytest.mark.parametrize("res", [(8, 8), (6, 4), (4, 10)])
def test_row_kernel_matches_on_curves_through_grid_corners(text, res):
    f = parse_polynomial(text, RQ2)
    for window in ((-1, 1, -1, 1), (-2, 2, -1, 1), (Fraction(-1, 2), Fraction(1, 2), -1, 1)):
        assert_matches_oracle(f, window, *res)


@pytest.mark.parametrize("ring", [RQ2, RZ2], ids=["q", "z"])
def test_row_kernel_matches_without_x_terms_without_y_terms_and_for_constants(ring):
    window = (Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 7), Fraction(2))
    for text in ("y^2 - 1", "4*y^3 - y", "x^3 - x", "2*x - 1", "5", "-2"):
        assert_matches_oracle(parse_polynomial(text, ring), window, 7, 5)
    for text in ("5", "-2"):
        grid = raster_plane_curve(parse_polynomial(text, ring), window, 7, 5)
        assert grid.marked() == []


# sparse high-degree curves: the row kernel evaluates each homogenized c_k(y) at
# (q, a - i*b) and runs Horner over the x-degrees present, so these stress q^d,
# s^(e-k) and the degree gaps in both variables
SPARSE_CURVES = ["y^40 - x", "x^3*y^17 - 2/3", "x*y^25 + y^24 - 1/7",
                 "x^40 - y", "x^17*y - 2/3 + x*y^5", "x^9 - x^2*y^3 + 1/5"]
NARROW = (Fraction(-1, 997), Fraction(1, 991))
COPRIME = (Fraction(-5, 11), Fraction(3, 13))
WIDE = (Fraction(-3, 2), Fraction(7, 5))


def over(ring, text):
    """The curve over Q, or its denominators cleared over Z."""
    f = parse_polynomial(text, RQ2)
    if ring is RQ2:
        return f
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return Polynomial(RZ2, {e: c * den for e, c in f.terms.items()})


@pytest.mark.parametrize("ring", [RQ2, RZ2], ids=["q", "z"])
@pytest.mark.parametrize("text", SPARSE_CURVES)
@pytest.mark.parametrize("res", [(6, 2), (2, 2), (9, 7)])
def test_row_kernel_matches_on_sparse_high_degree_curves(ring, text, res):
    f = over(ring, text)
    for xs, ys in ((NARROW, COPRIME), (COPRIME, NARROW), (WIDE, COPRIME), (NARROW, WIDE),
                   ((Fraction(-1, 10007), Fraction(1, 10009)), NARROW)):
        assert_matches_oracle(f, xs + ys, *res)


def test_rows_evaluate_integer_coefficients_at_integer_points(monkeypatch):
    evaluate, seen = Polynomial.evaluate, []
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda g, point: seen.append((g, point)) or evaluate(g, point))
    f = parse_polynomial("x*y^25 + y^24 - 1/7", RQ2)
    list(corner_signs(f, COPRIME + NARROW, 5, 3))
    assert len(seen) == 4 * 2  # each x-coefficient once on each of the 4 corner rows
    for g, point in seen:
        assert g.ring.domain == ZZ and all(type(c) is int for c in g.terms.values())
        assert all(type(v) is int for v in point)


def test_packed_rows_evaluate_one_row_polynomial_per_corner_row(monkeypatch):
    evaluate, seen = Polynomial.evaluate, []
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda g, point: seen.append((g, point)) or evaluate(g, point))
    f = parse_polynomial("x^3*y - 2/3*x + y^2 - 1", RQ2)  # 3 x-degrees, small lanes
    list(corner_signs(f, SQUARE, 5, 3))
    assert len(seen) == 4  # one row polynomial, evaluated once on each of the 4 corner rows
    for g, point in seen:
        assert g is seen[0][0] and g.ring.nvars == 1 and g.ring.domain == ZZ
        assert all(type(c) is int for c in g.terms.values())
        assert len(point) == 1 and type(point[0]) is int


def largest_corner_value(f, window, cols, rows):
    """max |L*q^d*s^e*f| over the grid corners, from Fractions: the integer the row
    kernel forms at each corner."""
    xmin, xmax, ymin, ymax = window
    dx, dy = (xmax - xmin) / cols, (ymax - ymin) / rows
    s, q = math.lcm(xmin.denominator, dx.denominator), math.lcm(ymax.denominator, dy.denominator)
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    e, d = (max(exps[i] for exps in f.terms) for i in (0, 1))
    scale = den * q ** d * s ** e
    values = [scale * f.evaluate((xmin + j * dx, ymax - i * dy)).value
              for i in range(rows + 1) for j in range(cols + 1)]
    assert all(v.denominator == 1 for v in values)
    return int(max(map(abs, values)))


@pytest.mark.parametrize("text", SPARSE_CURVES + ["x^2 + y^2 - 1", "7", "-x*y"])
def test_the_corner_bit_estimate_bounds_every_corner_value(text, monkeypatch):
    f = parse_polynomial(text, RQ2)
    for window in (NARROW + COPRIME, WIDE + NARROW, SQUARE,  # and one far from 0 on each axis
                   (Fraction(1, 3), Fraction(5), Fraction(-4), Fraction(-1, 2))):
        # the estimate is at least the true size, so a limit just under it refuses
        bits = largest_corner_value(f, window, 6, 4).bit_length()
        monkeypatch.setattr(raster, "CORNER_BIT_LIMIT", bits - 1)
        with pytest.raises(TooLarge, match=f"over the limit of {bits - 1}"):
            list(corner_signs(f, window, 6, 4))


# -- packed lanes: the cell rule on both row paths, lane edges and the work budget --

Y_HEAVY = "x - (" + " + ".join(f"y^{m}" for m in range(1, 13)) + ")"


@pytest.mark.parametrize("cap", [raster.LANE_CAP, 0], ids=["default", "horner"])
def test_cells_follow_the_four_corner_rule_on_both_row_paths(cap, monkeypatch):
    # a lane cap of 0 sends every raster down the Horner fallback
    monkeypatch.setattr(raster, "LANE_CAP", cap)
    rng = random.Random(24)
    cases = [(random_curve(ring, rng), random_window(rng), rng.randint(2, 13),
              rng.randint(2, 11)) for ring in (RQ2, RZ2) for _ in range(40)]
    cases += [(parse_polynomial(text, RQ2), window, 6, 4)
              for text in ("x", "x*y", "x^3*y - x*y^3", "y^2 - x^2*(x+1)", "x^4 + y^4 - 1/16")
              for window in ((-1, 1, -1, 1), (-2, 2, -1, 1),
                             (Fraction(-1, 2), Fraction(1, 2), -1, 1))]
    cases += [(over(ring, text), xs + ys, 9, 7) for ring in (RQ2, RZ2) for text in SPARSE_CURVES
              for xs, ys in ((NARROW, COPRIME), (WIDE, COPRIME), (NARROW, WIDE))]
    # more y-degrees than x-degrees: the packed row polynomial has one term per y-degree
    cases += [(parse_polynomial(Y_HEAVY, RQ2), window, 9, 7)
              for window in (SQUARE, (-1, 1, -1, 1), WIDE + WIDE, NARROW + WIDE)]
    for f, window, cols, rows in cases:
        window = tuple(Fraction(v) for v in window)
        assert raster_plane_curve(f, window, cols, rows).cells == oracle_cells(f, window, cols,
                                                                               rows)


# columns X_j = -15..15 (s = 1, 4 bits a degree) and rows y = 1, 0, -1 (1 bit a degree), so
# x^7 reads 7*4 + 1 (the coefficient) + 1 (one term) = 30 bits and its largest corner value,
# 15^7, is within 3 bits of that bound
LATTICE = (Fraction(-15), Fraction(15), Fraction(-1), Fraction(1))


@pytest.mark.parametrize("text, bits", [
    ("x^7", 30), ("-x^6*y^4", 30), ("x^6*y^3 - x^2*y", 30),  # bits + 2 = 32: 4-byte lanes
    ("3*x^7", 31), ("x^7*y", 31), ("x^6*y^3 - 2*x^2*y", 31),  # bits + 2 = 33: 5-byte lanes
])
def test_rows_on_and_one_bit_past_a_lane_byte_boundary(text, bits, monkeypatch):
    f = parse_polynomial(text, RQ2)
    assert_matches_oracle(f, LATTICE, 30, 2)
    assert_matches_oracle(f, LATTICE[:2] + (Fraction(-1, 2), Fraction(1)), 30, 3)
    monkeypatch.setattr(raster, "CORNER_BIT_LIMIT", bits - 1)
    with pytest.raises(TooLarge, match=f"about {bits} bits"):
        list(corner_signs(f, LATTICE, 30, 2))


FAR = (Fraction(-1, 3), Fraction(2, 7)) + COPRIME  # the window of the capped repros


def test_the_work_budget_refuses_before_the_first_row(monkeypatch):
    evaluate, seen = Polynomial.evaluate, []
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda g, point: seen.append(point) or evaluate(g, point))
    with pytest.raises(TooLarge, match="2 x-degrees, 2 terms and 99014-bit corner values takes "
                                       "about 3243072000 word steps, over the limit of 1000000000"):
        raster_plane_curve(parse_polynomial("y^9000 - x", RQ2), SQUARE, 999, 999)
    with pytest.raises(TooLarge, match="61 x-degrees, 62 terms and 981-bit corner values"):
        raster_plane_curve(parse_polynomial("(x+1)^60 - y", RQ2), FAR, 999, 999)
    with pytest.raises(TooLarge, match="602 terms and 7208-bit corner values"):
        raster_plane_curve(parse_polynomial("(y+1)^600 - x", RQ2), SQUARE, 2, 999)
    assert seen == []
    # the sparse degree-900 rows at res 999 (2-3 s each) are admitted: their first row is out
    for text in ("y^900 - x", "x^900 - y"):
        assert len(next(corner_signs(parse_polynomial(text, RQ2), FAR, 999, 999))) == 1000
