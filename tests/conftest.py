import sys
from fractions import Fraction
from pathlib import Path

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def cells_containing(grid, x, y) -> list[tuple[int, int]]:
    """All cells of a RasterGrid whose closed rectangle contains the point (x, y)."""
    xmin, xmax, ymin, ymax = grid.window
    dx = (xmax - xmin) / grid.cols
    dy = (ymax - ymin) / grid.rows
    x, y = Fraction(x), Fraction(y)
    return [(r, c) for r in range(grid.rows) if ymax - (r + 1) * dy <= y <= ymax - r * dy
            for c in range(grid.cols) if xmin + c * dx <= x <= xmin + (c + 1) * dx]
