"""Exact linear algebra: fraction-free elimination over Q, modular over F_p.

Rational systems are scaled row-wise to integers and run through Bareiss
fraction-free elimination (all intermediate entries stay integral); back
substitution reintroduces exact Fractions only at the end.  Modular
systems use plain row reduction with modular inverses.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = list[list[int]]


def _to_integer_rows(rows: Sequence[Sequence]) -> Matrix:
    """Scale each row by the lcm of its denominators; solutions unchanged."""
    out: Matrix = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([int(f * scale) for f in fracs])
    return out


def _bareiss_echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """In-place fraction-free row echelon; returns (matrix, pivot columns)."""
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            row_i, row_r = m[i], m[r]
            head = row_i[c]
            for j in range(c, ncols):
                num = row_i[j] * pivot - head * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free update was not integral")
                row_i[j] = q
        prev = pivot
        pivots.append(c)
        r += 1
    return m, pivots


def solve_rational(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to zero, so the answer is the first consistent
    solution in column order.
    """
    ncols = len(rows[0]) if rows else 0
    aug = _to_integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    if not aug:
        return [Fraction(0)] * ncols
    m, pivots = _bareiss_echelon(aug)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    sol = [Fraction(0)] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        acc = Fraction(m[r][ncols])
        for j in range(c + 1, ncols):
            if m[r][j]:
                acc -= m[r][j] * sol[j]
        sol[c] = acc / m[r][c]
    return sol


def solve_mod_p(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> list[int] | None:
    """One solution of A x = b over F_p, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    m = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = _reduce_mod_p(m, p, ncols + 1)
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = m[r][ncols]
    return sol


def nullspace_mod_p(rows: Sequence[Sequence[int]], p: int, ncols: int) -> list[list[int]]:
    """Basis of the right nullspace over F_p, one vector per free column."""
    m = [[x % p for x in row] for row in rows]
    pivots = _reduce_mod_p(m, p, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-m[r][free]) % p
        basis.append(v)
    return basis


def _reduce_mod_p(m: Matrix, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan over F_p, in place; returns pivot columns."""
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] % p != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots
