"""Exact linear algebra over Z and F_p: a sparse Gauss-Jordan for solves, a
dense one for nullspaces.

Every solve runs through `_gauss_jordan` on rows stored as dicts (column ->
nonzero int).  A rational system is first scaled row by row to integers
(by the lcm of the row's denominators); elimination stays in Z and divides
every updated row by its content.  Over F_p each pivot row is scaled to a
leading 1.  A column's pivot is the unused row with the fewest nonzeros,
which keeps fill-in low on sparse Macaulay matrices.

`nullspace_mod_p` reduces dense lists instead: its one caller hands it the
evaluation rows of a point set, which have no zeros to skip.

Columns are eliminated strictly in order, so column j gets a pivot exactly
when it is not in the span of the columns before it, whichever row is
picked.  The reduced pivot rows are then fixed up to scale (over F_p they
are the unique reduced row echelon form), and so is every answer read off
them: the solution with free variables zero, and the nullspace basis with
one vector per free column.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Sequence

from .polynomials import _integer_terms

Row = dict[int, int]


def _residue_row(row: Sequence[int], p: int) -> Row:
    return {j: r for j, x in enumerate(row) if (r := x % p)}


def _gauss_jordan(rows: list[Row], ncols: int, p: int = 0) -> list[tuple[int, Row]]:
    """Reduce rows in place over Z (p = 0) or F_p; the (column, pivot row) pairs in column order.

    Each column below ncols is cleared from every row but its pivot row,
    the earlier pivot rows included.
    """
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for k in row:
            holders.setdefault(k, set()).add(i)
    used: set[int] = set()
    pivots = []
    for c in range(ncols):
        cands = holders.get(c, set()) - used
        if not cands:
            continue
        r = min(cands, key=lambda i: (len(rows[i]), i))
        used.add(r)
        prow = rows[r]
        if p:
            inv = pow(prow[c], -1, p)
            prow = rows[r] = {k: v * inv % p for k, v in prow.items()}
        a = prow[c]
        for i in holders[c] - {r}:
            row = rows[i]
            t = row[c]
            if not p:  # row <- (a/g) row - (t/g) prow, g = gcd(a, t)
                g = gcd(a, t)
                s, t = a // g, t // g
                if s != 1:
                    for k in row:
                        row[k] *= s
            for k, v in prow.items():
                x = row.get(k)
                if x is None:
                    row[k] = -t * v % p if p else -t * v
                    holders.setdefault(k, set()).add(i)
                    continue
                x = (x - t * v) % p if p else x - t * v
                if x:
                    row[k] = x
                else:
                    del row[k]
                    holders[k].discard(i)
            if not p and (g := gcd(*row.values())) > 1:
                for k in row:
                    row[k] //= g
        pivots.append((c, prow))
    return pivots


def _solve(rows: list[Row], ncols: int, p: int) -> list | None:
    """Read x off the reduced system [A | b] (b in column ncols): free variables 0."""
    pivots = _gauss_jordan(rows, ncols + 1, p)
    if pivots and pivots[-1][0] == ncols:
        return None  # a pivot in the rhs column: inconsistent
    sol = [0 if p else Fraction(0)] * ncols
    for c, row in pivots:
        b = row.get(ncols, 0)
        sol[c] = b if p else Fraction(b, row[c])  # over F_p the pivot is 1
    return sol


def solve_rational(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to zero, so the answer is the first consistent
    solution in column order.
    """
    ncols = len(rows[0]) if rows else 0
    return _solve([_integer_terms({j: x for j, x in enumerate([*row, b]) if x})[0]
                   for row, b in zip(rows, rhs)], ncols, 0)


def solve_mod_p(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> list[int] | None:
    """One solution of A x = b over F_p (free variables zero), or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    return _solve([_residue_row([*row, b], p) for row, b in zip(rows, rhs)], ncols, p)


def nullspace_mod_p(rows: Sequence[Sequence[int]], p: int, ncols: int) -> list[Row]:
    """Basis of the right nullspace over F_p, one sparse vector per free column.

    The vector of free column f is 1 at f and minus f's entry of each pivot
    row at that row's column, which lies left of f; its keys ascend, and it
    has at most rank + 1 of them.  The rows are reduced as dense lists (a
    copy: the caller's rows are not changed).  A row not yet picked as a
    pivot is zero left of the column being eliminated, so each update
    touches only the columns from there on.
    """
    pending = [[x % p for x in row] for row in rows]
    cols: list[int] = []
    reduced: list[list[int]] = []
    for c in range(ncols):
        if not pending:
            break
        r = next((i for i, row in enumerate(pending) if row[c]), None)
        if r is None:
            continue
        prow = pending.pop(r)
        inv = pow(prow[c], -1, p)
        tail = prow[c:] = [v * inv % p for v in prow[c:]]
        for row in chain(reduced, pending):
            if t := row[c]:
                row[c:] = [(a - t * b) % p for a, b in zip(row[c:], tail)]
        cols.append(c)
        reduced.append(prow)
    entries = list(zip(*reduced)) if reduced else [()] * ncols  # entries[f]: column f
    basis = []
    for f in sorted(set(range(ncols)).difference(cols)):
        v = {c: p - x for c, x in zip(cols, entries[f]) if x}
        v[f] = 1
        basis.append(v)
    return basis
