import random
from fractions import Fraction
from itertools import product

from ringlab.linalg import nullspace_mod_p, solve_mod_p, solve_rational
from ringlab.polynomials import monomials_up_to


def naive_solve_fractions(rows, rhs):
    """Textbook Gauss-Jordan with Fraction arithmetic; independent oracle."""
    if not rows:
        return []
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def dense_gauss_jordan_mod_p(m, p, ncols):
    """Dense Gauss-Jordan over F_p, in place; returns pivot columns.  Independent oracle."""
    nrows = len(m)
    pivots = []
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


def naive_solve_mod_p(rows, rhs, p):
    ncols = len(rows[0]) if rows else 0
    m = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = dense_gauss_jordan_mod_p(m, p, ncols + 1)
    if ncols in pivots:
        return None
    sol = [0] * ncols
    for r, c in enumerate(pivots):
        sol[c] = m[r][ncols]
    return sol


def naive_nullspace_mod_p(rows, p, ncols):
    """(rank, dense basis): one vector per free column, as the kernel promises."""
    m = [[x % p for x in row] for row in rows]
    pivots = dense_gauss_jordan_mod_p(m, p, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-m[r][free]) % p
        basis.append(v)
    return len(pivots), basis


def densify(v, ncols):
    return [v.get(i, 0) for i in range(ncols)]


def check_instance(rows, rhs):
    got = solve_rational(rows, rhs)
    oracle = naive_solve_fractions(rows, rhs)
    assert (got is None) == (oracle is None)
    assert got == oracle  # the same solution, free variables zero, not just a solution
    if got is not None:
        for row, b in zip(rows, rhs):
            assert sum(Fraction(a) * x for a, x in zip(row, got)) == Fraction(b)


def test_rational_solver_against_oracle_random():
    rng = random.Random(7)
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [rng.randint(-9, 9) for _ in range(nrows)]
        check_instance(rows, rhs)


def test_rational_solver_with_fractional_entries():
    rng = random.Random(11)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)]
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nrows)]
        check_instance(rows, rhs)


def test_rational_solver_rank_deficient_structured():
    # duplicate rows, zero columns, inconsistent duplicates
    check_instance([[1, 2], [2, 4]], [3, 6])
    check_instance([[1, 2], [2, 4]], [3, 7])
    check_instance([[0, 0, 5]], [10])
    check_instance([[0, 0], [0, 0]], [0, 0])
    check_instance([[0, 0], [0, 0]], [1, 0])


def test_mod_p_solver_against_brute_force():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(60):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [rng.randrange(p) for _ in range(nrows)]
            got = solve_mod_p(rows, rhs, p)
            solutions = [
                v for v in product(range(p), repeat=ncols)
                if all(sum(a * x for a, x in zip(row, v)) % p == b % p
                       for row, b in zip(rows, rhs))
            ]
            assert (got is None) == (not solutions)
            if got is not None:
                assert tuple(got) in solutions


def test_nullspace_mod_p_spans_all_solutions():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(40):
            nrows, ncols = rng.randint(0, 3), rng.randint(1, 4)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            basis = [densify(v, ncols) for v in nullspace_mod_p(rows, p, ncols)]
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
            # brute-force the full solution set and compare cardinalities
            solutions = {
                v for v in product(range(p), repeat=ncols)
                if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
            }
            assert len(solutions) == p ** len(basis)
            # every basis vector is a solution and they are independent by
            # construction (identity pattern on the free coordinates)
            spanned = set()
            for coeffs in product(range(p), repeat=len(basis)):
                combo = tuple(
                    sum(c * v[i] for c, v in zip(coeffs, basis)) % p
                    for i in range(ncols)
                )
                spanned.add(combo)
            assert spanned == solutions


def test_empty_system():
    assert solve_rational([[1]], [5]) == [Fraction(5)]
    assert [densify(v, 3) for v in nullspace_mod_p([], 2, 3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# -- the sparse kernel against the dense oracles, answer for answer -------------


def random_system(rng, entry):
    """A small system with zero rows and columns, duplicate and combined rows."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    density = rng.choice((0.2, 0.5, 1.0))
    rows = [[entry() if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    rhs = [entry() if rng.random() < density else 0 for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:  # a dependent row, consistent or not
        i, j = rng.sample(range(nrows), 2)
        k = rng.randint(-3, 3)
        rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + k * rhs[j] + rng.choice((0, 0, 1)))
    if rows and rng.random() < 0.3:
        rows.append([0] * ncols)
        rhs.append(rng.choice((0, 1)))
    return rows, rhs


def macaulay_system(rng, entry, consistent):
    """Columns are the shifts m * g of sparse generators, as in solve_in_span."""
    nvars = rng.randint(1, 3)
    bound = rng.randint(0, {1: 12, 2: 4, 3: 3}[nvars])
    shifts = monomials_up_to(nvars, bound)
    ngens = max(1, min(rng.randint(1, 3), 60 // len(shifts)))
    support = monomials_up_to(nvars, 3)
    gens = [{m: entry() for m in rng.sample(support, rng.randint(1, 3))} for _ in range(ngens)]
    columns = [{tuple(a + b for a, b in zip(m, s)): c for m, c in g.items()}
               for g in gens for s in shifts]
    if consistent:
        target = {}
        for col in rng.sample(columns, rng.randint(1, len(columns))):
            k = entry()
            for m, c in col.items():
                target[m] = target.get(m, 0) + k * c
    else:
        target = {m: entry() for m in rng.sample(monomials_up_to(nvars, bound + 3), 3)}
    row_of = {}
    for poly in (target, *columns):
        for m in poly:
            row_of.setdefault(m, len(row_of))
    rows = [[0] * len(columns) for _ in row_of]
    for j, col in enumerate(columns):
        for m, c in col.items():
            rows[row_of[m]][j] = c
    rhs = [0] * len(row_of)
    for m, c in target.items():
        rhs[row_of[m]] = c
    return rows, rhs


def small_int(rng):
    return lambda: rng.choice((-3, -2, -1, 1, 2, 3, 7, -11))


def small_fraction(rng):
    return lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def test_rational_solution_equals_the_dense_oracle_exactly():
    rng = random.Random("sparse Q")
    for entry in (small_int(rng), small_fraction(rng)):
        for _ in range(300):
            check_instance(*random_system(rng, entry))


def test_rational_solution_on_macaulay_matrices_equals_the_dense_oracle():
    rng = random.Random("macaulay Q")
    verdicts = set()
    for i in range(40):
        rows, rhs = macaulay_system(rng, small_fraction(rng) if i % 3 else small_int(rng), i % 2)
        assert len(rows[0]) <= 60
        got = solve_rational(rows, rhs)
        assert got == naive_solve_fractions(rows, rhs)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_mod_p_solution_equals_the_dense_oracle_exactly():
    rng = random.Random("sparse F_p")
    for p in (2, 3, 7, 32003):
        entry = lambda: rng.randint(-2 * p, 2 * p)  # noqa: E731 - unreduced entries too
        for _ in range(150):
            rows, rhs = random_system(rng, entry)
            assert solve_mod_p(rows, rhs, p) == naive_solve_mod_p(rows, rhs, p)
        for i in range(15):
            rows, rhs = macaulay_system(rng, entry, i % 2)
            assert solve_mod_p(rows, rhs, p) == naive_solve_mod_p(rows, rhs, p)


def test_empty_and_zero_systems():
    for solve in (solve_rational, lambda rows, rhs: solve_mod_p(rows, rhs, 5)):
        assert solve([], []) == []
        assert solve([[]], [0]) == []
        assert solve([[]], [3]) is None
        assert solve([[0, 0], [0, 0]], [0, 0]) == [0, 0]
        assert solve([[0, 0], [0, 0]], [0, 1]) is None
        assert solve([[0, 2, 0]], [4]) == [0, 2, 0]


def check_nullspace(rows, p, ncols):
    rank, oracle = naive_nullspace_mod_p(rows, p, ncols)
    basis = nullspace_mod_p(rows, p, ncols)
    assert len(basis) == ncols - rank
    for v in basis:
        assert len(v) <= rank + 1
        assert list(v) == sorted(v) and all(0 < x < p for x in v.values())
        assert all(sum(row[j] * x for j, x in v.items()) % p == 0 for row in rows)
    assert [densify(v, ncols) for v in basis] == oracle


def wide_system(rng, entry):
    """Random rows in the shape of a few points' evaluation rows over F_p^n, 1-3 rows
    by 300-400 columns: some all-zero columns (the first one at times), and at times
    an all-zero row or a duplicate row in place of the last."""
    ncols = rng.randint(300, 400)
    zero_cols = set(rng.sample(range(ncols), rng.randint(0, 40)))
    if rng.random() < 0.3:
        zero_cols.add(0)
    rows = [[0 if j in zero_cols else entry() for j in range(ncols)]
            for _ in range(rng.randint(1, 3))]
    if len(rows) >= 2 and rng.random() < 0.6:
        rows[-1] = [0] * ncols if rng.random() < 0.5 else list(rows[0])
    return rows


def test_nullspace_is_sparse_and_equals_the_dense_oracle():
    rng = random.Random("nullspace")
    for p in (2, 3, 5, 101):
        entry = lambda: rng.randint(-p, 3 * p)  # noqa: E731
        for _ in range(100):
            rows, _ = random_system(rng, entry)
            check_nullspace(rows, p, len(rows[0]) if rows else rng.randint(0, 4))
        for i in range(10):
            rows, _ = macaulay_system(rng, entry, i % 2)
            check_nullspace(rows, p, len(rows[0]))
        for _ in range(10):  # evaluation matrices of point sets, as in vanishing_ideal
            monos = list(product(range(p if p < 6 else 3), repeat=2))
            points = rng.sample(list(product(range(p), repeat=2)), rng.randint(1, min(6, p * p)))
            rows = [[pow(x, a, p) * pow(y, b, p) % p for a, b in monos] for x, y in points]
            check_nullspace(rows, p, len(monos))
        for _ in range(8):
            rows = wide_system(rng, entry)
            check_nullspace(rows, p, len(rows[0]))
        check_nullspace([], p, rng.randint(300, 400))
