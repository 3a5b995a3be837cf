"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fractions or ints.  `rank` and `solve`
share one fraction-free Gauss-Jordan elimination (after Bareiss 1968) on
rows scaled to integers by `_integer_row`, which the simplex tableau and
the vertex enumeration use too; results are theorems, not numerics.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class ExactCheckError(RuntimeError):
    """An exact re-check of a solver result failed, or a solver reached a
    state that the mathematics rules out.  Raised explicitly, so the check
    also runs under `python -O`."""


def frac(x):
    """Coerce ints/strings/Fractions to Fraction; floats go through repr so
    0.25 means 1/4 and 0.1 means 1/10 (decimal-to-rational)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a]


def dot(u, v):
    return sum((u[j] * v[j] for j in range(len(v))), ZERO)


def _reduced(row, den):
    """Divide an integer row and its denominator den > 0 by their content;
    den = 0 divides the row alone by its content."""
    g = gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


def _integer_row(values):
    """(integers, denominator) standing for a sequence of Fractions."""
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _row_reduce(rows, cols):
    """Gauss-Jordan on the first cols columns of the rational rows, kept as
    integer rows divided by their content.  Returns (ints, pivots), pivots
    the (row, col) in order: the reduced echelon form's row i is
    ints[i] / ints[i][c] at pivot (i, c), and the rows past the last pivot
    are zero in the first cols columns."""
    ints = [_integer_row(row)[0] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(ints):
            break
        piv = next((i for i in range(r, len(ints)) if ints[i][c]), None)
        if piv is None:
            continue
        ints[r], ints[piv] = ints[piv], ints[r]
        prow = ints[r]
        p = prow[c]
        for i, row in enumerate(ints):
            a = row[c]
            if a and i != r:
                ints[i] = _reduced([x * p - a * y for x, y in zip(row, prow)], 0)[0]
        pivots.append((r, c))
        r += 1
    return ints, pivots


def rank(a):
    """Rank of a rational matrix."""
    if not a:
        return 0
    return len(_row_reduce(a, len(a[0]))[1])


def det(a):
    """Determinant of a square rational matrix."""
    n = len(a)
    m = [list(row) for row in a]
    sign = ONE
    acc = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        acc *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return sign * acc


def solve(a, b):
    """Solve a @ x = b exactly.

    Returns (particular, nullspace_basis) where nullspace_basis is a list of
    vectors spanning the solution space of a @ x = 0, or None if the system
    is inconsistent.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug, pivots = _row_reduce([list(a[i]) + [b[i]] for i in range(rows)], cols)
    if any(row[cols] for row in aug[len(pivots):]):
        return None
    pivot_cols = {c for (_, c) in pivots}
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    particular = [ZERO] * cols
    for (i, c) in pivots:
        particular[c] = Fraction(aug[i][cols], aug[i][c])
    basis = []
    for fc in free_cols:
        v = [ZERO] * cols
        v[fc] = ONE
        for (i, c) in pivots:
            v[c] = Fraction(-aug[i][fc], aug[i][c])
        basis.append(v)
    return particular, basis


def nullspace(a):
    """Basis of the nullspace of a."""
    rows = len(a)
    res = solve(a, [ZERO] * rows)
    if res is None:
        raise ExactCheckError("a homogeneous system came out inconsistent")
    return res[1]
