"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are lists of Fraction.
Everything here works by fraction-free-ish Gaussian elimination with exact
pivoting, so results are theorems about the input, not numerics.
"""

from fractions import Fraction

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


def mat_copy(a):
    return [list(row) for row in a]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a]


def dot(u, v):
    return sum((u[j] * v[j] for j in range(len(v))), ZERO)


def _row_reduce(aug, cols):
    """Gauss-Jordan on the first cols columns of aug, in place; returns the
    pivots (row, col) in order."""
    rows = len(aug)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def rank(a):
    """Rank of a rational matrix."""
    if not a:
        return 0
    return len(_row_reduce(mat_copy(a), len(a[0])))


def det(a):
    """Determinant of a square rational matrix."""
    n = len(a)
    m = mat_copy(a)
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
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    pivots = _row_reduce(aug, cols)
    r = len(pivots)
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    pivot_cols = {c for (_, c) in pivots}
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    particular = [ZERO] * cols
    for (i, c) in pivots:
        particular[c] = aug[i][cols]
    basis = []
    for fc in free_cols:
        v = [ZERO] * cols
        v[fc] = ONE
        for (i, c) in pivots:
            v[c] = -aug[i][fc]
        basis.append(v)
    return particular, basis


def nullspace(a):
    """Basis of the nullspace of a."""
    rows = len(a)
    res = solve(a, [ZERO] * rows)
    if res is None:
        raise ExactCheckError("a homogeneous system came out inconsistent")
    return res[1]
