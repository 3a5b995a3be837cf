"""Exact rational linear algebra."""

import itertools
import random
from fractions import Fraction

from symmeq.exactlin import (
    ONE,
    ZERO,
    det,
    dot,
    frac,
    mat_vec,
    nullspace,
    rank,
    solve,
)


def permanent_style_det(a):
    """Leibniz expansion oracle for small determinants."""
    n = len(a)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        sign = ONE
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if seen[i] > seen[j]
        )
        sign = ONE if inv % 2 == 0 else -ONE
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_frac_coercions():
    assert frac("3/7") == Fraction(3, 7)
    assert frac(0.25) == Fraction(1, 4)
    assert frac(0.1) == Fraction(1, 10)
    assert frac(5) == Fraction(5)
    assert frac(Fraction(2, 3)) == Fraction(2, 3)


def test_det_against_leibniz_oracle():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det(a) == permanent_style_det(a)


def test_rank_identities():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        r = rank(a)
        assert 0 <= r <= min(rows, cols)
        # rank + nullity = number of columns
        assert r + len(nullspace(a)) == cols
        # duplicating a row never changes the rank
        assert rank(a + [list(a[0])]) == r


def test_rank_square_vs_det():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
        assert (rank(a) == n) == (det(a) != 0)


def test_solve_particular_and_nullspace():
    rng = random.Random(17)
    solved = 0
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        res = solve(a, b)
        if res is None:
            # inconsistency confirmed by a rank jump of the augmented matrix
            aug = [a[i] + [b[i]] for i in range(rows)]
            assert rank(aug) == rank(a) + 1
            continue
        solved += 1
        particular, basis = res
        assert mat_vec(a, particular) == b
        for v in basis:
            assert mat_vec(a, v) == [ZERO] * rows
        assert len(basis) == cols - rank(a)
    assert solved > 0


def test_solve_inconsistent():
    assert solve([[ONE], [ONE]], [ZERO, ONE]) is None


def test_dot_and_mat_vec():
    assert dot([ONE, Fraction(2)], [Fraction(3), Fraction(4)]) == 11
    assert mat_vec([[ONE, ZERO], [ZERO, Fraction(2)]], [Fraction(5), ONE]) == [
        Fraction(5),
        Fraction(2),
    ]


def fraction_row_reduce(aug, cols):
    """Reference Gauss-Jordan in Fraction arithmetic, in place: each pivot
    row is divided by its pivot before it eliminates the column."""
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


def fraction_solve(a, b):
    """Reference solve: (particular, nullspace basis) or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    pivots = fraction_row_reduce(aug, cols)
    if any(aug[i][cols] != 0 for i in range(len(pivots), rows)):
        return None
    free_cols = [c for c in range(cols) if c not in {c for _, c in pivots}]
    particular = [ZERO] * cols
    for i, c in pivots:
        particular[c] = aug[i][cols]
    basis = []
    for fc in free_cols:
        v = [ZERO] * cols
        v[fc] = ONE
        for i, c in pivots:
            v[c] = -aug[i][fc]
        basis.append(v)
    return particular, basis


def test_integer_elimination_matches_fraction_reference():
    # mixed denominators, plain ints, zero rows, zero columns and dependent
    # rows: every scaling of a row to integers must cancel exactly
    rng = random.Random(31)
    solved = 0

    def entry():
        k = rng.random()
        if k < 0.3:
            return 0
        if k < 0.5:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))

    for _ in range(2000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            c = rng.randrange(cols)
            for row in a:
                row[c] = 0
        if rows > 1 and rng.random() < 0.3:
            f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            a[-1] = [f * x for x in a[0]]
        b = [entry() for _ in range(rows)]
        res = solve(a, b)
        assert res == fraction_solve(a, b)
        assert rank(a) == len(fraction_row_reduce([list(r) for r in a], cols))
        solved += res is not None
    assert solved >= 500
