"""The benchmark's own exact arithmetic for checking symmeq's answers.

Nothing here imports symmeq: every answer the benchmark accepts is
re-derived or re-verified with these Fraction routines (and, for float
optima, with scipy's HiGHS), never compared with saved output.

Matrices are lists of lists, indices 0-based.  A symmetric matrix P is
handled in upper-triangle coordinates u, ordered (0,0), (0,1), ...,
(0,m-1), (1,1), ... as in the package's symmetric-CE system.
"""

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    """Fraction from an int, a Fraction or a "p/q" string."""
    if isinstance(x, float):
        raise TypeError("exact checks take no floats")
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return [frac(x) for x in xs]


def mat(rows):
    return [[frac(x) for x in row] for row in rows]


def outer(x):
    return [[a * b for b in x] for a in x]


def mix(weights, strategies):
    """sum_k w_k x_k x_k^T."""
    m = len(strategies[0])
    P = [[ZERO] * m for _ in range(m)]
    for w, x in zip(weights, strategies):
        for i in range(m):
            for j in range(m):
                P[i][j] += w * x[i] * x[j]
    return P


def utility(A, P):
    m = len(A)
    return sum((A[i][j] * P[i][j] for i in range(m) for j in range(m)), ZERO)


def is_distribution(P):
    m = len(P)
    return (
        all(len(row) == m for row in P)
        and all(x >= 0 for row in P for x in row)
        and sum((x for row in P for x in row), ZERO) == 1
    )


def is_symmetric(P):
    m = len(P)
    return all(P[i][j] == P[j][i] for i in range(m) for j in range(i + 1, m))


def is_strategy(x):
    return all(v >= 0 for v in x) and sum(x, ZERO) == 1


# --- Nash ----------------------------------------------------------------


def is_best_response(A, x, y):
    """Is x supported only on best responses to y under payoffs A?"""
    m = len(A)
    pay = [sum((A[i][j] * y[j] for j in range(m)), ZERO) for i in range(m)]
    best = max(pay)
    return all(pay[i] == best for i in range(m) if x[i] != 0)


def is_nash_pair(A, x, y):
    """(x, y) is a Nash equilibrium of (A, A^T)."""
    return (
        is_strategy(x)
        and is_strategy(y)
        and is_best_response(A, x, y)
        and is_best_response(A, y, x)
    )


def symmetric_nash(A):
    """All symmetric Nash strategies of a generic game, by support
    enumeration, canonically sorted (support size, support, vector).

    Returns None when some support system is underdetermined, i.e. when
    the symmetric equilibria may form a continuum and no finite list is
    certainly complete."""
    m = len(A)
    found = []
    for r in range(1, m + 1):
        for S in itertools.combinations(range(m), r):
            # (A x)_i = v for i in S, sum x = 1, x supported on S
            rows = [[A[i][j] for j in S] + [-ONE] for i in S]
            rows.append([ONE] * r + [ZERO])
            rhs = [ZERO] * r + [ONE]
            status, sol = solve_square(rows, rhs)
            if status == "many":
                return None
            if status == "none":
                continue
            xS, v = sol[:r], sol[r]
            if any(val <= 0 for val in xS):
                continue
            x = [ZERO] * m
            for j, val in zip(S, xS):
                x[j] = val
            pay = [sum((A[i][j] * x[j] for j in range(m)), ZERO) for i in range(m)]
            if any(pay[i] > v for i in range(m) if i not in S):
                continue
            found.append((r, S, tuple(x)))
    found.sort()
    return [list(x) for _, _, x in found]


# --- exact linear algebra -----------------------------------------------


def solve_square(a, b):
    """Solve a square system exactly: ("unique", x), ("none", None) when
    inconsistent, or ("many", None) when underdetermined."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][n] != 0 for i in range(r, n)):
        return "none", None
    if r < n:
        return "many", None
    return "unique", [aug[i][n] for i in range(n)]


def rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def is_psd(P):
    """Exact PSD test of a symmetric rational matrix by LDL^T elimination:
    a negative pivot, or a zero pivot over a nonzero row, refutes it."""
    S = [list(row) for row in P]
    n = len(S)
    for k in range(n):
        d = S[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(S[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = S[i][k] / d
            if f:
                for j in range(k + 1, n):
                    S[i][j] -= f * S[k][j]
    return True


def quadratic_form(P, z):
    m = len(P)
    return sum((z[i] * P[i][j] * z[j] for i in range(m) for j in range(m)), ZERO)


# --- symmetric correlated equilibria ------------------------------------


def pairs(m):
    return [(i, j) for i in range(m) for j in range(i, m)]


def ce_gain(A, P, s, t):
    """Exact gain of deviating from recommendation s to t."""
    m = len(A)
    return sum(((A[t][j] - A[s][j]) * P[s][j] for j in range(m)), ZERO)


def is_ce(A, P):
    m = len(A)
    return all(
        ce_gain(A, P, s, t) <= 0 for s in range(m) for t in range(m) if s != t
    )


def _ce_rows(A):
    """Inequality rows a.u <= 0 of the symmetric-CE polytope in
    upper-triangle coordinates: incentive rows, then u >= 0."""
    m = len(A)
    ps = pairs(m)
    where = {p: k for k, p in enumerate(ps)}
    rows = []
    for s in range(m):
        for t in range(m):
            if s != t:
                a = [ZERO] * len(ps)
                for j in range(m):
                    a[where[tuple(sorted((s, j)))]] += A[t][j] - A[s][j]
                rows.append(a)
    for k in range(len(ps)):
        a = [ZERO] * len(ps)
        a[k] = -ONE
        rows.append(a)
    norm = [ONE if i == j else Fraction(2) for i, j in ps]
    return rows, norm


def is_ce_vertex(A, P):
    """P is a vertex of the symmetric-CE polytope: a feasible symmetric
    distribution whose tight constraints have full rank."""
    m = len(A)
    if not (is_distribution(P) and is_symmetric(P) and is_ce(A, P)):
        return False
    rows, norm = _ce_rows(A)
    u = [P[i][j] for i, j in pairs(m)]
    tight = [a for a in rows if sum((x * y for x, y in zip(a, u)), ZERO) == 0]
    return rank(tight + [norm]) == len(u)


def ce_vertices(A):
    """All vertices of the symmetric-CE polytope by brute force over
    tight sets (small m only)."""
    m = len(A)
    rows, norm = _ce_rows(A)
    n = len(norm)
    found = set()
    for sub in itertools.combinations(range(len(rows)), n - 1):
        status, sol = solve_square(
            [rows[k] for k in sub] + [norm], [ZERO] * (n - 1) + [ONE]
        )
        if status != "unique":
            continue
        if all(sum((x * y for x, y in zip(a, sol)), ZERO) <= 0 for a in rows):
            found.add(tuple(sol))
    out = []
    for u in sorted(found):
        P = [[ZERO] * m for _ in range(m)]
        for (i, j), x in zip(pairs(m), u):
            P[i][j] = P[j][i] = x
        out.append(P)
    return out


def ce_optimum_highs(A):
    """Float max utility over the symmetric-CE polytope from scipy's
    HiGHS, an LP code independent of symmeq's simplex."""
    from scipy.optimize import linprog

    m = len(A)
    rows, norm = _ce_rows(A)
    c = [-float(A[i][i]) if i == j else -float(A[i][j] + A[j][i]) for i, j in pairs(m)]
    res = linprog(
        c,
        A_ub=[[float(x) for x in a] for a in rows],
        b_ub=[0.0] * len(rows),
        A_eq=[[float(x) for x in norm]],
        b_eq=[1.0],
        bounds=[(None, None)] * len(c),
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"HiGHS failed: {res.message}")
    return -res.fun


# --- N-exchangeable orbit coordinates -----------------------------------


def count_vectors(m, N):
    """Count vectors of length m summing to N, lexicographic."""
    if m == 1:
        return [(N,)]
    return [
        (first,) + rest
        for first in range(N + 1)
        for rest in count_vectors(m - 1, N - first)
    ]


def pair_marginal(m, N, weights):
    """Joint law of two distinct players under orbit weights {k: w}."""
    P = [[ZERO] * m for _ in range(m)]
    for k, w in weights.items():
        for i in range(m):
            for j in range(m):
                P[i][j] += w * Fraction(k[i] * (k[j] - (i == j)), N * (N - 1))
    return P


def drop_one(m, N, weights):
    """Orbit weights of the first N-1 players."""
    out = {}
    for k, w in weights.items():
        for i in range(m):
            if k[i]:
                kk = tuple(c - (j == i) for j, c in enumerate(k))
                out[kk] = out.get(kk, ZERO) + w * Fraction(k[i], N)
    return {k: w for k, w in out.items() if w}


def extendability_system(W, N):
    """The orbit-weight system of "W is the pair marginal of an
    N-exchangeable law", built independently of symmeq in its row order:
    inequalities -w_k <= 0 per orbit, then equalities sum w = 1 and one
    row per upper-triangle pair."""
    m = len(W)
    ks = count_vectors(m, N)
    ineqs = []
    for a in range(len(ks)):
        e = [ZERO] * len(ks)
        e[a] = -ONE
        ineqs.append((e, ZERO))
    eqs = [([ONE] * len(ks), ONE)]
    for i, j in pairs(m):
        row = [Fraction(k[i] * (k[j] - (i == j)), N * (N - 1)) for k in ks]
        eqs.append((row, W[i][j]))
    return ineqs, eqs


def conv_nash_system(strategies, W):
    """The system "W is a convex combination of these Nash products" in
    symmeq's row order: weights >= 0 per product, one equality per pair,
    then the normalization."""
    m = len(W)
    k = len(strategies)
    products = [outer(x) for x in strategies]
    ineqs = []
    for a in range(k):
        e = [ZERO] * k
        e[a] = -ONE
        ineqs.append((e, ZERO))
    eqs = [([P[i][j] for P in products], W[i][j]) for i, j in pairs(m)]
    eqs.append(([ONE] * k, ONE))
    return ineqs, eqs


def farkas_ok(ineqs, eqs, ineq_mults, eq_mults):
    """y >= 0 on the inequalities and sum y_i (a_i, b_i) = (0, negative)."""
    if len(ineq_mults) != len(ineqs) or len(eq_mults) != len(eqs):
        return False
    if any(y < 0 for y in ineq_mults):
        return False
    n = len(ineqs[0][0]) if ineqs else len(eqs[0][0])
    combo = [ZERO] * n
    rhs = ZERO
    for y, (a, b) in list(zip(ineq_mults, ineqs)) + list(zip(eq_mults, eqs)):
        if y:
            for j in range(n):
                combo[j] += y * a[j]
            rhs += y * b
    return all(c == 0 for c in combo) and rhs < 0


def minority_pi(N):
    """Orbit weights of the balanced split: floor(N/2) players at one
    restaurant, the rest at the other, the larger side chosen fairly."""
    lo, hi = N // 2, N - N // 2
    if lo == hi:
        return {(lo, hi): ONE}
    return {(lo, hi): Fraction(1, 2), (hi, lo): Fraction(1, 2)}
