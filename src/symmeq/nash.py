"""Nash equilibrium enumeration for small symmetric bimatrix games.

Support enumeration over balanced support pairs, solving the exact
indifference systems with rational arithmetic.  Underdetermined
(degenerate) systems contribute their basic solutions only and raise
degeneracy flags, so downstream claims about "all" equilibria stay honest.
Two flags are tracked: `degenerate` (the full Nash list may be incomplete,
e.g. best-response ties admitting asymmetric continua) and
`sym_degenerate` (the symmetric Nash list itself may be incomplete).
"""

import itertools
from dataclasses import dataclass, field

from .exactlin import ZERO, ONE, mat_vec, solve, frac
from .games import BudgetExceededError, MixedStrategy, outer
from .polytope import enumerate_vertices
from .simplex import LinearSystem, bound_rows

MAX_STRATEGIES = 6


@dataclass(frozen=True)
class NashPoint:
    x: MixedStrategy
    y: MixedStrategy

    @property
    def symmetric(self):
        return self.x.x == self.y.x


@dataclass(frozen=True)
class NashEnumeration:
    points: tuple
    degenerate: bool
    sym_degenerate: bool
    degenerate_supports: tuple = ()
    # support_pairs: balanced pairs (S, T) visited; systems_solved:
    # indifference systems solved; degenerate_pairs: pairs flagged
    stats: dict = field(default_factory=dict, compare=False)


def verify_nash(game, x, y):
    """Exact best-response check of (x, y) under payoffs (A, A^T)."""
    ay = mat_vec(game.A, list(y.x))      # row player's payoffs vs y
    ax = mat_vec(game.A, list(x.x))      # column player's payoffs vs x
    vy = max(ay)
    vx = max(ax)
    return all(ay[i] == vy for i in x.support) and all(
        ax[j] == vx for j in y.support
    )


def _support_solutions(game, S, T):
    """Solve the indifference system for a strategy supported on T that
    makes the rows S indifferent: (A y)_i = v for i in S, sum y = 1.

    Returns (solutions, underdetermined, feasible) where each solution is a
    (full length-m tuple, tie flag) with strictly positive entries on T and
    off-support rows not better than v.
    """
    A = game.A
    rows = []
    rhs = []
    for i in S:
        rows.append([A[i][j] for j in T] + [-ONE])
        rhs.append(ZERO)
    rows.append([ONE] * len(T) + [ZERO])
    rhs.append(ONE)
    res = solve(rows, rhs)
    if res is None:
        return [], False, False
    particular, basis = res
    if not basis:
        yT, v = particular[:-1], particular[-1]
        sol = _lift_and_check(game, S, T, yT, v)
        return ([sol] if sol is not None else []), False, sol is not None
    sols, feasible = _basic_solutions(game, S, T)
    return sols, True, feasible


def _lift_and_check(game, S, T, yT, v):
    if any(val <= 0 for val in yT):
        return None
    y = [ZERO] * game.m
    for j, val in zip(T, yT):
        y[j] = val
    ay = mat_vec(game.A, y)
    tie = False
    for i in range(game.m):
        if i in S:
            continue
        if ay[i] > v:
            return None
        if ay[i] == v:
            tie = True
    return tuple(y), tie


def _basic_solutions(game, S, T):
    """Vertices of {y >= 0 on T, (Ay)_i = v on S, (Ay)_i <= v off S,
    sum y = 1} with v rescaled into the open unit interval (v lies between
    the least and the greatest payoff), so the polytope is bounded by its
    own rows and never pinned by the box.

    Returns (strictly positive vertex solutions, whether the set is
    nonempty at all)."""
    A = game.A
    lo = min(min(row) for row in A) - 1
    hi = max(max(row) for row in A) + 1
    span = frac(hi - lo)
    k = len(T)
    # variables: y_T (k entries) then v' with v = lo + span * v'
    ineqs = []
    eqs = []
    for i in range(game.m):
        coeffs = [A[i][j] for j in T] + [-span]
        rhs = frac(lo)
        if i in S:
            eqs.append((coeffs, rhs))
        else:
            ineqs.append((coeffs, rhs))
    eqs.append(([ONE] * k + [ZERO], ONE))
    ineqs += bound_rows(k + 1, range(k))
    system = LinearSystem(num_vars=k + 1, inequalities=ineqs, equalities=eqs)
    verts = enumerate_vertices(system)
    sols = []
    for vert in verts:
        yT = vert[:k]
        if any(val <= 0 for val in yT):
            continue
        y = [ZERO] * game.m
        for j, val in zip(T, yT):
            y[j] = val
        sols.append((tuple(y), True))
    return sols, bool(verts)


def enumerate_nash(game):
    """All isolated Nash equilibria of (A, A^T) by support enumeration.

    Balanced support pairs only; for non-degenerate games this is
    exhaustive.  Ties and feasible underdetermined systems set the
    degeneracy flags instead of being enumerated as continua.
    """
    m = game.m
    if m > MAX_STRATEGIES:
        raise BudgetExceededError(
            f"support enumeration guarded at m <= {MAX_STRATEGIES}"
        )
    supports = [
        tuple(s)
        for r in range(1, m + 1)
        for s in itertools.combinations(range(m), r)
    ]
    found = {}
    degenerate = False
    sym_degenerate = False
    degenerate_supports = []
    # each ordered pair's system serves twice: as ys at (S, T) and as xs at
    # (T, S); the dict lives for this call only
    solved = {}

    def solutions(rows, cols):
        if (rows, cols) not in solved:
            solved[rows, cols] = _support_solutions(game, rows, cols)
        return solved[rows, cols]

    pairs = 0
    for S in supports:
        for T in supports:
            if len(S) != len(T):
                continue
            pairs += 1
            ys, under_y, feas_y = solutions(S, T)
            # x lives on S and makes the column player's strategies T
            # indifferent; the column player's payoff for pure j is (Ax)_j,
            # so the same solver applies with the roles swapped.
            xs, under_x, feas_x = solutions(T, S)
            tie = any(t for _, t in ys) or any(t for _, t in xs)
            under = (under_y and feas_y) or (under_x and feas_x)
            if tie or under:
                degenerate = True
                degenerate_supports.append((S, T))
            if S == T and under:
                sym_degenerate = True
            for y, _ in ys:
                for x, _ in xs:
                    mx = MixedStrategy(m=m, x=x)
                    my = MixedStrategy(m=m, x=y)
                    if mx.support != S or my.support != T:
                        continue
                    if verify_nash(game, mx, my):
                        found[(x, y)] = NashPoint(x=mx, y=my)

    def key(pt):
        return (
            (len(pt.x.support), pt.x.support),
            (len(pt.y.support), pt.y.support),
            pt.x.x,
            pt.y.x,
        )

    return NashEnumeration(
        points=tuple(sorted(found.values(), key=key)),
        degenerate=degenerate,
        sym_degenerate=sym_degenerate,
        degenerate_supports=tuple(degenerate_supports),
        stats={
            "support_pairs": pairs,
            "systems_solved": len(solved),
            "degenerate_pairs": len(degenerate_supports),
        },
    )


def symmetric_part(enum):
    """The symmetric Nash strategies of a full enumeration, canonically
    sorted (by support size, then support, then vector), with its flags
    and stats."""
    seen = {}
    for pt in enum.points:
        if pt.symmetric:
            seen[pt.x.x] = pt.x
    strategies = tuple(
        sorted(
            seen.values(),
            key=lambda s: (len(s.support), s.support, s.x),
        )
    )
    return NashEnumeration(
        points=strategies,
        degenerate=enum.degenerate,
        sym_degenerate=enum.sym_degenerate,
        degenerate_supports=enum.degenerate_supports,
        stats=enum.stats,
    )


def enumerate_symmetric_nash(game):
    """All isolated symmetric Nash strategies: `symmetric_part` of
    `enumerate_nash(game)`."""
    return symmetric_part(enumerate_nash(game))


def rational_exchangeable_point(game):
    """An exact rational exchangeable equilibrium: the outer product of the
    first canonical symmetric Nash strategy."""
    enum = enumerate_symmetric_nash(game)
    if not enum.points:
        raise ValueError("no symmetric Nash strategy found (degenerate game)")
    return outer(enum.points[0])
