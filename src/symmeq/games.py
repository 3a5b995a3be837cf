"""Core representations: symmetric bimatrix games, joint distributions,
mixed strategies, and the N-player pairwise-interaction extension.

All payoff and probability data is exact rational (fractions.Fraction).
Objects are immutable after construction and all operations are pure.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ZERO, ONE, frac

# the one default numerical tolerance: the SDP duality gap, and the CLI's
# --tol
DEFAULT_TOL = 1e-8


class DimensionError(ValueError):
    """Raised when matrix/vector dimensions do not match."""


class BudgetExceededError(ValueError):
    """A problem exceeds a size guard or budget: the orbit count, or the
    number of strategies that support enumeration or the exact PSD test
    handles."""


def _freeze_matrix(rows, m):
    if len(rows) != m or any(len(r) != m for r in rows):
        raise DimensionError(f"expected {m}x{m} matrix")
    if any(isinstance(x, bool) for r in rows for x in r):
        raise TypeError("matrix entries must be numbers, not true or false")
    return tuple(tuple(frac(x) for x in r) for r in rows)


def _size(d):
    """The size "m" of a game or distribution dict, which must be an int."""
    if type(d["m"]) is not int:
        raise TypeError(f"m must be an integer, got {d['m']!r}")
    return d["m"]


@dataclass(frozen=True)
class SymmetricGame:
    """A symmetric bimatrix game.

    `A[i][j]` is the row player's payoff; the column player's payoff matrix
    is A transposed by definition and is never stored.
    """

    m: int
    A: tuple
    labels: tuple = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least 2 strategies")
        object.__setattr__(self, "A", _freeze_matrix(self.A, self.m))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.m:
                raise DimensionError("labels length must equal m")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_dict(cls, d):
        m, labels = _size(d), d.get("labels")
        if labels is not None and (
            type(labels) is not list
            or any(type(x) is not str for x in labels)
        ):
            raise TypeError(f"labels must be a list of strings, got {labels!r}")
        return cls(m=m, A=d["A"], labels=labels)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        d = {"m": self.m, "A": [[str(x) for x in row] for row in self.A]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def label(self, i):
        return self.labels[i] if self.labels else str(i + 1)


@dataclass(frozen=True)
class JointDistribution:
    """An m x m matrix of strategy-profile probabilities.

    Symmetry is not required (asymmetric Nash products x y^T are legitimate
    distributions); symmetric-only operations check and reject.
    """

    m: int
    P: tuple

    def __post_init__(self):
        P = _freeze_matrix(self.P, self.m)
        object.__setattr__(self, "P", P)
        if any(x < 0 for row in P for x in row):
            raise ValueError("probabilities must be nonnegative")
        total = sum((x for row in P for x in row), ZERO)
        if total != 1:
            raise ValueError(f"probabilities must sum to 1, got {total}")

    @property
    def symmetric(self):
        return all(
            self.P[i][j] == self.P[j][i]
            for i in range(self.m)
            for j in range(i + 1, self.m)
        )

    def asymmetry_witness(self):
        """First (i, j) with P[i][j] != P[j][i], or None."""
        for i in range(self.m):
            for j in range(i + 1, self.m):
                if self.P[i][j] != self.P[j][i]:
                    return (i, j)
        return None

    @classmethod
    def from_dict(cls, d):
        return cls(m=_size(d), P=d["P"])

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {"m": self.m, "P": [[str(x) for x in row] for row in self.P]}


@dataclass(frozen=True)
class MixedStrategy:
    m: int
    x: tuple

    def __post_init__(self):
        if len(self.x) != self.m:
            raise DimensionError("strategy vector length must equal m")
        x = tuple(frac(v) for v in self.x)
        object.__setattr__(self, "x", x)
        if any(v < 0 for v in x):
            raise ValueError("probabilities must be nonnegative")
        if sum(x, ZERO) != 1:
            raise ValueError("probabilities must sum to 1")

    @property
    def support(self):
        return tuple(i for i, v in enumerate(self.x) if v > 0)


def expected_utility(game, dist):
    """Row player's expected utility sum_{ij} A[i][j] P[i][j].

    For a symmetric distribution this is also the column player's utility.
    """
    if game.m != dist.m:
        raise DimensionError("game and distribution dimensions differ")
    return sum(
        (game.A[i][j] * dist.P[i][j] for i in range(game.m) for j in range(game.m)),
        ZERO,
    )


def deviation_gains(game, P):
    """The symmetric-CE incentive of an m x m matrix P: for each
    recommendation s and deviation t != s, the pair ((s, t), gain) with
    gain = sum_j (A[t][j] - A[s][j]) P[s][j], the row player's exact
    expected gain from playing t whenever s is recommended.  P is a
    symmetric CE exactly when no gain is positive."""
    A, m = game.A, game.m

    def gain(s, t):
        return sum(((A[t][j] - A[s][j]) * P[s][j] for j in range(m)), ZERO)

    return [
        ((s, t), gain(s, t)) for s in range(m) for t in range(m) if s != t
    ]


def mixture(m, atoms):
    """The m x m matrix sum_i lam_i x_i x_i^T of (lam_i, x_i) atoms, with
    each x_i a sequence of m entries: exact for rational entries, and for
    floats the same sums as accumulating lam * outer(x, x) in numpy."""
    P = [[ZERO] * m for _ in range(m)]
    for lam, x in atoms:
        for i in range(m):
            for j in range(m):
                P[i][j] += lam * (x[i] * x[j])
    return P


def outer(x):
    """The rank-1 symmetric distribution x x^T of i.i.d. play."""
    return JointDistribution(m=x.m, P=mixture(x.m, [(ONE, x.x)]))


def symmetrize(A, B):
    """Symmetrize an asymmetric bimatrix game (A, B).

    Both players simultaneously play both roles: strategies are pairs (a, b)
    and u((a,b), (a',b')) = A[a][b'] + B[a'][b].  The result is a symmetric
    game with m1*m2 strategies.
    """
    A = [[frac(x) for x in row] for row in A]
    B = [[frac(x) for x in row] for row in B]
    m1 = len(A)
    m2 = len(A[0]) if m1 else 0
    if len(B) != m1 or any(len(r) != m2 for r in B):
        raise DimensionError("A and B must have the same shape")
    m = m1 * m2
    if m < 2:
        raise ValueError("symmetrized game needs at least 2 strategies")
    U = [[ZERO] * m for _ in range(m)]
    for a in range(m1):
        for b in range(m2):
            for a2 in range(m1):
                for b2 in range(m2):
                    U[a * m2 + b][a2 * m2 + b2] = A[a][b2] + B[a2][b]
    return SymmetricGame(m=m, A=U)


def npow_utility(game, N, profile, i):
    """Utility of player i in the N-player extension where each player plays
    the base game against every other player: sum_{j != i} A[s_i][s_j].

    Strategy and player indices are 0-based.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if len(profile) != N:
        raise DimensionError("profile length must equal N")
    if not 0 <= i < N:
        raise IndexError("player index out of range")
    if any(not 0 <= s < game.m for s in profile):
        raise IndexError("strategy index out of range")
    return sum((game.A[profile[i]][profile[j]] for j in range(N) if j != i), ZERO)


def uniform_distribution(m):
    w = Fraction(1, m * m)
    return JointDistribution(m=m, P=[[w] * m for _ in range(m)])
