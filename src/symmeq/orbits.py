"""N-exchangeable distributions in orbit (count-vector) coordinates.

A permutation-invariant distribution over N players' strategy profiles is
determined by one weight per orbit, where an orbit is the multiset of
strategies played, written as a count vector k with sum(k) = N.  This
collapses extendability questions from m^N profile variables to
C(N+m-1, m-1) orbit variables without losing exactness.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ZERO, ONE, ExactCheckError, frac, rank
from .games import (
    BudgetExceededError,
    JointDistribution,
    SymmetricGame,
    deviation_gains,
)
from .polytope import SymCEIndex
from .simplex import LinearSystem, bound_rows, lp_solve, require_infeasible

DEFAULT_ORBIT_BUDGET = 200000


def count_vectors(m, N):
    """All count vectors k of length m with nonnegative entries summing
    to N, in lexicographic order."""
    if m == 1:
        return [(N,)]
    out = []
    for first in range(N + 1):
        for rest in count_vectors(m - 1, N - first):
            out.append((first,) + rest)
    return out


def multinomial(N, k):
    """Number of distinct profiles in the orbit with counts k."""
    num = math.factorial(N)
    for c in k:
        num //= math.factorial(c)
    return num


@dataclass(frozen=True)
class OrbitDistribution:
    """Orbit weights of an N-exchangeable distribution.

    `weights[k]` is the total probability of all profiles whose strategy
    counts equal k; each single profile in the orbit has probability
    weights[k] / multinomial(N, k).
    """

    m: int
    N: int
    weights: tuple  # of (count vector, Fraction), zero weights omitted

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need N >= 2")
        frozen = []
        total = ZERO
        for k, w in (
            self.weights.items()
            if isinstance(self.weights, dict)
            else self.weights
        ):
            k = tuple(int(c) for c in k)
            w = frac(w)
            if len(k) != self.m or any(c < 0 for c in k) or sum(k) != self.N:
                raise ValueError(f"bad count vector {k}")
            if w < 0:
                raise ValueError("orbit weights must be nonnegative")
            total += w
            if w > 0:
                frozen.append((k, w))
        if total != 1:
            raise ValueError(f"orbit weights must sum to 1, got {total}")
        frozen.sort()
        object.__setattr__(self, "weights", tuple(frozen))

    def weight(self, k):
        k = tuple(k)
        for kk, w in self.weights:
            if kk == k:
                return w
        return ZERO

    @classmethod
    def from_dict(cls, d):
        return cls(
            m=int(d["m"]),
            N=int(d["N"]),
            weights=[(e["k"], e["w"]) for e in d["weights"]],
        )

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {
            "m": self.m,
            "N": self.N,
            "weights": [
                {"k": list(k), "w": str(w)} for k, w in self.weights
            ],
        }

    def to_file(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def iid_orbits(x, N):
    """Orbit weights of N i.i.d. draws from a mixed strategy
    (multinomial distribution)."""
    weights = []
    for k in count_vectors(x.m, N):
        w = Fraction(multinomial(N, k))
        for i, c in enumerate(k):
            w *= x.x[i] ** c
        if w > 0:
            weights.append((k, w))
    return OrbitDistribution(m=x.m, N=N, weights=weights)


def _pair_coefficient(k, i, j, N):
    """P(X1 = i, X2 = j) within a single orbit k: the count-vector
    hypergeometric k_i (k_j - delta_ij) / (N (N-1))."""
    delta = 1 if i == j else 0
    return Fraction(k[i] * (k[j] - delta), N * (N - 1))


def bivariate_marginal(d):
    """Exact joint distribution of two distinct players' strategies."""
    m, N = d.m, d.N
    P = [[ZERO] * m for _ in range(m)]
    for k, w in d.weights:
        for i in range(m):
            for j in range(m):
                P[i][j] += w * _pair_coefficient(k, i, j, N)
    return JointDistribution(m=m, P=P)


def drop_one_marginal(d):
    """The (N-1)-exchangeable marginal of the first N-1 players."""
    if d.N < 3:
        raise ValueError("need N >= 3 to drop a player")
    m, N = d.m, d.N
    out = {}
    for k, w in d.weights:
        for i in range(m):
            if k[i] == 0:
                continue
            kk = list(k)
            kk[i] -= 1
            kk = tuple(kk)
            out[kk] = out.get(kk, ZERO) + w * Fraction(k[i], N)
    return OrbitDistribution(m=m, N=N - 1, weights=sorted(out.items()))


@dataclass(frozen=True)
class ExtendabilityResult:
    feasible: bool
    N: int
    orbit: OrbitDistribution = None
    certificate: object = None
    system: LinearSystem = None
    unique: bool = None


def _orbits_within_budget(m, N, budget):
    """count_vectors(m, N), after checking their number against the budget
    (before any of them, or any LP row over them, is built)."""
    n_orbits = math.comb(N + m - 1, m - 1)
    if n_orbits > budget:
        raise BudgetExceededError(
            f"{n_orbits} orbits exceed the budget of {budget}"
        )
    return count_vectors(m, N)


def _orbit_lp_system(ks, equalities):
    """Nonnegativity + normalization + caller equalities over the orbit
    weights of the count vectors ks."""
    n = len(ks)
    return LinearSystem(
        num_vars=n,
        inequalities=bound_rows(n, range(n)),
        equalities=[([ONE] * n, ONE)] + equalities,
    )


def extendability_lp(game, W, N, budget=DEFAULT_ORBIT_BUDGET):
    """Decide whether W extends to an N-exchangeable distribution.

    Pure extendability: the bivariate marginal of the unknown orbit
    distribution must equal W exactly.  Whether W itself is a correlated
    equilibrium is a separate question (n_exchangeable_equilibrium_check).
    """
    if N < 2:
        raise ValueError("need N >= 2")
    m = game.m
    if W.m != m:
        raise ValueError("game and distribution dimensions differ")
    if not W.symmetric:
        raise ValueError("extendability needs a symmetric distribution")
    index = SymCEIndex(m)
    ks = _orbits_within_budget(m, N, budget)
    eqs = []
    for pos in range(index.size):
        i, j = index.pair(pos)
        row = [_pair_coefficient(k, i, j, N) for k in ks]
        eqs.append((row, W.P[i][j]))
    system = _orbit_lp_system(ks, eqs)
    res = lp_solve(system, [ZERO] * len(ks))
    if res.status == "optimal":
        orbit = OrbitDistribution(
            m=m, N=N, weights=list(zip(ks, res.point))
        )
        return ExtendabilityResult(
            feasible=True, N=N, orbit=orbit, system=system
        )
    require_infeasible(system, res)
    return ExtendabilityResult(
        feasible=False, N=N, certificate=res.dual_certificate, system=system
    )


def _is_unique(system, x):
    """Is x the only point of {v >= 0 : E v = e}, with E v = e the system's
    equalities?

    x is unique iff no direction d != 0 has E d = 0 and d_Z >= 0 on the
    zero set Z of x.  So E restricted to the support of x must have full
    column rank, and max 1^T d_Z over {E d = 0, d_Z >= 0, 1^T d_Z <= 1}
    must be 0.
    """
    n = system.num_vars
    rows = [a for a, _ in system.equalities]
    support = [j for j in range(n) if x[j]]
    if rank([[row[j] for j in support] for row in rows]) < len(support):
        return False
    if len(support) == n:
        return True
    on_zero = [ZERO if x[j] else ONE for j in range(n)]
    bounds = bound_rows(n, [j for j in range(n) if not x[j]])
    directions = LinearSystem(
        num_vars=n,
        inequalities=bounds + [(on_zero, ONE)],
        equalities=[(row, ZERO) for row in rows],
    )
    res = lp_solve(directions, on_zero)
    if res.status != "optimal":
        raise ExactCheckError(f"direction LP came out {res.status}")
    return res.optimum == 0


def extension_lp(d, budget=DEFAULT_ORBIT_BUDGET):
    """Decide whether d extends to an (N+1)-exchangeable distribution,
    i.e. find orbit weights at N+1 whose drop-one marginal equals d.

    When feasible, uniqueness is decided exactly by one rank test and one
    LP over the directions leaving the point found (_is_unique).
    """
    m, N = d.m, d.N
    ks = _orbits_within_budget(m, N + 1, budget)
    # drop-one marginal of the unknown weights, one equality per orbit of
    # N: dropping a player who plays i maps orbit kk to kk - e_i
    rows = {k: [ZERO] * len(ks) for k in count_vectors(m, N)}
    for col, kk in enumerate(ks):
        for i in range(m):
            if kk[i] > 0:
                k = kk[:i] + (kk[i] - 1,) + kk[i + 1:]
                rows[k][col] = Fraction(kk[i], N + 1)
    eqs = [(row, d.weight(k)) for k, row in rows.items()]
    system = _orbit_lp_system(ks, eqs)
    res = lp_solve(system, [ZERO] * len(ks))
    if res.status != "optimal":
        require_infeasible(system, res)
        return ExtendabilityResult(
            feasible=False,
            N=N + 1,
            certificate=res.dual_certificate,
            system=system,
        )
    orbit = OrbitDistribution(m=m, N=N + 1, weights=list(zip(ks, res.point)))
    unique = _is_unique(system, res.point)
    return ExtendabilityResult(
        feasible=True, N=N + 1, orbit=orbit, system=system, unique=unique
    )


@dataclass(frozen=True)
class EquilibriumCheck:
    is_equilibrium: bool
    margins: tuple  # of ((s, t), gain); equilibrium iff all gains <= 0
    marginal: JointDistribution


def n_exchangeable_equilibrium_check(game, d):
    """Is d an N-exchangeable equilibrium of the game?

    Equivalent to its bivariate marginal satisfying the symmetric-CE
    system; exact deviation gains are reported per recommendation pair.
    """
    W = bivariate_marginal(d)
    margins = tuple(deviation_gains(game, W.P))
    return EquilibriumCheck(
        is_equilibrium=all(g <= 0 for _, g in margins),
        margins=margins,
        marginal=W,
    )


def minority_game():
    """The two-restaurant anticoordination game: a point per opponent at
    the other restaurant."""
    return SymmetricGame(m=2, A=((0, 1), (1, 0)), labels=("A", "B"))


def minority_pi(N):
    """The balanced-split equilibrium pi^N: a uniformly random pure profile
    with floor(N/2) players in one restaurant and the rest in the other."""
    if N < 2:
        raise ValueError("need N >= 2")
    lo, hi = N // 2, N - N // 2
    if lo == hi:
        weights = [((lo, hi), ONE)]
    else:
        weights = [((lo, hi), Fraction(1, 2)), ((hi, lo), Fraction(1, 2))]
    return OrbitDistribution(m=2, N=N, weights=weights)


@dataclass(frozen=True)
class ParityEntry:
    N: int
    feasible: bool
    unique: bool
    extension: OrbitDistribution = None


def minority_parity_suite(n_max, budget=DEFAULT_ORBIT_BUDGET):
    """For each N <= n_max, decide whether pi^N extends to an
    (N+1)-exchangeable distribution and whether the extension is unique."""
    entries = []
    for N in range(2, n_max + 1):
        res = extension_lp(minority_pi(N), budget=budget)
        entries.append(
            ParityEntry(
                N=N,
                feasible=res.feasible,
                unique=res.unique,
                extension=res.orbit if res.feasible else None,
            )
        )
    return tuple(entries)


def envelope_simulate(d, seed=0, trials=10000):
    """Sealed-envelope sampling of the bivariate marginal.

    Each trial: draw an orbit, fill N shuffled envelopes with the orbit's
    strategy counts, open two distinct envelopes, and tally the ordered
    pair.  Returns the empirical m x m frequency matrix (Fractions).
    """
    import numpy as np

    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = np.random.default_rng(seed)
    m, N = d.m, d.N
    orbits = [k for k, _ in d.weights]
    probs = np.array([float(w) for _, w in d.weights])
    probs = probs / probs.sum()
    counts = [[0] * m for _ in range(m)]
    for _ in range(trials):
        k = orbits[rng.choice(len(orbits), p=probs)]
        envelopes = [i for i in range(m) for _ in range(k[i])]
        rng.shuffle(envelopes)
        # a uniformly shuffled pile: the first two envelopes are a uniform
        # ordered pair of distinct draws
        counts[envelopes[0]][envelopes[1]] += 1
    return [
        [Fraction(counts[i][j], trials) for j in range(m)] for i in range(m)
    ]
