"""Conditional-i.i.d. (complete positivity) certification.

A symmetric joint distribution is conditionally i.i.d. exactly when it is a
convex combination of outer products x x^T of mixed strategies.  Necessary
conditions are checked exactly by `dnn_refutation` (asymmetry, the
zero-pattern rule, positive semidefiniteness).  Positive evidence is an
exact factorization, which `cp_factorize` builds for every completely
positive matrix of rank at most 2, at any m; at higher rank, double
nonnegativity is also sufficient for m <= DNN_IS_CP_MAX_M, and beyond it
the verdict is Inconclusive.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .exactlin import ZERO, ONE, ExactCheckError, frac, rank, solve
from .games import (
    BudgetExceededError,
    JointDistribution,
    MixedStrategy,
    deviation_gains,
    mixture,
)

RNG_ALGORITHM = "numpy.random.PCG64"

# a doubly nonnegative matrix of order at most 4 is completely positive
# (Berman & Shaked-Monderer, Completely Positive Matrices, 2003)
DNN_IS_CP_MAX_M = 4

CONDITIONALLY_IID = "conditionally_iid"
NOT_CONDITIONALLY_IID = "not_conditionally_iid"
INCONCLUSIVE = "inconclusive"


def is_psd_exact(W):
    """Exact PSD decision for a symmetric rational matrix by one symmetric
    (LDL^T) elimination; when not PSD, also returns an exact rational
    witness z with z^T W z < 0.

    A positive pivot eliminates the rows below it, and a zero pivot with a
    zero row is skipped.  A negative pivot k gives the witness e_k, and a
    zero pivot k with S[k][j] != 0 the 2x2 witness z_k = -(S_jj + 1) /
    (2 S_kj), z_j = 1, on which the reduced form is exactly -1.  The
    witness is lifted back through the positive pivots p by
    z_p = -sum_{i>p} S[p][i] z_i / S[p][p].

    Returns (bool, witness-or-None).
    """
    m = len(W)
    if m > 8:
        raise BudgetExceededError("PSD decision guarded at m <= 8")
    for i in range(m):
        for j in range(i + 1, m):
            if W[i][j] != W[j][i]:
                raise ValueError("matrix is not symmetric")
    S = [[frac(W[i][j]) for j in range(m)] for i in range(m)]
    z = [ZERO] * m
    for k in range(m):
        d = S[k][k]
        if d < 0:
            z[k] = ONE
            break
        if d == 0:
            j = next((j for j in range(k + 1, m) if S[k][j] != 0), None)
            if j is None:
                continue
            z[k] = -(S[j][j] + 1) / (2 * S[k][j])
            z[j] = ONE
            break
        for i in range(k + 1, m):
            f = S[i][k] / d
            if f:
                for j in range(k + 1, m):
                    S[i][j] -= f * S[k][j]
    else:
        return True, None
    for p in range(k - 1, -1, -1):
        if S[p][p] > 0:
            lift = sum((S[p][i] * z[i] for i in range(p + 1, m)), ZERO)
            z[p] = -lift / S[p][p]
    if _quadratic_form(W, z) >= 0:
        raise ExactCheckError("PSD witness z fails z^T W z < 0")
    return False, tuple(z)


def _quadratic_form(W, z):
    m = len(W)
    return sum(
        (z[i] * W[i][j] * z[j] for i in range(m) for j in range(m)), ZERO
    )


@dataclass(frozen=True)
class CPFactorization:
    """Weights and mixed strategies witnessing W = sum_i lam_i x_i x_i^T
    exactly.

    residual, the reconstruction error, is always 0; it stays a field for
    the `check --json` certificate schema.
    """

    atoms: tuple  # of (weight, MixedStrategy)
    residual: float = 0.0

    @property
    def exact(self):
        return self.residual == 0

    def reconstruct(self):
        """The distribution sum_i lam_i x_i x_i^T."""
        m = self.atoms[0][1].m
        return mixture(m, [(lam, x.x) for lam, x in self.atoms])


@dataclass(frozen=True)
class ExchangeabilityVerdict:
    status: str
    certificate: dict

    @property
    def conditionally_iid(self):
        return self.status == CONDITIONALLY_IID


def dnn_refutation(W):
    """The exact certificate that a joint distribution is not doubly
    nonnegative, hence not conditionally i.i.d., or None when it is.

    Certificate priority: asymmetry, then the zero-pattern rule (a
    conditionally i.i.d. pair that never repeats t cannot play t at all),
    then an exact PSD refutation (a direction z with z^T P z < 0).
    """
    P = W.P
    witness = W.asymmetry_witness()
    if witness is not None:
        return {"kind": "asymmetry", "entry": witness}
    for t, tt in itertools.product(range(W.m), repeat=2):
        if P[t][t] == 0 and P[t][tt] > 0:
            return {"kind": "zero_pattern", "diagonal": t, "off_diagonal": tt}
    psd, z = is_psd_exact([list(row) for row in P])
    if psd:
        return None
    value = _quadratic_form(P, z)
    return {"kind": "negative_direction", "z": z, "value": value}


def certify_conditionally_iid(W):
    """Decide whether a joint distribution is conditionally i.i.d.

    Out carries the `dnn_refutation` certificate.  A doubly nonnegative
    matrix is In with the exact factorization from `cp_factorize` when its
    rank is at most 2, at any m; otherwise it is In for m <=
    DNN_IS_CP_MAX_M, where doubly nonnegative means completely positive,
    and Inconclusive beyond.
    """
    refutation = dnn_refutation(W)
    if refutation is not None:
        return ExchangeabilityVerdict(NOT_CONDITIONALLY_IID, refutation)
    factorization = cp_factorize(W)
    if factorization is not None:
        cert = {"kind": "factorization", "factorization": factorization}
        return ExchangeabilityVerdict(CONDITIONALLY_IID, cert)
    if W.m <= DNN_IS_CP_MAX_M:
        cert = {"kind": "doubly_nonnegative"}
        return ExchangeabilityVerdict(CONDITIONALLY_IID, cert)
    return ExchangeabilityVerdict(
        INCONCLUSIVE,
        {
            "kind": "dnn_only",
            "note": "doubly nonnegative, no exact factorization found",
        },
    )


def cp_factorize(W):
    """The exact factorization W = sum_i lam_i x_i x_i^T of a symmetric
    joint distribution of rank at most 2, or None.

    Rank 1 is the one atom W's normalised nonzero column.  At rank 2, W's
    columns span a plane whose nonnegative part is a cone with two extreme
    rays u, v, each ±(b2_i b1 - b1_i b2) for a basis b1, b2 of the plane;
    W = [u v] M [u v]^T with M = [[a, c], [c, b]], and W is completely
    positive iff M is doubly nonnegative (Berman & Shaked-Monderer,
    Completely Positive Matrices, 2003), when M splits into the atoms u and
    c u + b v.  None means W is asymmetric, not completely positive, or of
    rank 3 or more; the factorization returned is re-checked exactly.
    """
    if not W.symmetric:
        return None
    P = [list(row) for row in W.P]
    r = rank(P)
    if r == 1:
        atoms = [(ONE, _normalised(next(c for c in P if any(c))))]
    elif r == 2:
        atoms = _rank_two_atoms(P)
        if atoms is None:
            return None
    else:
        return None
    if any(lam <= 0 for lam, _ in atoms) or mixture(W.m, atoms) != P:
        raise ExactCheckError("factorization does not reproduce W")
    return CPFactorization(
        atoms=tuple((lam, MixedStrategy(m=W.m, x=x)) for lam, x in atoms)
    )


def _normalised(y):
    total = sum(y, ZERO)
    return tuple(t / total for t in y)


def _rank_two_atoms(P):
    """The two atoms (weight, x) of a rank-2 completely positive P, or
    None when P is not completely positive."""
    m = len(P)
    b1 = next(c for c in P if any(c))
    b2 = next(c for c in P if rank([b1, c]) == 2)
    rays = []
    for i in range(m):
        for sign in (1, -1):
            y = [sign * (b2[i] * s - b1[i] * t) for s, t in zip(b1, b2)]
            if any(y) and min(y) >= 0:
                x = _normalised(y)
                if x not in rays:
                    rays.append(x)
    if len(rays) != 2:
        return None
    u, v = rays
    rows = [
        [u[i] * u[j], u[i] * v[j] + v[i] * u[j], v[i] * v[j]]
        for i in range(m)
        for j in range(i, m)
    ]
    a, c, b = solve(rows, [P[i][j] for i in range(m) for j in range(i, m)])[0]
    if min(a, b, c) < 0 or a * b < c * c:
        return None
    # M = (a - c^2/b) e1 e1^T + (1/b) (c, b)(c, b)^T, and c u + b v sums to
    # c + b, so its atom weighs (c + b)^2 / b
    w = [c * s + b * t for s, t in zip(u, v)]
    return [(a - c * c / b, u), ((c + b) ** 2 / b, _normalised(w))]


@dataclass(frozen=True)
class CorrelationScheme:
    """A fully symmetric correlation scheme: a hidden state drawn from
    state_probs, then each player's recommendation drawn i.i.d. from the
    state's signal distribution; action maps are the identity."""

    m: int
    state_probs: tuple
    signals: tuple  # MixedStrategy per state

    def induced_distribution(self):
        """Exact joint distribution of the two recommendations."""
        atoms = zip(map(frac, self.state_probs), (x.x for x in self.signals))
        return JointDistribution(m=self.m, P=mixture(self.m, atoms))

    def sample(self, rng):
        probs = [float(p) for p in self.state_probs]
        state = rng.choice(len(probs), p=np.array(probs) / sum(probs))
        sig = [float(v) for v in self.signals[state].x]
        sig = np.array(sig) / sum(sig)
        return tuple(rng.choice(self.m, p=sig) for _ in range(2))


def scheme_from_factorization(fact):
    """Realize a factorization as a sampleable fully symmetric correlation
    scheme: hidden state i with probability lam_i, recommendations i.i.d.
    from x_i."""
    m = fact.atoms[0][1].m
    return CorrelationScheme(
        m=m,
        state_probs=tuple(lam for lam, _ in fact.atoms),
        signals=tuple(x for _, x in fact.atoms),
    )


def verify_scheme_equilibrium(game, scheme, samples=0, seed=0):
    """Check that obeying the scheme's recommendations is an equilibrium.

    `exact_gains` maps each pair (s, t), s != t, to the exact expected gain
    of playing t whenever s is recommended, computed from the induced joint
    distribution (the authority).  A deviation map f: C -> C gains the sum
    of its pairs' gains, so the best map gains `max_exact_gain` =
    sum_s max(0, max_t gain(s, t)), and obeying is an equilibrium iff no
    pair gains.  With samples > 0, `sampled_gains` holds Monte-Carlo
    estimates with standard errors, keyed the same way, to validate the
    sampler.
    """
    m = game.m
    A = game.A
    exact_gains = dict(
        deviation_gains(game, scheme.induced_distribution().P)
    )
    best = dict.fromkeys(range(m), ZERO)
    for (s, _), gain in exact_gains.items():
        best[s] = max(best[s], gain)
    report = {
        "exact_gains": exact_gains,
        "max_exact_gain": sum(best.values(), ZERO),
        "is_equilibrium": all(g <= 0 for g in exact_gains.values()),
        "rng_algorithm": RNG_ALGORITHM,
        "seed": seed,
        "samples": samples,
    }
    if samples > 0:
        rng = np.random.default_rng(seed)
        counts = np.zeros((m, m))
        for _ in range(samples):
            i, j = scheme.sample(rng)
            counts[i][j] += 1
        freq = counts / samples
        sampled = {}
        for s, t in exact_gains:
            diffs = np.array([float(A[t][j] - A[s][j]) for j in range(m)])
            mean = float((freq[s] * diffs).sum())
            second = float((freq[s] * diffs**2).sum())
            var = max(second - mean**2, 0.0)
            stderr = (var / samples) ** 0.5
            sampled[s, t] = (mean, stderr)
        report["sampled_gains"] = sampled
        report["empirical_matrix"] = freq
    return report
