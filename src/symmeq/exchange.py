"""Conditional-i.i.d. (complete positivity) certification.

A symmetric joint distribution is conditionally i.i.d. exactly when it is a
convex combination of outer products x x^T of mixed strategies.  Necessary
conditions are checked exactly by `dnn_refutation` (asymmetry, the
zero-pattern rule, positive semidefiniteness); double nonnegativity is also
sufficient for m <= DNN_IS_CP_MAX_M, while for larger m an exact
factorization (residual 0) is the only accepted positive evidence.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactlin import ZERO, ONE, ExactCheckError, frac
from .games import (
    DEFAULT_TOL,
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

# the denominator ladder for rounding float solver output to exact
# candidates, each verified exactly before it is accepted
DENOMINATORS = (8, 16, 64, 512, 4096, 10**6)

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
    """Weights and mixed strategies witnessing W = sum_i lam_i x_i x_i^T.

    residual is the max-abs reconstruction error; exact rational
    factorizations have residual 0.
    """

    atoms: tuple  # of (weight, MixedStrategy)
    residual: float

    @property
    def exact(self):
        return self.residual == 0

    def reconstruct(self):
        """The distribution sum_i lam_i x_i x_i^T (exact when possible)."""
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


def certify_conditionally_iid(W, tol=DEFAULT_TOL):
    """Decide whether a joint distribution is conditionally i.i.d.

    Out carries the `dnn_refutation` certificate.  Doubly nonnegative
    matrices are conditionally i.i.d. for m <= DNN_IS_CP_MAX_M (a
    factorization is attached when the numeric search finds one); for
    larger m only an exact factorization (residual 0) is conclusive, and a
    float one leaves the verdict Inconclusive.
    """
    refutation = dnn_refutation(W)
    if refutation is not None:
        return ExchangeabilityVerdict(NOT_CONDITIONALLY_IID, refutation)
    factorization = cp_factorize(W, tol=tol)
    if W.m <= DNN_IS_CP_MAX_M or (
        factorization is not None and factorization.exact
    ):
        cert = {"kind": "doubly_nonnegative"}
        if factorization is not None:
            cert = {"kind": "factorization", "factorization": factorization}
        return ExchangeabilityVerdict(CONDITIONALLY_IID, cert)
    return ExchangeabilityVerdict(
        INCONCLUSIVE,
        {
            "kind": "dnn_only",
            "note": "doubly nonnegative, no exact factorization found",
        },
    )


def cp_factorize(W, tol=DEFAULT_TOL):
    """Search for a completely positive factorization W = B B^T, B >= 0.

    None at once when `dnn_refutation` refutes W.  Otherwise multi-start
    projected-gradient descent on ||W - B B^T||_F^2 with a fixed seed
    schedule, followed by an attempt to rationalize the atoms to small
    denominators (verified exactly; on success the residual is 0).
    Returns a CPFactorization or None (never a proof of non-membership).
    """
    if dnn_refutation(W) is not None:
        return None
    m = W.m
    Wf = np.array([[float(x) for x in row] for row in W.P])
    kmax = m * (m + 1) // 2
    num_rank = int(np.linalg.matrix_rank(Wf, tol=1e-12))
    best = None
    for ncols in range(max(1, num_rank), kmax + 1):
        for s in range(20):
            rng = np.random.default_rng(31 * ncols + s)
            B = _nmf_descend(Wf, ncols, rng)
            res = float(np.max(np.abs(Wf - B @ B.T)))
            if best is None or res < best[1]:
                best = (B, res)
            if res <= tol * 1e-3:
                break
        if best is not None and best[1] <= tol * 1e-3:
            break
    if best is None or best[1] > tol:
        return None
    B = _merge_columns(best[0])
    raw = _float_atoms(B)
    fact = _rationalize(W, raw)
    if fact is not None:
        return fact
    atoms = [(w, MixedStrategy(m=m, x=_simplex_round(x))) for w, x in raw]
    res = _float_residual(W, atoms)
    if res > tol:
        return None
    return CPFactorization(atoms=tuple(atoms), residual=res)


def _simplex_round(x):
    v = [Fraction(float(t)).limit_denominator(10**12) for t in x]
    total = sum(v, ZERO)
    return tuple(t / total for t in v)


def _float_residual(W, atoms):
    float_atoms = [(float(lam), [float(t) for t in x.x]) for lam, x in atoms]
    rec = np.array(mixture(W.m, float_atoms))
    target = np.array([[float(t) for t in row] for row in W.P])
    return float(np.max(np.abs(target - rec)))


def _nmf_descend(Wf, k, rng):
    m = Wf.shape[0]
    B = rng.random((m, k)) * np.sqrt(max(Wf.max(), 1e-12) / k)
    step = 0.5 / max(np.linalg.norm(Wf) * k, 1e-9)
    prev = None
    for it in range(5000):
        R = B @ B.T - Wf
        G = 4.0 * R @ B
        B2 = np.clip(B - step * G, 0.0, None)
        f2 = float(np.linalg.norm(B2 @ B2.T - Wf) ** 2)
        if prev is not None and f2 > prev:
            step *= 0.5
            if step < 1e-16:
                break
            continue
        if prev is not None and prev - f2 < 1e-22 and it > 50:
            B = B2
            break
        B = B2
        prev = f2
        step *= 1.05
    return B


def _merge_columns(B):
    """Combine near-parallel columns (b b^T masses add) and drop negligible
    ones, to help rationalization find the structured factorization."""
    cols = []
    for c in range(B.shape[1]):
        b = np.clip(B[:, c], 0.0, None)
        nrm = np.linalg.norm(b)
        if nrm <= 1e-10:
            continue
        merged = False
        for i, other in enumerate(cols):
            onrm = np.linalg.norm(other)
            if onrm > 0 and np.dot(b, other) / (nrm * onrm) > 1 - 1e-8:
                cols[i] = np.sqrt(onrm**2 + nrm**2) * (
                    (other / onrm + b / nrm) / np.linalg.norm(
                        other / onrm + b / nrm
                    )
                )
                merged = True
                break
        if not merged:
            cols.append(b)
    return np.stack(cols, axis=1)


def _float_atoms(B):
    """The columns b of a nonnegative factor B as float atoms (w, x) with
    x = b / sum(b) on the simplex and w proportional to sum(b)^2, so that
    sum_i w_i x_i x_i^T is B B^T over its total mass."""
    raw = []
    for c in range(B.shape[1]):
        col = np.clip(B[:, c], 0.0, None)
        total = col.sum()
        if total < 1e-12:
            continue
        raw.append((total * total, col / total))
    wsum = sum(w for w, _ in raw)
    return [(w / wsum, x) for w, x in raw]


def _rationalize(W, raw):
    """Try to turn numeric float atoms into an exact rational
    factorization of W."""
    m = W.m
    for den in DENOMINATORS:
        try:
            atoms = []
            for w, x in raw:
                lam = Fraction(float(w)).limit_denominator(den)
                xs = [Fraction(float(t)).limit_denominator(den) for t in x]
                total = sum(xs, ZERO)
                if lam <= 0 or total == 0:
                    raise ValueError
                atoms.append((lam, tuple(t / total for t in xs)))
            lam_total = sum((lam for lam, _ in atoms), ZERO)
            atoms = [(lam / lam_total, x) for lam, x in atoms]
            rec = mixture(m, atoms)
            if all(
                rec[i][j] == W.P[i][j] for i in range(m) for j in range(m)
            ):
                return CPFactorization(
                    atoms=tuple(
                        (lam, MixedStrategy(m=m, x=x)) for lam, x in atoms
                    ),
                    residual=0.0,
                )
        except (ValueError, ZeroDivisionError):
            continue
    return None


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
