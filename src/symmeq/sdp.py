"""Dense log-barrier solver for small DNN-cap-polytope programs.

Maximizes a linear functional of a symmetric m x m matrix variable over the
intersection of a polytope (inequalities/equalities on the upper-triangle
coordinates) with the positive semidefinite cone.

Exact preprocessing comes first, on bounded polytopes only.  Inequalities
that are tight on the whole polytope join the equalities.  They are found
by exact LPs over the system itself, each maximizing the total slack of the
rows still in question and dropping those slack at its optimum, until no
row drops.  Then one exact solve of the equalities gives their affine
hull: a rational point u0 and a null-space basis of size k.
When k = 0 the polytope is the single point u0 and no barrier runs: an exact
PSD test of W(u0) makes the program optimal at u0 or infeasible.

When k >= 1 the barrier runs in the coordinates z of u = u0 + Q z, with Q an
orthonormal float basis of that null space, so every Newton step solves an
unconstrained k x k system and no iterate drifts off the equality plane.
One centering routine serves both phases.  Phase 1 appends a variable s
that enters every slack and the PSD block, and drives it below zero; phase
2 follows the central path of the objective, with t growing tenfold per
centering.  A tiny uniform relaxation `delta` keeps the method well defined
on feasible sets with empty interior (which really occur: some games'
DNN-cap-CE set is a single rank-1 matrix), so a barrier value carries
tolerance `gap + O(delta)`, never an exactness claim.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import ExactCheckError, dot, solve
from .exchange import is_psd_exact
from .games import DEFAULT_TOL
from .polytope import SymCEIndex, ce_system
from .simplex import lp_solve

STOP_REASONS = ("converged", "line_search_failed", "singular", "step_cap")


@dataclass(frozen=True)
class SdpProblem:
    m: int
    objective: np.ndarray          # symmetric m x m coefficient matrix
    G: np.ndarray                  # inequality rows: G u <= h
    h: np.ndarray
    E: np.ndarray                  # equality rows E u = f, kept only for
    f: np.ndarray                  # the residual report (u0, Q solve them)
    linear_infeasible: bool = False  # exact verdict from preprocessing
    u0: tuple = None               # exact point with E u0 = f
    Q: np.ndarray = None           # orthonormal basis of null(E), dim x k

    @property
    def dim(self):
        return self.m * (self.m + 1) // 2


@dataclass(frozen=True)
class SdpResult:
    status: str                    # optimal | infeasible | numerical_failure
    value: float
    matrix: np.ndarray
    gap: float
    delta: float
    iterations: int                # centerings, both phases
    residuals: dict
    # k, and per phase the centerings, Newton steps and backtracks, plus a
    # count of each reason a centering stopped (STOP_REASONS)
    stats: dict = field(default_factory=dict)


def _split_implicit_equalities(system):
    """Exact preprocessing: inequalities whose slack is zero everywhere on
    the feasible set are really equalities, and leaving them as inequalities
    ruins the barrier's conditioning.  Returns (inequalities, equalities,
    linear_infeasible); the equalities may be linearly dependent.

    Each round solves one LP over the system itself, maximizing the total
    slack of the candidate rows T (at first all inequalities), and shrinks
    T to its rows tight at the optimal point.  A row that leaves T is slack
    somewhere, so it is no implicit equality.  When T stops shrinking the
    optimum is zero, so every row left in T is tight on the whole polytope;
    an empty T needs no further LP.  Each round but the last shrinks T, so
    there are at most |T| + 1 LPs.  Only bounded polytopes are accepted:
    an unbounded LP raises ValueError.
    """
    rows = system.inequalities
    candidates = list(range(len(rows)))
    while True:
        objective = [
            -sum(rows[i][0][j] for i in candidates)
            for j in range(system.num_vars)
        ]
        res = lp_solve(system, objective)
        if res.status == "infeasible":
            return list(rows), list(system.equalities), True
        if res.status == "unbounded":
            raise ValueError("implicit equalities need a bounded polytope")
        tight = [
            i for i in candidates if dot(rows[i][0], res.point) == rows[i][1]
        ]
        shrunk = len(tight) < len(candidates)
        candidates = tight
        if not (shrunk and candidates):
            break
    implicit = set(candidates)
    ineqs = [row for i, row in enumerate(rows) if i not in implicit]
    eqs = list(system.equalities) + [rows[i] for i in candidates]
    return ineqs, eqs, False


def problem_from_system(m, system, objective_matrix):
    """Wrap a symmetric-coordinates LinearSystem plus a PSD constraint."""
    index = SymCEIndex(m)
    n = index.size
    ineqs, eqs, linear_infeasible = _split_implicit_equalities(system)
    G = np.array(
        [[float(c) for c in a] for a, _ in ineqs]
    ).reshape(-1, n)
    h = np.array([float(b) for _, b in ineqs])
    E = np.array(
        [[float(c) for c in a] for a, _ in eqs]
    ).reshape(-1, n)
    f = np.array([float(b) for _, b in eqs])
    obj = np.array(
        [[float(objective_matrix[i][j]) for j in range(m)] for i in range(m)]
    )
    obj = 0.5 * (obj + obj.T)
    u0, Q = (None, None) if linear_infeasible else _affine_hull(n, eqs)
    return SdpProblem(
        m=m,
        objective=obj,
        G=G,
        h=h,
        E=E,
        f=f,
        linear_infeasible=linear_infeasible,
        u0=u0,
        Q=Q,
    )


def _affine_hull(n, eqs):
    """Exact point u0 and orthonormal float basis Q (n x k) of the solutions
    of the equality rows."""
    if not eqs:
        return (Fraction(0),) * n, np.eye(n)
    sol = solve([list(a) for a, _ in eqs], [b for _, b in eqs])
    if sol is None:
        raise ExactCheckError("the equalities of a feasible system came out "
                              "inconsistent")
    u0, basis = sol
    if not basis:
        return tuple(u0), np.zeros((n, 0))
    Q, _ = np.linalg.qr(np.array([[float(x) for x in v] for v in basis]).T)
    return tuple(u0), Q


def dnn_ce_problem(game, objective_matrix=None):
    """The DNN-cap-symmetric-CE program for a game; default objective is the
    expected utility."""
    if objective_matrix is None:
        objective_matrix = game.A
    return problem_from_system(
        game.m, ce_system(game, symmetric_only=True), objective_matrix
    )


class _Geometry:
    """Index bookkeeping between upper-triangle vectors and matrices."""

    def __init__(self, m):
        self.m = m
        index = SymCEIndex(m)
        pairs = index.pairs
        self.I = np.array([p[0] for p in pairs])
        self.J = np.array([p[1] for p in pairs])
        self.mu = np.where(self.I == self.J, 1.0, 2.0)

    def mat(self, u):
        W = np.zeros((self.m, self.m))
        W[self.I, self.J] = u
        W[self.J, self.I] = u
        return W

    def vec_obj(self, C):
        return self.mu * C[self.I, self.J]


def _center(W0, Ms, G, h0, c, z, t, tol_dec, max_steps=60):
    """Minimize -t c.z - log det(W0 + sum_i z_i Ms[i]) - sum log(h0 - G z)
    by damped Newton steps from a strictly feasible z.

    Returns (z, reason, steps, backtracks), where reason is one of
    STOP_REASONS: `line_search_failed` means no Armijo step stays inside the
    domain, i.e. float64 cannot improve this center any more, and
    `singular` that the Newton system (or the start) could not be factored.
    """
    p, m = len(z), len(W0)
    M = Ms.reshape(p, m * m)

    def merit(z):
        slack = h0 - G @ z
        if np.any(slack <= 0):
            return None
        # one Cholesky both tests W > 0 and gives log det W; a positive
        # determinant alone does not imply PSD
        try:
            L = np.linalg.cholesky(W0 + (z @ M).reshape(m, m))
        except np.linalg.LinAlgError:
            return None
        logdet = 2.0 * float(np.log(np.diagonal(L)).sum())
        return -t * float(c @ z) - logdet - float(np.log(slack).sum()), L, slack

    cur = merit(z)
    if cur is None:
        return z, "singular", 0, 0
    backtracks = 0
    for step in range(max_steps):
        val, L, slack = cur
        Li = np.linalg.inv(L)
        # with B_i = L^-1 M_i L^-T: d/dz_i -log det W = -tr B_i and the
        # Hessian entry (i, j) is <B_i, B_j>
        B = (Li @ Ms @ Li.T).reshape(p, m * m)
        Gs = G / slack[:, None]
        grad = -t * c - B[:, :: m + 1].sum(axis=1) + Gs.sum(axis=0)
        hess = B @ B.T + Gs.T @ Gs + 1e-12 * np.eye(p)
        try:
            dz = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return z, "singular", step, backtracks
        dec = float(dz @ hess @ dz)
        if not np.isfinite(dec):
            return z, "singular", step, backtracks
        alpha = 1.0
        while alpha >= 1e-12:
            nxt = merit(z + alpha * dz)
            if nxt is not None and nxt[0] <= val - 0.01 * alpha * dec:
                break
            alpha *= 0.5
            backtracks += 1
        else:
            return z, "line_search_failed", step, backtracks
        z, cur = z + alpha * dz, nxt
        moved = alpha * float(np.linalg.norm(dz))
        if dec / 2.0 < tol_dec or moved < 1e-12 * (
            1.0 + float(np.linalg.norm(z))
        ):
            return z, "converged", step + 1, backtracks
    return z, "step_cap", max_steps, backtracks


def _residuals(problem, geom, u):
    G, h, E, f = problem.G, problem.h, problem.E, problem.f
    return {
        "max_inequality_violation": float(np.max(G @ u - h)) if G.size else 0.0,
        "max_equality_violation": float(np.max(np.abs(E @ u - f)))
        if E.size
        else 0.0,
        "min_eigenvalue": float(np.linalg.eigvalsh(geom.mat(u)).min()),
    }


def sdp_solve(problem, tol=DEFAULT_TOL, delta=1e-8):
    """Solve the relaxed program max c.u s.t. G u <= h + delta,
    W(u) + delta I >= 0 (PSD), E u = f.

    Returns an SdpResult whose gap field is the final barrier duality-gap
    estimate; `value` approximates the true optimum within gap + O(delta).
    When the equalities pin a single point u0 the answer is exact: optimal
    at u0 with gap 0 if W(u0) is PSD, infeasible otherwise.
    """
    m = problem.m
    geom = _Geometry(m)
    G, h = problem.G, problem.h
    cost = geom.vec_obj(problem.objective)
    stats = {
        "k": None,
        "phase1": {"centerings": 0, "newton_steps": 0, "backtracks": 0},
        "phase2": {"centerings": 0, "newton_steps": 0, "backtracks": 0},
        "stops": dict.fromkeys(STOP_REASONS, 0),
    }

    def result(status, value, u, gap, residuals):
        return SdpResult(
            status=status,
            value=value,
            matrix=geom.mat(u),
            gap=gap,
            delta=delta,
            iterations=stats["phase1"]["centerings"]
            + stats["phase2"]["centerings"],
            residuals=residuals,
            stats=stats,
        )

    if problem.linear_infeasible:
        # the exact preprocessing LP already proved the polytope empty
        return result(
            "infeasible", float("nan"), np.zeros(problem.dim), 0.0,
            {"phase1_s": float("inf")},
        )

    Q = problem.Q
    k = Q.shape[1]
    stats["k"] = k
    u0 = np.array([float(x) for x in problem.u0])
    if k == 0:
        # the polytope is the single exact point u0
        W = [list(row) for row in SymCEIndex(m).vec_to_matrix(problem.u0)]
        if is_psd_exact(W)[0]:
            value, status = float(cost @ u0), "optimal"
        else:
            value, status = float("nan"), "infeasible"
        return result(status, value, u0, 0.0, _residuals(problem, geom, u0))

    def center(phase, *args):
        z, reason, steps, backtracks = _center(*args)
        record = stats[phase]
        record["centerings"] += 1
        record["newton_steps"] += steps
        record["backtracks"] += backtracks
        stats["stops"][reason] += 1
        return z

    Ms = np.stack([geom.mat(q) for q in Q.T])
    GQ = G @ Q
    eye = np.eye(m)
    W_u0 = geom.mat(u0)
    slack_u0 = h - G @ u0

    # candidate start: uniform matrix blended toward the scaled identity,
    # projected onto the equality plane; strictly feasible for many games
    eps = 1e-2
    W_start = (1.0 - eps) * np.full((m, m), 1.0 / (m * m)) + eps * eye / m
    z = Q.T @ (W_start[geom.I, geom.J] - u0)
    u = u0 + Q @ z
    lam_min = float(np.linalg.eigvalsh(geom.mat(u)).min())
    viol = float(np.max(G @ u - h)) if G.size else 0.0
    margin = 1e-8
    interior = viol < -margin and lam_min > margin
    s = max(viol, -lam_min, 0.0) + 1.0

    nu = m + len(h)
    t1 = 1.0
    if not interior:
        # phase 1 in (z, s): s is one more coordinate whose matrix is I and
        # whose column in G is -1, and the cost minimizes s.  It works
        # against half-relaxed constraints, so that feasible sets with empty
        # interior (single points, flat faces) still have margin delta/2
        # and center to a strictly negative s; it drives s well below zero,
        # not just below the tolerance, because phase 2 needs a genuinely
        # interior start or its first centerings stall on the boundary
        half = 0.5 * delta
        Ms1 = np.concatenate([Ms, eye[None]])
        G1 = np.hstack([GQ, -np.ones((len(h), 1))])
        c1 = np.zeros(k + 1)
        c1[k] = -1.0
        for _ in range(40):
            zs = center(
                "phase1", W_u0 + half * eye, Ms1, G1, slack_u0 + half, c1,
                np.append(z, s), t1, 1e-12,
            )
            z, s = zs[:k], float(zs[k])
            if s < -1e-3:
                break
            if nu / t1 < 0.25 * delta:
                break
            t1 *= 10.0
    if not interior and s >= 0.5 * delta:
        # certified-enough infeasibility of the relaxed program: the
        # centered minimum of s stayed above delta/2 with a tiny gap
        return result(
            "infeasible", float("nan"), u0 + Q @ z, nu / t1, {"phase1_s": s}
        )

    # phase 2
    cz = Q.T @ cost
    t = 1.0
    for _ in range(40):
        z = center(
            "phase2", W_u0 + delta * eye, Ms, GQ, slack_u0 + delta, cz, z, t,
            1e-10,
        )
        if nu / t < tol:
            break
        t *= 10.0

    u = u0 + Q @ z
    value = float(cost @ u)
    status = "optimal" if np.isfinite(value) else "numerical_failure"
    return result(status, value, u, nu / t, _residuals(problem, geom, u))
