"""Dense primal-dual interior-point solver for small DNN-cap-polytope
programs: maximize a linear functional of a symmetric m x m matrix variable
over a polytope (rows on the upper-triangle coordinates) intersected with
the positive semidefinite cone.

Exact preprocessing comes first, on bounded polytopes only.  Inequalities
tight on the whole polytope join the equalities; exact LPs over the system
itself find them, each maximizing the total slack of the rows still in
question and dropping those slack at its optimum, until no row drops.  One
exact solve of the equalities then gives their affine hull: a rational
point u0 and a null-space basis of size k.  When k = 0 the polytope is the
point u0, and an exact PSD test of W(u0) makes the program optimal at u0 or
infeasible.

When k >= 1 an infeasible-start primal-dual method runs in the coordinates
z of u = u0 + Q z, with Q an orthonormal float basis of that null space, so
each step solves a k x k Schur system and no iterate leaves the equality
plane.  A tiny uniform relaxation DELTA of every constraint keeps it well
defined on feasible sets with empty interior (some games' DNN-cap-CE set is
a single rank-1 matrix), so a float value carries tolerance
`gap + O(DELTA)`, with `gap` the measured duality gap.  It is optimal only
when the final point satisfies the relaxed program, and a numerical failure
otherwise; no float decides infeasibility.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import ZERO, ExactCheckError, solve
from .exchange import is_psd_exact
from .games import DEFAULT_TOL
from .polytope import SymCEIndex, ce_system
from .simplex import lp_solve

DELTA = 1e-8            # uniform relaxation of every constraint
STEP = 0.95             # share of the way to a cone's boundary a step goes
MAX_ITERATIONS = 80
# the dual pair starts above the primal one, so that the primal residual
# falls ahead of the gap
DUAL_START = 10.0
STOP_REASONS = ("converged", "singular", "step_cap")


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
    iterations: int                # primal-dual iterations
    residuals: dict
    # k; when the primal-dual loop ran, also its iterations, its stop reason
    # (STOP_REASONS), the final mu and the primal and dual residuals
    stats: dict = field(default_factory=dict)


def _split_implicit_equalities(system):
    """Exact preprocessing: inequalities whose slack is zero everywhere on
    the feasible set are really equalities, and leaving them as inequalities
    ruins the float solver's conditioning.  Returns (inequalities, equalities,
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
        support = [(j, x) for j, x in enumerate(res.point) if x]
        tight = [
            i for i in candidates
            if sum((rows[i][0][j] * x for j, x in support), ZERO)
            == rows[i][1]
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


def dnn_ce_problem(game):
    """The DNN-cap-symmetric-CE program for a game, maximizing the expected
    utility."""
    return problem_from_system(
        game.m, ce_system(game, symmetric_only=True), game.A
    )


def _mat(m, u):
    """The symmetric m x m matrix of upper-triangle coordinates u."""
    I, J = np.triu_indices(m)
    W = np.zeros((m, m))
    W[I, J] = W[J, I] = u
    return W


def _step(worst):
    """Step length that goes STEP of the way to the boundary of a cone, and
    at most 1; `worst` is the least rate of change per unit step: the least
    eigenvalue of L^-1 dX L^-T (L the Cholesky factor of X), or of ds / s."""
    return 1.0 if worst >= -STEP else STEP / -worst


def _primal_dual(A0, Ms, GQ, h0, c, tol):
    """Maximize c.z s.t. X = A0 + sum_i z_i Ms[i] PSD, s = h0 - GQ z >= 0,
    with HKM directions and Mehrotra predictor-corrector steps from an
    infeasible start.  The dual pair (Y, lam) satisfies
    <Ms[i], Y> - (GQ^T lam)_i = -c_i; the gap is mu nu = <X, Y> + s.lam.

    The iterate is centred (sigma = 1 until two successive steps are full)
    when the gap first falls below sqrt(tol), which puts it near the
    analytic centre of the optimal face (where rounding finds exact optima)
    while the Schur complement, whose condition grows like 1 / mu^2, still
    resolves directions along that face; and below tol, which ends the
    loop.  Returns (z, gap, stats)."""
    k, m = Ms.shape[:2]
    M = Ms.reshape(k, m * m)
    eye = np.eye(m)
    z, X, Y = np.zeros(k), eye, DUAL_START * eye
    s, lam = np.ones(len(h0)), np.full(len(h0), DUAL_START)
    nu = m + len(h0)
    levels, steps, full = [np.sqrt(tol), tol], 0, 0
    while True:
        mu = (np.vdot(X, Y) + s @ lam) / nu
        Rp = A0 + (z @ M).reshape(m, m) - X
        rs = h0 - GQ @ z - s
        rd = M @ Y.ravel() - GQ.T @ lam + c
        if full == 2:
            levels, full = levels[1:], 0
        if not levels:
            reason = "converged"
            break
        if steps == MAX_ITERATIONS:
            reason = "step_cap"
            break
        try:
            Li = np.linalg.inv(np.linalg.cholesky(np.stack([X, Y])))
            Xi = Li[0].T @ Li[0]
            # H_ij = <M_i, X^-1 M_j Y> + (GQ^T diag(lam / s) GQ)_ij; after
            # diagonal scaling a pseudo-inverse gives a direction that float64
            # cannot resolve no step instead of a step of rounding noise
            H = np.einsum("iab,jba->ij", Ms, Xi @ Ms @ Y) + GQ.T @ (
                (lam / s)[:, None] * GQ
            )
            d = 1.0 / np.sqrt(np.diagonal(H))
            Hi = d[:, None] * np.linalg.pinv(d * H * d[:, None], hermitian=True)
            Hi *= d
        except np.linalg.LinAlgError:
            reason = "singular"
            break

        def direction(Rc, rc):
            # Newton step, with its primal and dual step lengths, for the
            # complementarity targets X dY + dX Y = Rc, lam ds + s dlam = rc
            dz = Hi @ (
                rd + M @ (Xi @ (Rc - Rp @ Y)).ravel()
                - GQ.T @ ((rc - lam * rs) / s)
            )
            dX = Rp + (dz @ M).reshape(m, m)
            dY = Xi @ (Rc - dX @ Y)
            dY = 0.5 * (dY + dY.T)
            ds = rs - GQ @ dz
            dl = (rc - lam * ds) / s
            least = np.linalg.eigvalsh(
                Li @ np.stack([dX, dY]) @ Li.transpose(0, 2, 1)
            ).min(axis=1)
            ap = _step(min(least[0], np.min(ds / s, initial=0.0)))
            ad = _step(min(least[1], np.min(dl / lam, initial=0.0)))
            return dz, dX, dY, ds, dl, ap, ad

        XY = X @ Y
        centring = mu * nu <= levels[0]
        if centring:
            Rc, rc = mu * eye - XY, mu - s * lam
        else:
            dz, dX, dY, ds, dl, ap, ad = direction(-XY, -s * lam)
            mu_aff = (
                np.vdot(X + ap * dX, Y + ad * dY)
                + (s + ap * ds) @ (lam + ad * dl)
            ) / nu
            target = (mu_aff / mu) ** 3 * mu
            Rc = target * eye - XY - dX @ dY
            rc = target - s * lam - ds * dl
        dz, dX, dY, ds, dl, ap, ad = direction(Rc, rc)
        z, X, s = z + ap * dz, X + ap * dX, s + ap * ds
        Y, lam = Y + ad * dY, lam + ad * dl
        steps += 1
        full = full + 1 if centring and ap == ad == 1.0 else 0
    primal = max(np.abs(Rp).max(), np.abs(rs).max(initial=0.0))
    return z, mu * nu, {
        "k": k, "iterations": steps, "stop": reason, "mu": float(mu),
        "primal_residual": float(primal),
        "dual_residual": float(np.abs(rd).max()),
    }


def _residuals(problem, u):
    G, h, E, f = problem.G, problem.h, problem.E, problem.f
    return {
        "max_inequality_violation": float(np.max(G @ u - h)) if G.size else 0.0,
        "max_equality_violation": float(np.max(np.abs(E @ u - f)))
        if E.size
        else 0.0,
        "min_eigenvalue": float(np.linalg.eigvalsh(_mat(problem.m, u)).min()),
    }


def sdp_solve(problem, tol=DEFAULT_TOL):
    """Solve the relaxed program max c.u s.t. G u <= h + DELTA,
    W(u) + DELTA I >= 0 (PSD), E u = f; see the module docstring for the
    meaning of the result's status, value and gap."""
    m = problem.m
    I, J = np.triu_indices(m)
    cost = np.where(I == J, 1.0, 2.0) * problem.objective[I, J]

    def result(status, value, u, gap, residuals, stats):
        return SdpResult(
            status, value, _mat(m, u), gap, DELTA,
            stats.get("iterations", 0), residuals, stats,
        )

    if problem.linear_infeasible:
        # the exact preprocessing LP already proved the polytope empty
        return result(
            "infeasible", float("nan"), np.zeros(problem.dim), 0.0, {},
            {"k": None},
        )
    Q = problem.Q
    u0 = np.array([float(x) for x in problem.u0])
    if Q.shape[1] == 0:
        # the polytope is the single exact point u0
        W = [list(row) for row in SymCEIndex(m).vec_to_matrix(problem.u0)]
        if is_psd_exact(W)[0]:
            value, status = float(cost @ u0), "optimal"
        else:
            value, status = float("nan"), "infeasible"
        return result(status, value, u0, 0.0, _residuals(problem, u0), {"k": 0})

    G, h = problem.G, problem.h
    z, gap, stats = _primal_dual(
        _mat(m, u0) + DELTA * np.eye(m),
        np.stack([_mat(m, q) for q in Q.T]),
        G @ Q, h - G @ u0 + DELTA, Q.T @ cost, tol,
    )
    u = u0 + Q @ z
    value = float(cost @ u)
    res = _residuals(problem, u)
    feasible = (
        np.isfinite(value)
        and res["max_inequality_violation"] <= DELTA
        and res["max_equality_violation"] <= DELTA
        and res["min_eigenvalue"] >= -DELTA
    )
    status = "optimal" if feasible else "numerical_failure"
    return result(status, value, u, gap, res, stats)
