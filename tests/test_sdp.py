"""Barrier-method solver for the doubly-nonnegative equilibrium relaxation."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from symmeq import (
    SymCEIndex,
    SymmetricGame,
    ce_system,
    dnn_ce_problem,
    enumerate_symmetric_nash,
    outer,
    problem_from_system,
    sdp_solve,
)
from symmeq.exactlin import dot
from symmeq.polytope import enumerate_vertices
from symmeq.sdp import _split_implicit_equalities
from symmeq.simplex import LinearSystem

from conftest import random_rational_game

F = Fraction


def ce_gain_rows(game):
    """Float coefficient rows of the symmetric CE deviation constraints:
    row . vec(W) >= 0, one row per ordered pair (i, i')."""
    m = game.m
    A = [[float(x) for x in row] for row in game.A]
    rows = []
    for i in range(m):
        for i2 in range(m):
            if i == i2:
                continue
            rows.append((i, [A[i][j] - A[i2][j] for j in range(m)]))
    return rows


def mixture_oracle(game, weight_fn, k=4, starts=24, seed=7):
    """Best value of a functional over explicit mixtures of i.i.d. points
    that satisfy the CE constraints.  Nonconvex multistart search; returns
    a certified-feasible lower bound on the exchangeable optimum."""
    m = game.m
    rows = ce_gain_rows(game)
    rng = np.random.default_rng(seed)

    def unpack(z):
        w = z[:k]
        X = z[k:].reshape(k, m)
        return w, X

    def induced(z):
        w, X = unpack(z)
        return sum(w[a] * np.outer(X[a], X[a]) for a in range(k))

    cons = [
        {"type": "eq", "fun": lambda z: unpack(z)[0].sum() - 1.0},
    ]
    for a in range(k):
        cons.append(
            {
                "type": "eq",
                "fun": (lambda z, a=a: unpack(z)[1][a].sum() - 1.0),
            }
        )
    for i, coeffs in rows:
        cons.append(
            {
                "type": "ineq",
                "fun": (
                    lambda z, i=i, c=coeffs: float(
                        np.dot(c, induced(z)[i])
                    )
                ),
            }
        )
    bounds = [(0.0, 1.0)] * (k + k * m)
    best = -np.inf
    for _ in range(starts):
        w0 = rng.dirichlet(np.ones(k))
        X0 = rng.dirichlet(np.ones(m), size=k)
        z0 = np.concatenate([w0, X0.ravel()])
        res = minimize(
            lambda z: -weight_fn(induced(z)),
            z0,
            method="SLSQP",
            bounds=bounds,
            constraints=cons,
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if not res.success:
            continue
        W = induced(res.x)
        # only count points that actually satisfy every constraint
        feas = all(
            np.dot(c, W[i]) >= -1e-9 for i, c in rows
        ) and abs(W.sum() - 1.0) < 1e-9
        if feas:
            best = max(best, weight_fn(W))
    return best


def test_chicken_utility_maximum(chicken):
    res = sdp_solve(dnn_ce_problem(chicken))
    assert res.status == "optimal"
    assert abs(res.value - 2.5) < 1e-6
    assert res.gap <= 1e-8


def test_trace_maximum(chicken, coordination):
    # chicken: every CE vertex has trace at most 1/2 (attained at uniform),
    # so the trace maximum over the whole polytope is 1/2
    trace = [[1, 0], [0, 1]]
    res = sdp_solve(
        problem_from_system(2, ce_system(chicken, symmetric_only=True), trace)
    )
    assert res.status == "optimal"
    assert abs(res.value - 0.5) < 1e-6
    # coordination: a pure Nash outer product has trace 1, the cap
    res = sdp_solve(
        problem_from_system(
            2, ce_system(coordination, symmetric_only=True), trace
        )
    )
    assert res.status == "optimal"
    assert abs(res.value - 1.0) < 1e-6


def test_hidden_state_game_utility(hidden_state_game):
    res = sdp_solve(dnn_ce_problem(hidden_state_game))
    assert res.status == "optimal"
    assert abs(res.value - 2.0) < 1e-6


def test_utility_gap_game_value(utility_gap_game):
    # the exchangeable optimum sits strictly between the convex hull of
    # symmetric Nash points (1) and the correlated optimum (9/8)
    res = sdp_solve(dnn_ce_problem(utility_gap_game))
    assert res.status == "optimal"
    assert abs(res.value - 17.0 / 16.0) < 1e-6


def test_linear_functional_against_mixture_search(hidden_state_game):
    C = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    system = ce_system(hidden_state_game, symmetric_only=True)
    res = sdp_solve(problem_from_system(3, system, C))
    assert res.status == "optimal"
    oracle = mixture_oracle(hidden_state_game, lambda W: W[2][2])
    assert abs(res.value - oracle) < 1e-4


def test_solution_matrix_residuals(rng):
    for _ in range(30):
        m = rng.randint(2, 4)
        game = random_rational_game(rng, m, lo=-3, hi=3)
        res = sdp_solve(dnn_ce_problem(game))
        if res.status != "optimal":
            continue
        W = res.matrix
        assert abs(W.sum() - 1.0) < 1e-6
        assert W.min() > -1e-7
        assert np.linalg.eigvalsh(0.5 * (W + W.T)).min() > -1e-6
        for i, c in ce_gain_rows(game):
            assert np.dot(c, W[i]) > -1e-6
        assert res.residuals["max_equality_violation"] < 1e-6
        assert res.residuals["max_inequality_violation"] < 1e-6


def test_value_dominates_nash_products(rng):
    # the relaxation is a superset of conv(nash_sym): its optimum can never
    # fall below the utility of any symmetric Nash outer product
    checked = 0
    for _ in range(25):
        m = rng.randint(2, 3)
        game = random_rational_game(rng, m, lo=-3, hi=3)
        enum = enumerate_symmetric_nash(game)
        if enum.degenerate or not enum.points:
            continue
        res = sdp_solve(dnn_ce_problem(game))
        if res.status != "optimal":
            continue
        Af = np.array([[float(x) for x in row] for row in game.A])
        for x in enum.points:
            W = np.array([[float(v) for v in row] for row in outer(x).P])
            assert res.value >= float((Af * W).sum()) - 1e-6
        checked += 1
    assert checked > 10


def test_infeasible_detection(chicken):
    # force emptiness with a contradictory linear cut
    system = ce_system(chicken, symmetric_only=True)
    index = SymCEIndex(2)
    cut = [F(0)] * index.size
    # demand total mass at most -1 on top of sum = 1
    aug = LinearSystem(
        num_vars=system.num_vars,
        inequalities=list(system.inequalities)
        + [([F(1)] * index.size, F(-1))],
        equalities=list(system.equalities),
    )
    res = sdp_solve(problem_from_system(2, aug, chicken.A))
    assert res.status == "infeasible"


def test_pure_coordination_prefers_diagonal(coordination):
    res = sdp_solve(dnn_ce_problem(coordination))
    assert res.status == "optimal"
    assert abs(res.value - 1.0) < 1e-6
    # the argmax concentrates on the diagonal
    W = res.matrix
    assert W[0][1] + W[1][0] < 1e-4


def test_pinned_point_needs_no_barrier():
    # strategy 2 strictly dominates, so the CE inequalities pin the
    # polytope to the pure product e2 e2^T and no centering runs
    game = SymmetricGame(m=2, A=((3, 0), (5, 1)))
    res = sdp_solve(dnn_ce_problem(game))
    assert res.status == "optimal"
    assert res.iterations == 0 and res.stats["k"] == 0
    assert res.value == 1.0 and res.gap == 0.0
    assert np.array_equal(res.matrix, [[0.0, 0.0], [0.0, 1.0]])
    assert res.residuals["max_equality_violation"] == 0.0
    assert res.residuals["max_inequality_violation"] <= 0.0


def test_pinned_point_outside_psd_cone_is_infeasible():
    # W = [[0, 1/2], [1/2, 0]] meets every equality but is not PSD
    system = LinearSystem(
        num_vars=3,
        inequalities=[],
        equalities=[([1, 0, 0], 0), ([0, 1, 0], F(1, 2)), ([0, 0, 1], 0)],
    )
    res = sdp_solve(problem_from_system(2, system, [[1, 0], [0, 1]]))
    assert res.status == "infeasible"
    assert res.iterations == 0


def vertex_oracle_split(system):
    """Independent oracle: on a bounded polytope a row is an implicit
    equality exactly when it is tight at every vertex."""
    verts = enumerate_vertices(system)
    implicit = [
        (a, b) for a, b in system.inequalities
        if all(dot(a, v) == b for v in verts)
    ]
    ineqs = [row for row in system.inequalities if row not in implicit]
    return ineqs, list(system.equalities) + implicit, False


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("den", [1, 3, 7])
def test_implicit_equalities_match_vertex_oracle(m, den):
    rng = random.Random(f"implicit-equalities:{m}:{den}")
    with_implicit = 0
    for _ in range(40):
        system = ce_system(
            random_rational_game(rng, m, den=den), symmetric_only=True
        )
        split = _split_implicit_equalities(system)
        assert split == vertex_oracle_split(system)
        with_implicit += len(split[1]) > len(system.equalities)
    # the draws must include systems with implicit equalities
    assert with_implicit >= 5


def test_implicit_equalities_of_infeasible_system(chicken):
    system = ce_system(chicken, symmetric_only=True)
    # total mass at most -1 contradicts sum = 1
    cut = LinearSystem(
        num_vars=system.num_vars,
        inequalities=list(system.inequalities) + [([F(1)] * 3, F(-1))],
        equalities=list(system.equalities),
    )
    ineqs, eqs, infeasible = _split_implicit_equalities(cut)
    assert infeasible
    assert ineqs == list(cut.inequalities) and eqs == list(cut.equalities)


def test_implicit_equalities_need_a_bounded_polytope():
    system = LinearSystem(num_vars=2, inequalities=[([-1, 0], 0), ([0, -1], 0)])
    with pytest.raises(ValueError, match="bounded"):
        _split_implicit_equalities(system)


def test_stats_report_the_primal_dual_loop(hidden_state_game):
    res = sdp_solve(dnn_ce_problem(hidden_state_game))
    stats = res.stats
    assert set(stats) == {
        "k", "iterations", "stop", "mu", "primal_residual", "dual_residual",
    }
    assert stats["k"] >= 1
    assert stats["iterations"] == res.iterations > 0
    assert stats["stop"] == "converged"
    assert res.gap <= 1e-8
    assert res.gap == pytest.approx(
        stats["mu"] * (3 + len(dnn_ce_problem(hidden_state_game).h))
    )


def test_psd_empty_segment_is_never_optimal():
    # W = [[a, 1/2], [1/2, 0]] with 0 <= a <= 1 is never PSD, nor is
    # W + delta I: the relaxed program is infeasible, and a float method
    # may only report that it failed
    system = LinearSystem(
        num_vars=3,
        inequalities=[([-1, 0, 0], 0), ([1, 0, 0], 1)],
        equalities=[([0, 1, 0], F(1, 2)), ([0, 0, 1], 0)],
    )
    for C in ([[1, 0], [0, 0]], [[-1, 0], [0, 0]], [[0, 0], [0, 0]]):
        res = sdp_solve(problem_from_system(2, system, C))
        assert res.stats["k"] == 1
        assert res.status == "numerical_failure"
