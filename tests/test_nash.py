"""Support-enumeration Nash solver."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from symmeq import (
    JointDistribution,
    MixedStrategy,
    SymmetricGame,
    ce_system,
    enumerate_nash,
    enumerate_symmetric_nash,
    max_utility,
    outer,
    rational_exchangeable_point,
    verify_nash,
)
from symmeq import nash as nash_module
from symmeq.polytope import SymCEIndex
from symmeq.simplex import LinearSystem, bound_rows, lp_solve

from conftest import random_rational_game

F = Fraction


def sym_strategies(game):
    return {x.x for x in enumerate_symmetric_nash(game).points}


def closed_form_2x2_symmetric_nash(game):
    """Independent oracle: symmetric Nash of a 2x2 symmetric game by case
    analysis on best responses."""
    a, b = game.A[0]
    c, d = game.A[1]
    out = set()
    if a >= c:
        out.add((F(1), F(0)))       # pure 0 best response to itself
    if d >= b:
        out.add((F(0), F(1)))       # pure 1 best response to itself
    # interior mixed: indifference a p + b (1-p) = c p + d (1-p)
    denom = (a - c) + (d - b)
    if denom != 0:
        p = F(d - b, denom)
        if 0 < p < 1:
            out.add((p, 1 - p))
    return out


def test_chicken_nash(chicken):
    enum = enumerate_nash(chicken)
    assert not enum.degenerate
    pts = {(pt.x.x, pt.y.x) for pt in enum.points}
    half = (F(1, 2), F(1, 2))
    e0 = (F(1), F(0))
    e1 = (F(0), F(1))
    assert pts == {(half, half), (e0, e1), (e1, e0)}
    assert sym_strategies(chicken) == {half}


def test_coordination_nash(coordination):
    assert sym_strategies(coordination) == {
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1, 2), F(1, 2)),
    }


def test_hidden_state_game_nash(hidden_state_game):
    # asymmetric best-response ties exist, but the symmetric Nash set is
    # still certified complete
    enum = enumerate_symmetric_nash(hidden_state_game)
    assert enum.degenerate
    assert not enum.sym_degenerate
    assert {x.x for x in enum.points} == {
        (F(1), F(0), F(0)),
        (F(0), F(0), F(1)),
        (F(1, 4), F(1, 2), F(1, 4)),
    }


def test_utility_gap_game_nash(utility_gap_game):
    enum = enumerate_symmetric_nash(utility_gap_game)
    assert not enum.sym_degenerate
    assert {x.x for x in enum.points} == {
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(1, 4), F(1, 4), F(1, 2)),
    }


def test_2x2_oracle_equivalence(rng):
    tested = 0
    for _ in range(200):
        game = random_rational_game(rng, 2)
        enum = enumerate_symmetric_nash(game)
        if enum.degenerate:
            continue
        assert {x.x for x in enum.points} == closed_form_2x2_symmetric_nash(
            game
        ), game.A
        tested += 1
    assert tested > 100


def test_all_points_verify(rng):
    for _ in range(50):
        game = random_rational_game(rng, 3, lo=-3, hi=3)
        enum = enumerate_nash(game)
        for pt in enum.points:
            assert verify_nash(game, pt.x, pt.y)


def test_zero_game_is_degenerate():
    g = SymmetricGame(m=2, A=((0, 0), (0, 0)))
    enum = enumerate_nash(g)
    assert enum.degenerate
    assert enum.sym_degenerate


def test_infeasible_indifference_set_is_not_degenerate():
    # rows 1 and 2 agree on columns 1 and 2, so the pair ({1, 2}, {1, 2})
    # is underdetermined, but row 0 beats both on every y there
    g = SymmetricGame(m=3, A=[[1, 4, -2], [-4, 2, -4], [-5, 2, -4]])
    enum = enumerate_nash(g)
    assert not enum.degenerate and not enum.sym_degenerate
    assert sym_strategies(g) == {(1, 0, 0)}
    assert max_utility(g, "conv_nash").value == 1


def test_underdetermined_pair_yields_its_nash_point():
    # y = (1/2, 0, 1/2) makes every row pay -1
    g = SymmetricGame(m=3, A=[[2, -1, -4], [3, 4, -5], [2, -3, -4]])
    enum = enumerate_nash(g)
    assert enum.sym_degenerate
    assert len(enum.points) == 3
    assert all(verify_nash(g, pt.x, pt.y) for pt in enum.points)
    assert (F(1, 2), 0, F(1, 2)) in sym_strategies(g)


@pytest.mark.parametrize("m", [2, 3])
def test_basic_solutions_feasibility_matches_an_exact_lp(m):
    # the same set, with v free: y >= 0 on T, sum y = 1, (Ay)_i = v on S,
    # (Ay)_i <= v off S
    supports = [
        s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)
    ]
    rng = random.Random(5)
    flagged = []
    for _ in range(40):
        game = random_rational_game(rng, m, -2, 2)
        for S, T in itertools.product(supports, repeat=2):
            if len(S) != len(T):
                continue
            k = len(T)
            rows = [([game.A[i][j] for j in T] + [-1], 0) for i in range(m)]
            system = LinearSystem(
                num_vars=k + 1,
                inequalities=[r for i, r in enumerate(rows) if i not in S]
                + bound_rows(k + 1, range(k)),
                equalities=[r for i, r in enumerate(rows) if i in S]
                + [([1] * k + [0], 1)],
            )
            feasible = lp_solve(system, [0] * (k + 1)).status == "optimal"
            sols, flag = nash_module._basic_solutions(game, S, T)
            assert flag == feasible, (game.A, S, T)
            flagged.append(flag)
            for y, _ in sols:
                assert sum(y) == 1 and all(y[j] > 0 for j in T)
    assert any(flagged) and not all(flagged)


def test_dimension_guard():
    g = SymmetricGame(m=7, A=[[0] * 7 for _ in range(7)])
    with pytest.raises(ValueError):
        enumerate_nash(g)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_each_support_system_solved_once(monkeypatch, rng, m):
    # the system of an ordered support pair serves both as the column
    # strategy at (S, T) and as the row strategy at (T, S)
    calls = []
    solve = nash_module._support_solutions

    def counted(game, S, T):
        calls.append((S, T))
        return solve(game, S, T)

    monkeypatch.setattr(nash_module, "_support_solutions", counted)
    enum = enumerate_nash(random_rational_game(rng, m))
    balanced_pairs = sum(comb(m, r) ** 2 for r in range(1, m + 1))
    assert len(calls) == enum.stats["systems_solved"] == balanced_pairs
    assert len(set(calls)) == len(calls)
    assert enum.stats["support_pairs"] == balanced_pairs
    assert enum.stats["degenerate_pairs"] == len(enum.degenerate_supports)


def test_nesting_nash_products_are_ce(rng):
    # every symmetric Nash x gives an outer product inside ce_sym
    index2 = {}
    for _ in range(40):
        m = rng.choice([2, 3])
        game = random_rational_game(rng, m, lo=-3, hi=3)
        system = ce_system(game, symmetric_only=True)
        index = index2.setdefault(m, SymCEIndex(m))
        for x in enumerate_symmetric_nash(game).points:
            W = outer(x)
            assert system.satisfied_by(list(index.matrix_to_vec(W.P)))


def test_rational_exchangeable_point_goldens(utility_gap_game, coordination):
    # canonical ordering picks the smallest-support strategy first
    W = rational_exchangeable_point(utility_gap_game)
    e1 = [[F(0)] * 3 for _ in range(3)]
    e1[1][1] = F(1)
    assert W == JointDistribution(m=3, P=e1)
    W2 = rational_exchangeable_point(coordination)
    assert W2 == JointDistribution(m=2, P=[[1, 0], [0, 0]])


def test_rational_exchangeable_point_on_degenerate_game():
    # the zero game is fully degenerate, but any returned point must still
    # be a genuine Nash product (here: pure play of strategy 0)
    g = SymmetricGame(m=2, A=((0, 0), (0, 0)))
    W = rational_exchangeable_point(g)
    assert W == JointDistribution(m=2, P=[[1, 0], [0, 0]])


def test_canonical_order_is_deterministic(hidden_state_game):
    a = enumerate_symmetric_nash(hidden_state_game).points
    b = enumerate_symmetric_nash(hidden_state_game).points
    assert [x.x for x in a] == [x.x for x in b]
    supports = [x.support for x in a]
    assert supports == sorted(supports, key=lambda s: (len(s), s))
