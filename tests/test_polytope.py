"""Correlated-equilibrium systems and exact vertex enumeration."""

import itertools
import random
from fractions import Fraction

import pytest

from symmeq import (
    JointDistribution,
    LinearSystem,
    SymCEIndex,
    UnboundedPolytopeError,
    ce_system,
    enumerate_vertices,
    uniform_distribution,
)
from symmeq.exactlin import dot, solve

from conftest import random_rational_game

F = Fraction


def matrices(game, verts):
    index = SymCEIndex(game.m)
    return {index.vec_to_matrix(v) for v in verts}


def to_matrix(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_index_bijection():
    index = SymCEIndex(3)
    assert index.size == 6
    for k, (i, j) in enumerate(index.pairs):
        assert index.idx(i, j) == k
        assert index.idx(j, i) == k
        assert index.pair(k) == (i, j)
    v = tuple(F(n, 21) for n in (1, 2, 3, 4, 5, 6))
    assert index.matrix_to_vec(index.vec_to_matrix(v)) == v


def test_unit_square_vertices():
    system = LinearSystem(
        num_vars=2,
        inequalities=[
            ([1, 0], 1),
            ([0, 1], 1),
            ([-1, 0], 0),
            ([0, -1], 0),
        ],
    )
    verts = enumerate_vertices(system)
    assert set(verts) == {
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


def test_probability_simplex_vertices():
    n = 3
    ineqs = []
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(-1)
        ineqs.append((e, F(0)))
    system = LinearSystem(
        num_vars=n, inequalities=ineqs, equalities=[([1] * n, 1)]
    )
    verts = enumerate_vertices(system)
    assert len(verts) == 3
    assert all(sum(v) == 1 and max(v) == 1 for v in verts)


def test_unbounded_input_is_refused():
    system = LinearSystem(num_vars=2, inequalities=[([-1, 0], 0), ([0, -1], 0)])
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(system)


def test_dimension_guard():
    system = LinearSystem(num_vars=15)
    with pytest.raises(ValueError):
        enumerate_vertices(system)


def test_chicken_ce_vertices(chicken):
    verts = enumerate_vertices(ce_system(chicken, symmetric_only=True))
    got = matrices(chicken, verts)
    expected = {
        to_matrix([["0", "1/2"], ["1/2", "0"]]),
        to_matrix([["1/3", "1/3"], ["1/3", "0"]]),
        to_matrix([["0", "1/3"], ["1/3", "1/3"]]),
        to_matrix([["1/4", "1/4"], ["1/4", "1/4"]]),
    }
    assert got == expected


def test_anticoordination_ce_vertices(anticoordination):
    # same vertex set as Chicken: the games differ by a positive affine
    # payoff change, which preserves the equilibrium polytope
    verts = enumerate_vertices(
        ce_system(anticoordination, symmetric_only=True)
    )
    got = matrices(anticoordination, verts)
    expected = {
        to_matrix([["0", "1/2"], ["1/2", "0"]]),
        to_matrix([["1/3", "1/3"], ["1/3", "0"]]),
        to_matrix([["0", "1/3"], ["1/3", "1/3"]]),
        to_matrix([["1/4", "1/4"], ["1/4", "1/4"]]),
    }
    assert got == expected


def test_coordination_ce_vertices(coordination):
    verts = enumerate_vertices(ce_system(coordination, symmetric_only=True))
    got = matrices(coordination, verts)
    expected = {
        to_matrix([["1", "0"], ["0", "0"]]),
        to_matrix([["0", "0"], ["0", "1"]]),
        to_matrix([["1/4", "1/4"], ["1/4", "1/4"]]),
    }
    assert got == expected


def test_symmetric_system_membership_matches_full_system(chicken):
    # a symmetric matrix is in ce_sym iff its flattening satisfies the full
    # (asymmetric) CE system
    full = ce_system(chicken, symmetric_only=False)
    sym = ce_system(chicken, symmetric_only=True)
    num, den = 0, 8
    for a in range(den + 1):
        for b in range(den + 1 - a):
            c = den - a - b
            # (p00, p01, p11) with the off-diagonal carried once
            vec = [F(a, den), F(b, 2 * den), F(c, den)]
            flat = [vec[0], vec[1], vec[1], vec[2]]
            assert sym.satisfied_by(vec) == full.satisfied_by(flat)
            num += 1
    assert num > 0


def test_vertices_satisfy_system_and_are_extreme(hidden_state_game):
    system = ce_system(hidden_state_game, symmetric_only=True)
    verts = enumerate_vertices(system)
    assert len(verts) >= 3
    for v in verts:
        assert system.satisfied_by(list(v))
    # no vertex is a midpoint of two others
    vset = set(verts)
    for u, w in itertools.combinations(verts, 2):
        mid = tuple((a + b) / 2 for a, b in zip(u, w))
        assert mid not in vset


def test_uniform_need_not_be_equilibrium():
    from symmeq import SymmetricGame, ce_system

    g = SymmetricGame(m=2, A=((5, 0), (0, 0)))
    sym = ce_system(g, symmetric_only=True)
    U = uniform_distribution(2)
    index = SymCEIndex(2)
    assert not sym.satisfied_by(list(index.matrix_to_vec(U.P)))


def brute_force_vertices(system):
    """Vertices as the feasible unique solutions of every choice of
    n - #equalities inequality rows made tight."""
    n = system.num_vars
    eqs = list(system.equalities)
    found = set()
    for rows in itertools.combinations(system.inequalities, n - len(eqs)):
        a = [list(c) for c, _ in eqs + list(rows)]
        res = solve(a, [b for _, b in eqs + list(rows)])
        if res is not None and not res[1] and system.satisfied_by(res[0]):
            found.add(tuple(res[0]))
    return sorted(found)


def test_vertices_match_brute_force():
    # payoffs in [-2, 2] make ties, hence degenerate vertices: more than
    # n - 1 inequalities tight, with the one normalisation equality
    rng = random.Random(2024)
    systems = []
    for lo in [-2, -5] * 6:
        game = random_rational_game(rng, 2, lo, -lo)
        systems += [ce_system(game, symmetric_only=True), ce_system(game)]
    for _ in range(2):
        game = random_rational_game(rng, 3, -2, 2)
        systems.append(ce_system(game, symmetric_only=True))
    # payoffs with denominators 3 and 7 give rows that need scaling
    for den in [3, 7] * 3:
        game = random_rational_game(rng, 2, -2, 2, den=den)
        systems += [ce_system(game, symmetric_only=True), ce_system(game)]
    for den in [3, 7]:
        game = random_rational_game(rng, 3, -2, 2, den=den)
        systems.append(ce_system(game, symmetric_only=True))
    degenerate = 0
    for system in systems:
        verts = enumerate_vertices(system)
        assert verts == brute_force_vertices(system)
        for v in verts:
            tight = [a for a, b in system.inequalities if dot(a, v) == b]
            degenerate += len(tight) > system.num_vars - 1
    assert degenerate >= 5
