"""Orbit coordinates, N-exchangeable extendability, and the minority game."""

import itertools
import math
from fractions import Fraction

import pytest

from symmeq import (
    BudgetExceededError,
    LinearSystem,
    JointDistribution,
    MixedStrategy,
    OrbitDistribution,
    SymmetricGame,
    bivariate_marginal,
    drop_one_marginal,
    envelope_simulate,
    extendability_lp,
    extension_lp,
    iid_orbits,
    lp_solve,
    minority_game,
    minority_parity_suite,
    minority_pi,
    n_exchangeable_equilibrium_check,
    outer,
    uniform_distribution,
    verify_farkas,
)
from symmeq import orbits
from symmeq.orbits import count_vectors, multinomial

from conftest import random_symmetric_distribution

F = Fraction


def profile_space_extendability(W, N):
    """Brute-force oracle: is there any permutation-invariant distribution
    over full strategy profiles in {0..m-1}^N whose first-two-player
    marginal equals W?  Exact LP over m^N profile variables."""
    m = W.m
    profiles = list(itertools.product(range(m), repeat=N))
    pos = {p: a for a, p in enumerate(profiles)}
    n = len(profiles)
    ineqs = []
    for a in range(n):
        e = [F(0)] * n
        e[a] = F(-1)
        ineqs.append((e, F(0)))
    eqs = [([F(1)] * n, F(1))]
    # invariance under adjacent transpositions generates the whole group
    for swap in range(N - 1):
        for p in profiles:
            q = list(p)
            q[swap], q[swap + 1] = q[swap + 1], q[swap]
            q = tuple(q)
            if q <= p:
                continue
            row = [F(0)] * n
            row[pos[p]] += F(1)
            row[pos[q]] -= F(1)
            eqs.append((row, F(0)))
    for i in range(m):
        for j in range(m):
            row = [F(0)] * n
            for p in profiles:
                if p[0] == i and p[1] == j:
                    row[pos[p]] += F(1)
            eqs.append((row, W.P[i][j]))
    res = lp_solve(
        LinearSystem(num_vars=n, inequalities=ineqs, equalities=eqs),
        [F(0)] * n,
    )
    return res.status == "optimal"


def test_count_vectors():
    ks = count_vectors(3, 4)
    assert len(ks) == math.comb(4 + 2, 2)
    assert ks == sorted(ks)
    assert all(sum(k) == 4 and min(k) >= 0 for k in ks)


def test_multinomial_totals():
    for m, N in ((2, 4), (3, 3)):
        assert sum(multinomial(N, k) for k in count_vectors(m, N)) == m**N


def test_orbit_distribution_validation():
    with pytest.raises(ValueError):
        OrbitDistribution(m=2, N=2, weights=[((1, 1), F(1, 2))])
    with pytest.raises(ValueError):
        OrbitDistribution(m=2, N=2, weights=[((1, 2), F(1))])
    with pytest.raises(ValueError):
        OrbitDistribution(
            m=2, N=2, weights=[((2, 0), F(2)), ((0, 2), F(-1))]
        )
    with pytest.raises(ValueError):
        OrbitDistribution(m=2, N=1, weights=[((1, 0), F(1))])


def test_orbit_serialization_round_trip(tmp_path):
    d = minority_pi(5)
    path = tmp_path / "d.json"
    d.to_file(path)
    assert OrbitDistribution.from_file(path) == d
    assert OrbitDistribution.from_dict(d.to_dict()) == d


def test_iid_orbit_weights_are_multinomial():
    x = MixedStrategy(m=2, x=(F(1, 3), F(2, 3)))
    d = iid_orbits(x, 3)
    assert d.weight((1, 2)) == 3 * F(1, 3) * F(2, 3) ** 2
    assert d.weight((3, 0)) == F(1, 27)


def test_iid_marginals():
    x = MixedStrategy(m=3, x=(F(1, 2), F(1, 3), F(1, 6)))
    d = iid_orbits(x, 4)
    assert bivariate_marginal(d) == outer(x)
    assert drop_one_marginal(d) == iid_orbits(x, 3)


def test_drop_one_preserves_pair_marginal():
    d = minority_pi(5)
    assert bivariate_marginal(drop_one_marginal(d)) == bivariate_marginal(d)


def test_minority_pi_shapes():
    assert minority_pi(4).weights == (((2, 2), F(1)),)
    assert minority_pi(5).weights == (
        ((2, 3), F(1, 2)),
        ((3, 2), F(1, 2)),
    )
    assert bivariate_marginal(minority_pi(2)) == JointDistribution(
        m=2, P=[[0, F(1, 2)], [F(1, 2), 0]]
    )
    with pytest.raises(ValueError):
        minority_pi(1)


def test_extendability_of_outer_products():
    game = minority_game()
    x = MixedStrategy(m=2, x=(F(1, 4), F(3, 4)))
    for N in (2, 3, 5):
        res = extendability_lp(game, outer(x), N)
        assert res.feasible
        assert bivariate_marginal(res.orbit) == outer(x)


def test_anticorrelation_stops_at_three_players():
    # perfectly anti-correlated play of two strategies cannot be shared by
    # three exchangeable players (pigeonhole: some pair must collide)
    game = minority_game()
    W = JointDistribution(m=2, P=[[0, F(1, 2)], [F(1, 2), 0]])
    assert extendability_lp(game, W, 2).feasible
    res = extendability_lp(game, W, 3)
    assert not res.feasible
    assert verify_farkas(res.system, res.certificate)


def test_extendability_matches_profile_space_oracle(rng):
    game = minority_game()
    for _ in range(100):
        W = random_symmetric_distribution(rng, 2)
        for N in (2, 3, 4):
            res = extendability_lp(game, W, N)
            assert res.feasible == profile_space_extendability(W, N), (
                W.P,
                N,
            )
            if res.feasible:
                assert bivariate_marginal(res.orbit) == W


def test_extendability_is_monotone_in_n(rng):
    # the N-extendable sets nest downward: feasible at N+1 implies
    # feasible at N
    for _ in range(30):
        W = random_symmetric_distribution(rng, 2)
        feas = [extendability_lp(minority_game(), W, N).feasible for N in (2, 3, 4, 5)]
        for a, b in zip(feas, feas[1:]):
            assert a or not b


def test_extendability_needs_two_players():
    # the pair marginal divides by N (N - 1)
    game = minority_game()
    W = JointDistribution(m=2, P=[[0, F(1, 2)], [F(1, 2), 0]])
    for N in (1, 0):
        with pytest.raises(ValueError, match="need N >= 2"):
            extendability_lp(game, W, N)


def test_budget_guard():
    game = minority_game()
    W = JointDistribution(m=2, P=[[0, F(1, 2)], [F(1, 2), 0]])
    with pytest.raises(BudgetExceededError):
        extendability_lp(game, W, 10, budget=3)


def test_budget_checked_before_any_row_is_built(monkeypatch):
    # at N = 1500 the m = 3 orbit LP would build over a million count
    # vectors and rows before refusing them
    game = SymmetricGame(m=3, A=[[0] * 3] * 3)
    W = uniform_distribution(3)
    d = minority_pi(10)

    def fail(*args):
        raise AssertionError("orbit data built before the budget check")

    monkeypatch.setattr(orbits, "count_vectors", fail)
    monkeypatch.setattr(orbits, "_pair_coefficient", fail)
    with pytest.raises(BudgetExceededError):
        extendability_lp(game, W, 1500)
    with pytest.raises(BudgetExceededError):
        extension_lp(d, budget=11)


def test_equilibrium_check():
    game = minority_game()
    for N in range(2, 8):
        chk = n_exchangeable_equilibrium_check(game, minority_pi(N))
        assert chk.is_equilibrium
        assert all(g <= 0 for _, g in chk.margins)
    everyone_at_a = OrbitDistribution(m=2, N=3, weights=[((3, 0), F(1))])
    chk = n_exchangeable_equilibrium_check(game, everyone_at_a)
    assert not chk.is_equilibrium
    assert dict(chk.margins)[(0, 1)] > 0


def test_extension_parity():
    suite = minority_parity_suite(8)
    assert [e.N for e in suite] == list(range(2, 9))
    for e in suite:
        if e.N % 2 == 0:
            assert not e.feasible
        else:
            assert e.feasible and e.unique
            assert e.extension == minority_pi(e.N + 1)


def test_extension_lp_nonunique_case():
    # two i.i.d. coin flips extend to three in more than one way is false
    # (de Finetti mixtures are unique only in the limit); concretely the
    # uniform pair distribution has many 3-extensions
    d = OrbitDistribution(
        m=2,
        N=2,
        weights=[((2, 0), F(1, 4)), ((1, 1), F(1, 2)), ((0, 2), F(1, 4))],
    )
    res = extension_lp(d)
    assert res.feasible
    assert res.unique is False
    assert drop_one_marginal(res.orbit) == d


def coordinatewise_unique(system):
    """Brute-force uniqueness: every coordinate has equal min and max."""
    n = system.num_vars
    for a in range(n):
        obj = [F(0)] * n
        obj[a] = F(1)
        lo = lp_solve(system, [-c for c in obj])
        hi = lp_solve(system, obj)
        assert lo.status == hi.status == "optimal"
        if -lo.optimum != hi.optimum:
            return False
    return True


def test_uniqueness_matches_coordinatewise_min_max(rng):
    # feasible by construction: drop one player from a random orbit
    # distribution at N + 1, with a small support so that unique
    # extensions occur as well as non-unique ones
    seen = {True: 0, False: 0}
    for m in (2, 3):
        for N in (2, 3):
            ks = count_vectors(m, N + 1)
            for _ in range(6):
                support = rng.sample(ks, rng.randint(1, min(3, len(ks))))
                raw = [F(rng.randint(1, 5)) for _ in support]
                weights = [w / sum(raw) for w in raw]
                d = drop_one_marginal(
                    OrbitDistribution(m=m, N=N + 1, weights=list(zip(support, weights)))
                )
                res = extension_lp(d)
                assert res.feasible
                assert drop_one_marginal(res.orbit) == d
                assert res.unique == coordinatewise_unique(res.system), (m, N, d)
                seen[res.unique] += 1
    assert seen[True] >= 3 and seen[False] >= 3


def test_envelope_simulation_matches_exact_marginal():
    d = minority_pi(3)
    emp = envelope_simulate(d, seed=11, trials=20000)
    W = bivariate_marginal(d)
    for i in range(2):
        for j in range(2):
            assert abs(float(emp[i][j] - W.P[i][j])) < 0.02
