"""Conditional-i.i.d. certification and completely positive factorization."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmeq
from symmeq import (
    CorrelationScheme,
    ExactCheckError,
    JointDistribution,
    MixedStrategy,
    certify_conditionally_iid,
    cp_factorize,
    enumerate_symmetric_nash,
    expected_utility,
    is_psd_exact,
    outer,
    scheme_from_factorization,
    uniform_distribution,
    verify_scheme_equilibrium,
)
from symmeq.exactlin import det, rank
from symmeq.exchange import _quadratic_form
from symmeq.exchange import CONDITIONALLY_IID, INCONCLUSIVE, dnn_refutation
from symmeq.games import deviation_gains, mixture

from conftest import random_rational_game

F = Fraction


def q(W, z):
    m = len(W)
    return sum(z[i] * W[i][j] * z[j] for i in range(m) for j in range(m))


def test_psd_knowns():
    ok, wit = is_psd_exact([[F(2), F(1)], [F(1), F(2)]])
    assert ok and wit is None
    ok, wit = is_psd_exact([[F(0), F(1, 2)], [F(1, 2), F(0)]])
    assert not ok
    assert q([[F(0), F(1, 2)], [F(1, 2), F(0)]], wit) < 0


def test_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd_exact([[F(1), F(0)], [F(1), F(1)]])


def test_psd_random_with_verified_witnesses(rng):
    not_psd = 0
    for _ in range(1000):
        m = rng.randint(2, 4)
        W = [[F(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = F(rng.randint(-4, 4), rng.randint(1, 3))
                W[i][j] = v
                W[j][i] = v
        ok, wit = is_psd_exact(W)
        if ok:
            # spot check with numerics: smallest eigenvalue nonnegative
            lam = np.linalg.eigvalsh(
                np.array([[float(x) for x in row] for row in W])
            ).min()
            assert lam > -1e-9
        else:
            not_psd += 1
            assert q(W, wit) < 0
    assert not_psd > 300


def test_psd_gram_matrices_always_pass(rng):
    for _ in range(100):
        m = rng.randint(2, 4)
        k = rng.randint(1, m)
        B = [
            [F(rng.randint(0, 3)) for _ in range(k)] for _ in range(m)
        ]
        W = [
            [
                sum(B[i][c] * B[j][c] for c in range(k))
                for j in range(m)
            ]
            for i in range(m)
        ]
        ok, _ = is_psd_exact(W)
        assert ok


def principal_minors_nonnegative(W):
    # W is PSD iff every principal minor, not only each leading one, is
    # nonnegative
    m = len(W)
    return all(
        det([[W[i][j] for j in idx] for i in idx]) >= 0
        for r in range(1, m + 1)
        for idx in itertools.combinations(range(m), r)
    )


def gram(B):
    k = len(B[0])
    return [[sum(u[c] * v[c] for c in range(k)) for v in B] for u in B]


def hard_psd_cases(rng):
    """Seeded symmetric rational matrices, m = 1..6, by kind."""
    for t in range(600):
        m = 1 + t % 6
        kind = t // 6 % 5
        if kind == 0:  # random entries, some rows zeroed
            W = [[F(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    W[i][j] = W[j][i] = F(rng.randint(-4, 4), rng.randint(1, 3))
            for i in rng.sample(range(m), rng.randint(0, m - 1)):
                W[i] = [F(0)] * m
                for row in W:
                    row[i] = F(0)
        elif kind == 1:  # zero diagonal entries, nonzero off-diagonals
            B = [[F(rng.randint(0, 2)) for _ in range(m)] for _ in range(m)]
            W = gram(B)
            for i in rng.sample(range(m), rng.randint(1, m)):
                W[i][i] = F(0)
        elif kind == 2:  # rank-deficient Gram matrices (PSD)
            k = rng.randint(1, max(1, m - 1))
            W = gram([[F(rng.randint(-3, 3), 2) for _ in range(k)] for _ in range(m)])
        elif kind == 3:  # Gram with zero rows (PSD)
            B = [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            B[rng.randrange(m)] = [F(0)] * m
            W = gram(B)
        else:
            # rank-deficient Gram minus a tiny rank-one term: exactly
            # indefinite, yet its smallest float eigenvalue is near 0
            k = max(1, m - 1)
            W = gram([[F(rng.randint(-3, 3)) for _ in range(k)] for _ in range(m)])
            u = [F(rng.randint(-2, 2)) for _ in range(m)]
            eps = F(1, 10**6)
            W = [[W[i][j] - eps * u[i] * u[j] for j in range(m)] for i in range(m)]
        yield kind, W


def test_psd_decision_matches_principal_minors(rng):
    verdicts = {kind: set() for kind in range(5)}
    near_zero = 0
    for kind, W in hard_psd_cases(rng):
        ok, wit = is_psd_exact(W)
        assert ok == principal_minors_nonnegative(W), W
        verdicts[kind].add(ok)
        if ok:
            assert wit is None
        else:
            assert len(wit) == len(W) and q(W, wit) < 0
            lam = np.linalg.eigvalsh(
                np.array([[float(x) for x in row] for row in W])
            ).min()
            near_zero += lam > -1e-4
    # every kind is exercised, with both verdicts where both can occur
    assert verdicts[0] == verdicts[1] == {True, False}
    assert verdicts[2] == verdicts[3] == {True}
    assert False in verdicts[4]
    assert near_zero >= 20


def test_zero_pattern_certificate(hidden_state_game):
    W = JointDistribution(
        m=3,
        P=[
            [0, F(1, 4), 0],
            [F(1, 4), 0, F(1, 4)],
            [0, F(1, 4), 0],
        ],
    )
    v = certify_conditionally_iid(W)
    assert v.status == "not_conditionally_iid"
    assert v.certificate["kind"] == "zero_pattern"
    t, tt = v.certificate["diagonal"], v.certificate["off_diagonal"]
    assert W.P[t][t] == 0 and W.P[t][tt] > 0


def test_asymmetry_certificate():
    W = JointDistribution(m=2, P=[[0, F(2, 3)], [F(1, 3), 0]])
    v = certify_conditionally_iid(W)
    assert v.status == "not_conditionally_iid"
    assert v.certificate["kind"] == "asymmetry"


def test_negative_direction_certificate():
    # symmetric, positive diagonal, but indefinite
    W = JointDistribution(
        m=2, P=[[F(1, 10), F(2, 5)], [F(2, 5), F(1, 10)]]
    )
    v = certify_conditionally_iid(W)
    assert v.status == "not_conditionally_iid"
    assert v.certificate["kind"] == "negative_direction"
    assert _quadratic_form(W.P, v.certificate["z"]) < 0
    assert v.certificate["value"] < 0


def test_random_mixtures_are_conditionally_iid(rng):
    # convex combinations of outer products must always certify
    for _ in range(1000):
        m = rng.randint(2, 4)
        k = rng.randint(1, 3)
        weights = [F(rng.randint(1, 5)) for _ in range(k)]
        total = sum(weights)
        weights = [w / total for w in weights]
        P = [[F(0)] * m for _ in range(m)]
        for w in weights:
            raw = [F(rng.randint(0, 4)) for _ in range(m)]
            if sum(raw) == 0:
                raw[0] = F(1)
            s = sum(raw)
            x = [v / s for v in raw]
            for i in range(m):
                for j in range(m):
                    P[i][j] += w * x[i] * x[j]
        W = JointDistribution(m=m, P=P)
        assert dnn_refutation(W) is None, (m, P)


def test_factorization_of_known_exchangeable_point():
    # 1/2 [0,1/2,1/2] + 1/2 [1/2,1/2,0] products, stated exactly
    W = JointDistribution(
        m=3,
        P=[
            [F(1, 8), F(1, 8), 0],
            [F(1, 8), F(1, 4), F(1, 8)],
            [0, F(1, 8), F(1, 8)],
        ],
    )
    fact = cp_factorize(W)
    assert fact is not None
    assert fact.exact and fact.residual == 0
    atoms = sorted((lam, x.x) for lam, x in fact.atoms)
    assert atoms == [
        (F(1, 2), (F(0), F(1, 2), F(1, 2))),
        (F(1, 2), (F(1, 2), F(1, 2), F(0))),
    ]
    assert tuple(map(tuple, fact.reconstruct())) == W.P


def test_factorization_of_two_state_scheme():
    # 5/7 [1/8,7/8,0] + 2/7 [1/8,0,7/8] products
    W = JointDistribution(
        m=3,
        P=[
            [F(1, 64), F(5, 64), F(2, 64)],
            [F(5, 64), F(35, 64), 0],
            [F(2, 64), 0, F(14, 64)],
        ],
    )
    fact = cp_factorize(W)
    assert fact is not None and fact.exact
    atoms = sorted((lam, x.x) for lam, x in fact.atoms)
    assert atoms == [
        (F(2, 7), (F(1, 8), F(0), F(7, 8))),
        (F(5, 7), (F(1, 8), F(7, 8), F(0))),
    ]


def test_factorize_rank_one():
    x = MixedStrategy(m=2, x=(F(1, 3), F(2, 3)))
    fact = cp_factorize(outer(x))
    assert fact is not None and fact.exact
    assert len(fact.atoms) == 1
    assert fact.atoms[0][1].x == x.x


def test_factorize_never_claims_the_impossible():
    # not PSD, so no CP factorization can be found (and none is claimed)
    W = JointDistribution(m=2, P=[[0, F(1, 2)], [F(1, 2), 0]])
    assert cp_factorize(W) is None


def test_scheme_round_trip_and_equilibrium(utility_gap_game):
    W = JointDistribution(
        m=3,
        P=[
            [F(1, 64), F(5, 64), F(2, 64)],
            [F(5, 64), F(35, 64), 0],
            [F(2, 64), 0, F(14, 64)],
        ],
    )
    fact = cp_factorize(W)
    scheme = scheme_from_factorization(fact)
    induced = scheme.induced_distribution()
    assert induced == W
    report = verify_scheme_equilibrium(utility_gap_game, scheme)
    assert report["is_equilibrium"]
    assert report["max_exact_gain"] <= 0
    assert expected_utility(utility_gap_game, induced) == F(17, 16)


def test_scheme_sampler_matches_exact_distribution(utility_gap_game):
    W = JointDistribution(
        m=3,
        P=[
            [F(1, 64), F(5, 64), F(2, 64)],
            [F(5, 64), F(35, 64), 0],
            [F(2, 64), 0, F(14, 64)],
        ],
    )
    scheme = scheme_from_factorization(cp_factorize(W))
    report = verify_scheme_equilibrium(
        utility_gap_game, scheme, samples=20000, seed=3
    )
    emp = report["empirical_matrix"]
    for i in range(3):
        for j in range(3):
            assert abs(emp[i][j] - float(W.P[i][j])) < 0.02
    # sampled deviation gains should agree with exact ones within 4 sigma
    for f, (mean, stderr) in report["sampled_gains"].items():
        assert abs(mean - float(report["exact_gains"][f])) <= 4 * stderr + 1e-9


def test_uniform_is_conditionally_iid():
    v = certify_conditionally_iid(uniform_distribution(3))
    assert v.conditionally_iid


def test_failed_witness_check_raises(monkeypatch):
    monkeypatch.setattr(symmeq.exchange, "_quadratic_form", lambda W, z: 0)
    with pytest.raises(ExactCheckError):
        is_psd_exact([[F(1), F(2)], [F(2), F(1)]])


def test_failed_witness_check_raises_under_python_O():
    # python -O strips assert statements; the check must still run
    script = """
import symmeq.exchange
from fractions import Fraction as F
from symmeq import ExactCheckError, is_psd_exact
if __debug__:
    raise SystemExit(2)
symmeq.exchange._quadratic_form = lambda W, z: 0
try:
    is_psd_exact([[F(1), F(2)], [F(2), F(1)]])
except ExactCheckError:
    raise SystemExit(0)
raise SystemExit(1)
"""
    root = os.path.dirname(os.path.dirname(symmeq.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_float_factorization_does_not_decide_in_at_m5():
    # no float result decides In at m >= 5: a rank-2 mixture whose atoms'
    # denominators are near 10^6 factors exactly, and a rank-3 mixture,
    # for which no exact factorization is built, stays Inconclusive
    x1 = [F(n, 1000003) for n in (200000, 300001, 100000, 250000, 150002)]
    x2 = [F(n, 1000033) for n in (100003, 200010, 300000, 150010, 250010)]
    W = JointDistribution(m=5, P=mixture(5, [(F(1, 3), x1), (F(2, 3), x2)]))
    fact = cp_factorize(W)
    assert fact is not None and fact.exact
    assert tuple(map(tuple, fact.reconstruct())) == W.P
    v = certify_conditionally_iid(W)
    assert v.status == CONDITIONALLY_IID
    assert v.certificate["kind"] == "factorization"

    atoms = [
        (F(1, 3), [F(1, 2), F(1, 2), 0, 0, 0]),
        (F(1, 3), [0, F(1, 3), F(1, 3), F(1, 3), 0]),
        (F(1, 3), [F(1, 4), 0, 0, F(1, 4), F(1, 2)]),
    ]
    W = JointDistribution(m=5, P=mixture(5, atoms))
    assert rank([list(row) for row in W.P]) == 3
    start = time.perf_counter()
    v = certify_conditionally_iid(W)
    assert time.perf_counter() - start < 0.1
    assert v.status == INCONCLUSIVE
    assert v.certificate["kind"] == "dnn_only"


def _dnn_mixtures():
    """Seeded symmetric mixtures of one or two outer products at m = 2-7:
    (m, atoms) with positive weights summing to 1."""

    def strategy(m):
        return st.lists(
            st.integers(0, 6), min_size=m, max_size=m
        ).filter(any).map(lambda raw: [F(v, sum(raw)) for v in raw])

    def mixtures(m):
        return st.tuples(
            st.integers(1, 9), st.integers(0, 9), strategy(m), strategy(m)
        ).map(
            lambda t: (
                m,
                [(F(t[0], t[0] + t[1]), t[2]), (F(t[1], t[0] + t[1]), t[3])],
            )
        )

    return st.integers(2, 7).flatmap(mixtures)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_dnn_mixtures())
def test_rank_two_mixtures_factor_exactly(case):
    m, atoms = case
    W = JointDistribution(m=m, P=mixture(m, atoms))
    fact = cp_factorize(W)
    assert fact is not None and fact.exact and fact.residual == 0
    assert 1 <= len(fact.atoms) <= 2
    weights = [lam for lam, _ in fact.atoms]
    assert all(lam > 0 for lam in weights) and sum(weights) == 1
    for _, x in fact.atoms:
        assert min(x.x) >= 0 and sum(x.x) == 1
    assert tuple(map(tuple, fact.reconstruct())) == W.P
    assert certify_conditionally_iid(W).certificate["kind"] == "factorization"


def test_rank_two_zero_pattern_does_not_factor():
    # rank 2 and nonnegative, with P[0][0] = 0 < P[0][1], so not PSD
    P = [[F(n, 12) for n in row] for row in [[0, 1, 1], [1, 1, 2], [1, 2, 3]]]
    W = JointDistribution(m=3, P=P)
    assert rank(P) == 2
    assert dnn_refutation(W)["kind"] == "zero_pattern"
    assert cp_factorize(W) is None


def test_rank_two_factors_exactly_when_doubly_nonnegative(rng):
    # at rank 2, completely positive and doubly nonnegative coincide: draw
    # nonnegative W = U M U^T with U and M of mixed signs
    seen = set()
    for _ in range(400):
        m = rng.randint(2, 6)
        U = [[rng.randint(-2, 4) for _ in range(2)] for _ in range(m)]
        a, b, c = rng.randint(-2, 4), rng.randint(-2, 4), rng.randint(-3, 3)
        P = [
            [
                a * U[i][0] * U[j][0]
                + c * (U[i][0] * U[j][1] + U[i][1] * U[j][0])
                + b * U[i][1] * U[j][1]
                for j in range(m)
            ]
            for i in range(m)
        ]
        if min(map(min, P)) < 0 or rank(P) != 2:
            continue
        total = sum(map(sum, P))
        W = JointDistribution(m=m, P=[[F(x, total) for x in r] for r in P])
        dnn = dnn_refutation(W) is None
        assert (cp_factorize(W) is not None) == dnn, P
        seen.add(dnn)
    assert seen == {True, False}


def test_asymmetric_matrices_do_not_factor():
    W = JointDistribution(m=2, P=[[F(1, 2), F(1, 2)], [0, 0]])
    assert cp_factorize(W) is None


def test_failed_reconstruction_raises(monkeypatch):
    monkeypatch.setattr(symmeq.exchange, "mixture", lambda m, atoms: None)
    with pytest.raises(ExactCheckError):
        cp_factorize(uniform_distribution(3))


def _random_scheme(rng, m):
    states = rng.randint(1, 3)
    probs = [F(rng.randint(1, 5)) for _ in range(states)]
    signals = []
    for _ in range(states):
        x = [F(rng.randint(0, 4)) for _ in range(m)]
        x[rng.randrange(m)] += 1
        signals.append(MixedStrategy(m=m, x=[v / sum(x) for v in x]))
    return CorrelationScheme(
        m=m,
        state_probs=tuple(p / sum(probs) for p in probs),
        signals=tuple(signals),
    )


def test_scheme_gains_are_pairwise_deviation_gains(rng):
    # exact_gains is keyed by (recommendation, deviation), and the best
    # deviation map's gain is the sum of each recommendation's best gain:
    # checked against all m^m maps
    seen = set()
    for trial in range(60):
        m = 2 + trial % 3
        game = random_rational_game(rng, m, -3, 3)
        nash = enumerate_symmetric_nash(game).points
        if trial % 4 == 0 and nash:
            scheme = CorrelationScheme(
                m=m, state_probs=(F(1),), signals=(nash[0],)
            )
        else:
            scheme = _random_scheme(rng, m)
        report = verify_scheme_equilibrium(game, scheme)
        P = scheme.induced_distribution().P
        assert report["exact_gains"] == dict(deviation_gains(game, P))
        A = game.A
        brute = max(
            sum(
                P[i][j] * (A[f[i]][j] - A[i][j])
                for i in range(m)
                for j in range(m)
            )
            for f in itertools.product(range(m), repeat=m)
        )
        assert report["max_exact_gain"] == brute
        assert report["is_equilibrium"] == (brute <= 0)
        seen.add(report["is_equilibrium"])
    assert seen == {True, False}
