"""Exact rational LP solver and Farkas certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import symmeq
from symmeq import ExactCheckError, LinearSystem, lp_solve, verify_farkas

F = Fraction


def test_simple_bounded_maximum():
    # max x + y over the unit square
    system = LinearSystem(
        num_vars=2,
        inequalities=[
            ([1, 0], 1),
            ([0, 1], 1),
            ([-1, 0], 0),
            ([0, -1], 0),
        ],
    )
    res = lp_solve(system, [1, 1])
    assert res.status == "optimal"
    assert res.optimum == 2
    assert res.point == (F(1), F(1))


def test_min_sense():
    system = LinearSystem(
        num_vars=1, inequalities=[([1], 3), ([-1], 2)]
    )
    # min x is minus max -x
    res = lp_solve(system, [-1])
    assert res.status == "optimal"
    assert -res.optimum == -2


def test_equalities_and_free_variables():
    # variables may be negative: x + y = 1, x - y = 3 has x=2, y=-1
    system = LinearSystem(
        num_vars=2,
        equalities=[([1, 1], 1), ([1, -1], 3)],
    )
    res = lp_solve(system, [0, 0])
    assert res.status == "optimal"
    assert res.point == (F(2), F(-1))


def test_unbounded():
    system = LinearSystem(num_vars=1, inequalities=[([-1], 0)])
    res = lp_solve(system, [1])
    assert res.status == "unbounded"


def test_infeasible_with_verified_certificate():
    system = LinearSystem(
        num_vars=1,
        inequalities=[([1], -1)],       # x <= -1
        equalities=[([1], 2)],          # x = 2
    )
    res = lp_solve(system, [1])
    assert res.status == "infeasible"
    assert verify_farkas(system, res.dual_certificate)


def test_verify_farkas_rejects_bogus_certificates():
    system = LinearSystem(num_vars=1, inequalities=[([1], -1)], equalities=[([1], 2)])
    res = lp_solve(system, [1])
    cert = res.dual_certificate
    bad = type(cert)(ineq_mults=(F(-1),), eq_mults=cert.eq_mults)
    assert not verify_farkas(system, bad)
    zero = type(cert)(ineq_mults=(F(0),), eq_mults=(F(0),))
    assert not verify_farkas(system, zero)


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate LP; Bland's rule must terminate
    system = LinearSystem(
        num_vars=4,
        inequalities=[
            ([F(1, 4), -60, F(-1, 25), 9], 0),
            ([F(1, 2), -90, F(-1, 50), 3], 0),
            ([0, 0, 1, 0], 1),
            ([-1, 0, 0, 0], 0),
            ([0, -1, 0, 0], 0),
            ([0, 0, -1, 0], 0),
            ([0, 0, 0, -1], 0),
        ],
    )
    res = lp_solve(system, [F(3, 4), -150, F(1, 50), -6])
    assert res.status == "optimal"
    assert res.optimum == F(1, 20)


def test_random_lps_against_scipy():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = rng.randint(1, 5)
        ineqs = []
        for _ in range(rows):
            ineqs.append(
                (
                    [F(rng.randint(-3, 3)) for _ in range(n)],
                    F(rng.randint(-2, 4)),
                )
            )
        # box constraints keep everything bounded
        for j in range(n):
            e = [F(0)] * n
            e[j] = F(1)
            ineqs.append((list(e), F(5)))
            e2 = [F(0)] * n
            e2[j] = F(-1)
            ineqs.append((e2, F(5)))
        obj = [F(rng.randint(-3, 3)) for _ in range(n)]
        system = LinearSystem(num_vars=n, inequalities=ineqs)
        res = lp_solve(system, obj)
        A_ub = np.array([[float(c) for c in a] for a, _ in ineqs])
        b_ub = np.array([float(b) for _, b in ineqs])
        ref = linprog(
            c=-np.array([float(c) for c in obj]),
            A_ub=A_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * n,
            method="highs",
        )
        if res.status == "optimal":
            assert ref.status == 0
            assert abs(float(res.optimum) + ref.fun) < 1e-7
            assert system.satisfied_by(list(res.point))
            checked += 1
        elif res.status == "infeasible":
            assert ref.status == 2
            assert verify_farkas(system, res.dual_certificate)
        else:
            assert ref.status == 3
    assert checked > 10


def test_objective_length_mismatch():
    system = LinearSystem(num_vars=2, inequalities=[([1, 0], 1)])
    with pytest.raises(ValueError):
        lp_solve(system, [1])


def _mixed_lp(rng):
    """A random LP over bounded and free variables.  Bounded variables get
    one or two rows c * x_j <= 0 with c < 0; every variable may get singleton
    rows that must stay general rows (a positive coefficient, or a nonzero
    right-hand side); some LPs have equality rows, and some an extra row
    sum of bounded variables <= -1 that only the bound rows make
    infeasible."""
    n = rng.randint(1, 5)
    bounded = [j for j in range(n) if rng.random() < 0.6]
    ineqs, bound_rows = [], []

    def unit(j, c):
        e = [F(0)] * n
        e[j] = F(c)
        return e

    for j in bounded:
        for _ in range(rng.choice((1, 1, 2))):
            bound_rows.append(len(ineqs))
            ineqs.append((unit(j, -rng.randint(1, 3)), F(0)))
    boxed = rng.random() < 0.7  # a box keeps most LPs bounded
    for j in range(n):
        if boxed:
            ineqs.append((unit(j, rng.randint(1, 3)), F(rng.randint(1, 6))))
            ineqs.append((unit(j, -rng.randint(1, 3)), F(rng.randint(1, 6))))
        if rng.random() < 0.3:
            ineqs.append((unit(j, rng.randint(1, 3)), F(rng.choice((-1, 1, 2)))))
    for _ in range(rng.randint(0, 3)):
        ineqs.append(([F(rng.randint(-3, 3)) for _ in range(n)], F(rng.randint(-1, 4))))
    if bounded and rng.random() < 0.3:
        ineqs.append(([F(int(j in bounded)) for j in range(n)], F(-1)))
    eqs = [
        ([F(rng.randint(-2, 2)) for _ in range(n)], F(rng.randint(-2, 2)))
        for _ in range(rng.choice((0, 0, 0, 1, 2)))
    ]
    obj = [F(rng.randint(-3, 3)) for _ in range(n)]
    return LinearSystem(num_vars=n, inequalities=ineqs, equalities=eqs), obj, bound_rows


def _highs(system, obj, drop_rows=()):
    ineqs = [row for i, row in enumerate(system.inequalities) if i not in drop_rows]
    n = system.num_vars
    as_float = lambda rows: (
        np.array([[float(c) for c in a] for a, _ in rows]).reshape(len(rows), n),
        np.array([float(b) for _, b in rows]),
    )
    A_ub, b_ub = as_float(ineqs)
    A_eq, b_eq = as_float(system.equalities)
    return linprog(
        c=-np.array([float(c) for c in obj]),
        A_ub=A_ub if ineqs else None,
        b_ub=b_ub if ineqs else None,
        A_eq=A_eq if system.equalities else None,
        b_eq=b_eq if system.equalities else None,
        bounds=[(None, None)] * n,
        method="highs",
    )


def test_native_bounds_against_scipy():
    rng = random.Random(2013)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    bound_weighted = 0
    for _ in range(300):
        system, obj, bound_rows = _mixed_lp(rng)
        res = lp_solve(system, obj)
        ref = _highs(system, obj)
        statuses[res.status] += 1
        if res.status == "optimal":
            assert ref.status == 0
            assert system.satisfied_by(res.point)
            assert res.optimum == sum(c * x for c, x in zip(obj, res.point))
            assert abs(float(res.optimum) + ref.fun) < 1e-7
        elif res.status == "infeasible":
            assert ref.status == 2
            cert = res.dual_certificate
            assert verify_farkas(system, cert)
            if _highs(system, obj, drop_rows=set(bound_rows)).status != 2:
                # the rows other than the bounds are feasible, so the
                # certificate must put weight on a bound row
                assert any(cert.ineq_mults[i] > 0 for i in bound_rows)
                bound_weighted += 1
        else:
            assert ref.status == 3
    assert min(statuses.values()) >= 10, statuses
    assert bound_weighted >= 10


def test_failed_certificate_check_raises(monkeypatch):
    monkeypatch.setattr(symmeq.simplex, "verify_farkas", lambda s, c: False)
    system = LinearSystem(num_vars=1, inequalities=[([1], -1)], equalities=[([1], 2)])
    with pytest.raises(ExactCheckError):
        lp_solve(system, [1])


def test_failed_certificate_check_raises_under_python_O():
    # python -O strips assert statements; the check must still run
    script = """
import symmeq.simplex
from symmeq import ExactCheckError, LinearSystem, lp_solve
if __debug__:
    raise SystemExit(2)
symmeq.simplex.verify_farkas = lambda s, c: False
system = LinearSystem(num_vars=1, inequalities=[([1], -1)], equalities=[([1], 2)])
try:
    lp_solve(system, [1])
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
