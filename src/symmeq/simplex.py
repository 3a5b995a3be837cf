"""Exact rational linear programming.

Two-phase primal simplex in exact arithmetic with Bland's anti-cycling
rule.  An inequality row c * v_j <= 0 with c < 0 and no other nonzero
coefficient is a native bound v_j >= 0: it becomes no tableau row, and v_j
gets a single nonnegative column.  Every variable without such a row is
free and is split into positive and negative parts.  Each tableau row is
kept as integers over a positive common denominator, and the phase-1 and
phase-2 reduced-cost rows live in the tableau, updated by every pivot.

On infeasible systems the solver returns an exact Farkas certificate over
the user's own rows: a nonnegative combination of the inequality rows plus a
signed combination of the equality rows whose coefficient vector vanishes
while the combined right-hand side is negative.  Its multipliers are the
phase-1 reduced costs: a row's from its slack or artificial column, a bound
row's from the column of its variable.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .exactlin import ZERO, ONE, ExactCheckError, dot, frac
from .exactlin import _integer_row, _reduced

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearSystem:
    """Constraints coeff . v <= rhs (inequalities) and coeff . v = rhs
    (equalities) over num_vars rational variables."""

    num_vars: int
    inequalities: tuple = ()
    equalities: tuple = ()

    def __post_init__(self):
        def freeze(rows):
            out = []
            for coeffs, rhs in rows:
                coeffs = tuple(frac(c) for c in coeffs)
                if len(coeffs) != self.num_vars:
                    raise ValueError("coefficient vector has wrong length")
                out.append((coeffs, frac(rhs)))
            return tuple(out)

        object.__setattr__(self, "inequalities", freeze(self.inequalities))
        object.__setattr__(self, "equalities", freeze(self.equalities))

    def satisfied_by(self, v):
        """Exact feasibility check of a candidate point."""
        support = [(j, x) for j, x in enumerate(v) if x]

        def value(a):
            return sum((a[j] * x for j, x in support), ZERO)

        return all(value(a) <= b for a, b in self.inequalities) and all(
            value(a) == b for a, b in self.equalities
        )


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility: ineq_mults >= 0 and
    sum_i ineq_mults[i]*ineq_i + sum_j eq_mults[j]*eq_j reads 0 <= negative."""

    ineq_mults: tuple
    eq_mults: tuple


@dataclass(frozen=True)
class LPResult:
    status: str
    optimum: Fraction = None
    point: tuple = None
    dual_certificate: FarkasCertificate = None


def verify_farkas(system, cert):
    """Re-verify an infeasibility certificate exactly."""
    if any(y < 0 for y in cert.ineq_mults):
        return False
    combo = [ZERO] * system.num_vars
    rhs = ZERO
    for y, (a, b) in chain(
        zip(cert.ineq_mults, system.inequalities),
        zip(cert.eq_mults, system.equalities),
    ):
        if y:
            for j, c in enumerate(a):
                if c:
                    combo[j] += y * c
            rhs += y * b
    return all(c == 0 for c in combo) and rhs < 0


def require_infeasible(system, res):
    """Raise ExactCheckError unless res is an infeasible verdict whose
    certificate re-verifies on system."""
    if res.status != INFEASIBLE or not verify_farkas(
        system, res.dual_certificate
    ):
        raise ExactCheckError(
            f"expected a verified infeasible LP, got {res.status}"
        )


class _Tableau:
    """Dense simplex tableau; row i stands for rows[i] / dens[i].

    The first len(basis) rows are constraints with the right-hand side as
    their last entry, and basis[i] is the column basic in row i.  The rows
    after them hold reduced costs, with the negated objective value as
    their last entry; pivots update them like any other row.
    """

    def __init__(self, rows, dens, basis, ncols):
        pairs = [_reduced(row, den) for row, den in zip(rows, dens)]
        self.rows = [row for row, _ in pairs]
        self.dens = [den for _, den in pairs]
        self.basis = basis
        self.ncols = ncols

    def value(self, i, j):
        return Fraction(self.rows[i][j], self.dens[i])

    def pivot(self, r, c):
        rows, dens = self.rows, self.dens
        p = rows[r][c]
        prow = rows[r] if p > 0 else [-x for x in rows[r]]
        prow, q = _reduced(prow, abs(p))
        rows[r], dens[r] = prow, q
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                rows[i], dens[i] = _reduced(
                    [x * q - a * y for x, y in zip(row, prow)], dens[i] * q
                )
        self.basis[r] = c

    def run(self, k):
        """Bland-rule simplex on the reduced costs in row k.  Returns
        OPTIMAL or UNBOUNDED (with the tableau left at the last basis)."""
        rows, basis = self.rows, self.basis
        while True:
            cost = rows[k]
            entering = next(
                (j for j in range(self.ncols) if cost[j] < 0), None
            )
            if entering is None:
                return OPTIMAL
            # minimum ratio rhs / coefficient; the row denominators cancel
            leaving = None
            for i in range(len(basis)):
                t = rows[i][entering]
                if t > 0:
                    if leaving is None:
                        leaving, lt = i, t
                        continue
                    lhs = rows[i][-1] * lt
                    rhs = rows[leaving][-1] * t
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving, lt = i, t
            if leaving is None:
                return UNBOUNDED
            self.pivot(leaving, entering)

    def restrict(self, keep, ncols, k):
        """Keep constraint rows `keep`, the first ncols columns and the
        reduced-cost row k, which becomes the last row."""
        rows = [self.rows[i] for i in keep] + [self.rows[k]]
        self.dens = [self.dens[i] for i in keep] + [self.dens[k]]
        self.rows = [row[:ncols] + row[-1:] for row in rows]
        self.basis = [self.basis[i] for i in keep]
        self.ncols = ncols


def bound_rows(n, cols):
    """The inequality rows -v_j <= 0 over n variables, one for each j in
    cols: the rows that lp_solve takes as native bounds v_j >= 0."""
    rows = []
    for j in cols:
        coeffs = [ZERO] * n
        coeffs[j] = -ONE
        rows.append((coeffs, ZERO))
    return rows


def _bound_variable(coeffs, rhs):
    """The variable j if the row reads c * v_j <= 0 with c < 0, else None."""
    if rhs != 0:
        return None
    nonzero = [j for j, c in enumerate(coeffs) if c]
    if len(nonzero) == 1 and coeffs[nonzero[0]] < 0:
        return nonzero[0]
    return None


def lp_solve(system, objective):
    """Exact maximum of a linear objective over the system's polyhedron.

    Returns an LPResult; infeasible systems carry a verified Farkas
    certificate and unbounded ones the UNBOUNDED status.
    """
    n = system.num_vars
    objective = [frac(c) for c in objective]
    if len(objective) != n:
        raise ValueError("objective length must equal num_vars")

    bound_row = {}      # variable -> its first bound row
    general = []        # inequality rows that stay rows
    for i, (a, b) in enumerate(system.inequalities):
        j = _bound_variable(a, b)
        if j is None:
            general.append(i)
        else:
            bound_row.setdefault(j, i)

    # columns: structural (variable, sign) | slacks | artificials
    cols = []
    for j in range(n):
        cols.append((j, 1))
        if j not in bound_row:
            cols.append((j, -1))
    n_struct = len(cols)
    n_kept = n_struct + len(general)
    specs = [(system.inequalities[i], n_struct + s) for s, i in enumerate(general)]
    specs += [(row, None) for row in system.equalities]
    n_art = sum(1 for (_, b), s in specs if s is None or b < 0)
    ncols = n_kept + n_art

    rows, dens, basis, eq_arts = [], [], [], []
    art = n_kept
    for (a, b), slack in specs:
        ints, den = _integer_row(a + (b,))
        sigma = 1 if b >= 0 else -1
        row = [sigma * sign * ints[j] for j, sign in cols]
        row += [0] * (ncols - n_struct)
        row.append(sigma * ints[-1])
        if slack is not None:
            row[slack] = sigma * den
        if slack is not None and sigma > 0:
            basis.append(slack)
        else:
            row[art] = den
            basis.append(art)
            if slack is None:
                eq_arts.append((sigma, art))
            art += 1
        rows.append(row)
        dens.append(den)
    # phase 1 minimizes the sum of the artificials: its reduced costs are
    # their unit costs minus the sum of the rows they are basic in
    art_rows = [i for i, c in enumerate(basis) if c >= n_kept]
    den1 = lcm(*(dens[i] for i in art_rows))
    phase1 = [0] * (ncols + 1)
    for i in art_rows:
        f = den1 // dens[i]
        phase1 = [x - f * y for x, y in zip(phase1, rows[i])]
    for c in range(n_kept, ncols):
        phase1[c] += den1
    ints, den2 = _integer_row(objective)
    # the tableau minimizes, so phase 2 minimizes minus the objective
    phase2 = [-sign * ints[j] for j, sign in cols]
    phase2 += [0] * (ncols - n_struct + 1)
    m = len(rows)
    tab = _Tableau(rows + [phase1, phase2], dens + [den1, den2], basis, ncols)

    if tab.run(m) != OPTIMAL:
        raise ExactCheckError("phase 1 came out unbounded")
    if tab.rows[m][-1] < 0:
        cert = _farkas_from_reduced_costs(
            system, tab, m, general, bound_row, cols, eq_arts
        )
        if not verify_farkas(system, cert):
            raise ExactCheckError("Farkas certificate failed its re-check")
        return LPResult(INFEASIBLE, dual_certificate=cert)

    # drive artificials out of the basis; drop rows that are redundant
    keep = []
    for r in range(m):
        if tab.basis[r] >= n_kept:
            row = tab.rows[r]
            c = next((j for j in range(n_kept) if row[j]), None)
            if c is None:
                continue
            tab.pivot(r, c)
        keep.append(r)
    tab.restrict(keep, n_kept, m + 1)

    if tab.run(len(keep)) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    point = [ZERO] * n
    for i, c in enumerate(tab.basis):
        if c < n_struct:
            j, sign = cols[c]
            point[j] += sign * tab.value(i, -1)
    if not system.satisfied_by(point):
        raise ExactCheckError("optimal point failed its re-check")
    return LPResult(OPTIMAL, dot(objective, point), tuple(point))


def _farkas_from_reduced_costs(system, tab, k, general, bound_row, cols, eq_arts):
    """Multipliers on the user's rows from the phase-1 reduced costs in row
    k.  With y the phase-1 dual on the sign-normalized rows (sign sigma), a
    row's multiplier is -sigma*y: its slack's reduced cost, or sigma*(d - 1)
    with d its artificial's reduced cost.  A bound row c * v_j <= 0 gets
    the reduced cost of v_j's column divided by -c."""
    ineq = [ZERO] * len(system.inequalities)
    for s, i in enumerate(general):
        ineq[i] = tab.value(k, len(cols) + s)
    for c, (j, _) in enumerate(cols):
        i = bound_row.get(j)
        if i is not None:
            ineq[i] = tab.value(k, c) / -system.inequalities[i][0][j]
    eq = tuple(sigma * (tab.value(k, art) - ONE) for sigma, art in eq_arts)
    return FarkasCertificate(ineq_mults=tuple(ineq), eq_mults=eq)
