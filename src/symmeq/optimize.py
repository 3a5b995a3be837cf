"""Membership tests and utility optimization over the equilibrium hierarchy.

Three nested sets are supported for a symmetric game: the symmetric
correlated equilibria (exact polyhedral checks and LP optimization), the
exchangeable equilibria (exact membership via conditional-i.i.d.
certification; optimization via the doubly-nonnegative relaxation, exact in
meaning only for m <= exchange.DNN_IS_CP_MAX_M), and the convex hull of
symmetric Nash outer products (exact LP over the enumerated Nash set).
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ZERO, ONE, ExactCheckError
from .exchange import (
    CONDITIONALLY_IID,
    DNN_IS_CP_MAX_M,
    NOT_CONDITIONALLY_IID,
    certify_conditionally_iid,
    dnn_refutation,
)
from .games import (
    DEFAULT_TOL,
    JointDistribution,
    deviation_gains,
    expected_utility,
    outer,
)
from .nash import enumerate_symmetric_nash
from .polytope import SymCEIndex, ce_system
from .sdp import dnn_ce_problem, sdp_solve
from .simplex import LinearSystem, bound_rows, lp_solve, require_infeasible

CE_SYM = "ce_sym"
XE_SYM = "xe_sym"
CONV_NASH_SYM = "conv_nash_sym"

# the denominator ladder for rounding the SDP's float argmax to exact
# candidates, each verified exactly before it is accepted
DENOMINATORS = (8, 16, 64, 512, 4096, 10**6)

IN = "In"
OUT = "Out"
INCONCLUSIVE = "Inconclusive"

_ALIASES = {
    "ce": CE_SYM,
    "ce_sym": CE_SYM,
    "xe": XE_SYM,
    "xe_sym": XE_SYM,
    "conv_nash": CONV_NASH_SYM,
    "conv_nash_sym": CONV_NASH_SYM,
    "nash": CONV_NASH_SYM,
}


class DegenerateGameError(ValueError):
    """Nash enumeration could not certify completeness, so claims about the
    convex hull of symmetric Nash equilibria would be unsound."""


def canonical_set_name(name):
    try:
        return _ALIASES[name.lower().replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown equilibrium set {name!r}") from None


@dataclass(frozen=True)
class MembershipVerdict:
    set_name: str
    answer: str
    certificate: dict

    @property
    def is_in(self):
        return self.answer == IN


@dataclass(frozen=True)
class UtilityOptimum:
    """Result of maximizing expected utility over one equilibrium set.

    `value` is an exact Fraction when `exact` is set, otherwise a float
    carrying solver tolerance.  `upper_bound_only` marks relaxation values
    past DNN_IS_CP_MAX_M that only bound the true exchangeable optimum from
    above.
    """

    set_name: str
    value: object
    argmax: object
    exact: bool
    upper_bound_only: bool = False
    detail: object = None


def _ce_violation(game, W):
    """First violated symmetric-CE constraint of W, or None.

    Returns a certificate dict naming the recommendation s, the deviation t,
    and the exact (positive) deviation gain.
    """
    for (s, t), gain in deviation_gains(game, W.P):
        if gain > 0:
            return {
                "kind": "ce_violation",
                "recommendation": s,
                "deviation": t,
                "gain": gain,
            }
    return None


def membership(game, W, set_name):
    """Exact membership of a joint distribution in one equilibrium set.

    Out verdicts always carry a re-verifiable certificate; XE_sym answers
    are exact for m <= DNN_IS_CP_MAX_M and at rank at most 2, and may be
    Inconclusive beyond.
    """
    which = canonical_set_name(set_name)
    if game.m != W.m:
        raise ValueError("game and distribution dimensions differ")

    witness = W.asymmetry_witness()
    if witness is not None:
        return MembershipVerdict(
            which, OUT, {"kind": "asymmetry", "entry": witness}
        )

    violation = _ce_violation(game, W)
    if which == CE_SYM:
        if violation is not None:
            return MembershipVerdict(which, OUT, violation)
        return MembershipVerdict(which, IN, {"kind": "all_constraints_hold"})

    if which == XE_SYM:
        if violation is not None:
            return MembershipVerdict(which, OUT, violation)
        verdict = certify_conditionally_iid(W)
        if verdict.status == NOT_CONDITIONALLY_IID:
            return MembershipVerdict(which, OUT, verdict.certificate)
        if verdict.status == CONDITIONALLY_IID:
            return MembershipVerdict(which, IN, verdict.certificate)
        return MembershipVerdict(which, INCONCLUSIVE, verdict.certificate)

    # ConvNashSym: is W a convex combination of symmetric Nash products?
    enum = enumerate_symmetric_nash(game)
    if enum.sym_degenerate:
        return MembershipVerdict(
            which,
            INCONCLUSIVE,
            {
                "kind": "degenerate",
                "supports": enum.degenerate_supports,
            },
        )
    products = [outer(x) for x in enum.points]
    index = SymCEIndex(game.m)
    k = len(products)
    if k == 0:
        return MembershipVerdict(which, INCONCLUSIVE, {"kind": "no_nash"})
    eqs = []
    for pos in range(index.size):
        i, j = index.pair(pos)
        row = [products[a].P[i][j] for a in range(k)]
        eqs.append((row, W.P[i][j]))
    eqs.append(([ONE] * k, ONE))
    system = LinearSystem(
        num_vars=k, inequalities=bound_rows(k, range(k)), equalities=eqs
    )
    res = lp_solve(system, [ZERO] * k)
    if res.status == "optimal":
        return MembershipVerdict(
            which,
            IN,
            {
                "kind": "convex_combination",
                "weights": res.point,
                "strategies": tuple(x.x for x in enum.points),
            },
        )
    require_infeasible(system, res)
    return MembershipVerdict(
        which,
        OUT,
        {
            "kind": "farkas",
            "certificate": res.dual_certificate,
            "system": system,
        },
    )


def _utility_objective(game, index):
    """Expected utility as a linear functional of upper-triangle variables."""
    obj = []
    for pos in range(index.size):
        i, j = index.pair(pos)
        if i == j:
            obj.append(game.A[i][i])
        else:
            obj.append(game.A[i][j] + game.A[j][i])
    return obj


def _rationalize_argmax(game, M, value):
    """Try to turn the SDP's float argmax into an exact XE member whose
    exact utility explains the solver value.  Returns (JointDistribution,
    Fraction) or None; only exactly re-verified candidates are accepted.
    Past DNN_IS_CP_MAX_M it is always None: DNN no longer certifies
    exchangeability."""
    m = game.m
    if m > DNN_IS_CP_MAX_M:
        return None
    for dmax in DENOMINATORS:
        P = [[ZERO] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                x = Fraction(float(0.5 * (M[i][j] + M[j][i])))
                x = max(ZERO, x.limit_denominator(dmax))
                P[i][j] = x
                P[j][i] = x
        total = sum((x for row in P for x in row), ZERO)
        if total <= 0:
            continue
        P = [[x / total for x in row] for row in P]
        W = JointDistribution(m=m, P=P)
        if _ce_violation(game, W) is not None:
            continue
        if dnn_refutation(W) is not None:
            continue
        exact_value = expected_utility(game, W)
        if abs(float(exact_value) - value) <= 1e-6:
            return W, exact_value
    return None


def max_utility(game, set_name, tol=DEFAULT_TOL, nash=None):
    """Maximize expected utility over one equilibrium set.

    CE_sym and ConvNashSym are exact; XE_sym goes through the
    doubly-nonnegative SDP relaxation and reports a toleranced float,
    upgraded to an exact value when the argmax rationalizes and re-verifies.
    `nash` is the game's `enumerate_symmetric_nash` result, for a caller
    that already has it; ConvNashSym then skips enumerating it again, with
    the same result.  The other sets do not use it.
    """
    which = canonical_set_name(set_name)
    index = SymCEIndex(game.m)

    if which == CE_SYM:
        system = ce_system(game, symmetric_only=True)
        res = lp_solve(system, _utility_objective(game, index))
        if res.status != "optimal":  # ce_sym is nonempty and bounded
            raise ExactCheckError(f"CE utility LP came out {res.status}")
        W = JointDistribution(m=game.m, P=index.vec_to_matrix(res.point))
        return UtilityOptimum(
            set_name=which,
            value=res.optimum,
            argmax=W,
            exact=True,
            detail=res,
        )

    if which == CONV_NASH_SYM:
        enum = nash if nash is not None else enumerate_symmetric_nash(game)
        if enum.sym_degenerate:
            raise DegenerateGameError(
                "symmetric Nash enumeration is degenerate; the hull "
                "optimum cannot be certified"
            )
        if not enum.points:
            raise DegenerateGameError("no symmetric Nash strategy found")
        best = None
        best_val = None
        for x in enum.points:
            W = outer(x)
            val = expected_utility(game, W)
            if best_val is None or val > best_val:
                best_val = val
                best = W
        return UtilityOptimum(
            set_name=which,
            value=best_val,
            argmax=best,
            exact=True,
            detail=enum,
        )

    # XE_sym via the DNN relaxation
    res = sdp_solve(dnn_ce_problem(game), tol=tol)
    if res.status != "optimal":
        return UtilityOptimum(
            set_name=which,
            value=float("nan"),
            argmax=None,
            exact=False,
            upper_bound_only=game.m > DNN_IS_CP_MAX_M,
            detail=res,
        )
    rationalized = _rationalize_argmax(game, res.matrix, res.value)
    if rationalized is not None:
        W, exact_value = rationalized
        return UtilityOptimum(
            set_name=which,
            value=exact_value,
            argmax=W,
            exact=True,
            upper_bound_only=False,
            detail=res,
        )
    argmax = None
    if game.m <= DNN_IS_CP_MAX_M:
        # report the converged matrix as float evidence, unrounded
        argmax = res.matrix
    return UtilityOptimum(
        set_name=which,
        value=res.value,
        argmax=argmax,
        exact=False,
        upper_bound_only=game.m > DNN_IS_CP_MAX_M,
        detail=res,
    )
