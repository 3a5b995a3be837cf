"""The four workloads: seeded inputs, the timed call, and the answer check.

A workload hands out rounds.  A round is a fixed recipe of operations on
fresh seeded inputs, so every run attempts whole rounds of the same kinds
of operation.  `Op.run` is the only timed part; `Op.check` runs after it
and returns None when the answer re-verifies, or the reason it does not.
Input files are written when a round is built, before any timing.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact as X

F = Fraction
CLI_TOL = 1e-8           # symmeq's command-line default --tol


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


class CliOp:
    """One in-process `symmeq ...` call; returns (exit code, stdout)."""

    def __init__(self, symmeq, argv):
        self.symmeq = symmeq
        self.argv = argv

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.symmeq.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()


def _fmt(P):
    return [[str(x) for x in row] for row in P]


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _report(result, want_code):
    code, out = result
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"unparsable report: {exc}"


def random_strategy(rng, support, m, den=4):
    w = [0] * m
    for i in support:
        w[i] = rng.randint(1, den)
    total = sum(w)
    return [F(v, total) for v in w]


def generic_game(rng, m, lo=-5, hi=5):
    return [[F(rng.randint(lo, hi)) for _ in range(m)] for _ in range(m)]


def verify_deferred(deferred):
    """Compare each exact CE optimum with scipy's HiGHS, an LP code
    independent of symmeq.  Run after the timed loop and after peak RSS is
    read, so scipy's import counts in neither.  Returns failure reasons."""
    reasons = []
    for A, ce in deferred:
        highs = X.ce_optimum_highs(A)
        if abs(float(ce) - highs) > 1e-7:
            reasons.append(f"CE optimum {ce} disagrees with HiGHS {highs}")
    return reasons


# --- analyze ---------------------------------------------------------------


def check_analyze(A, report, deferred):
    """Re-verify an `analyze --json` report.  Returns (reason, xe_low): the
    first failed check or None, and whether the failure is the XE value
    falling below the conv-Nash value with every other check passing.  The
    CE optimum's comparison with HiGHS is appended to `deferred`."""
    nash = report["nash"]
    for pair in nash["pairs"]:
        if not X.is_nash_pair(A, X.vec(pair["x"]), X.vec(pair["y"])):
            return f"Nash pair {pair} is not a best-response pair", False
    sym = [X.vec(x) for x in nash["symmetric_strategies"]]
    for x in sym:
        if not X.is_nash_pair(A, x, x):
            return f"symmetric Nash {x} is not a best response to itself", False
    verts = [X.mat(V) for V in report["ce_sym_vertices"] or []]
    for V in verts:
        if not X.is_ce_vertex(A, V):
            return f"{V} is not a vertex of the symmetric CE polytope", False
    table = report["max_utility"]
    ce = X.frac(table["ce_sym"]["value"])
    if verts and ce != max(X.utility(A, V) for V in verts):
        return "CE optimum is not the best vertex utility", False
    deferred.append((A, ce))
    cn_entry = table["conv_nash_sym"]
    if cn_entry["value"] is None:
        if not nash["sym_degenerate"]:
            return "conv-Nash missing on a nondegenerate game", False
        cn = None
    else:
        cn = X.frac(cn_entry["value"])
        if not sym or cn != max(X.utility(A, X.outer(x)) for x in sym):
            return "conv-Nash value is not the best Nash product", False
    xe_entry = table["xe_sym"]
    if xe_entry["exact"]:
        xe, tol = X.frac(xe_entry["value"]), 0
    else:
        xe, tol = xe_entry["value"], xe_entry["tolerance"]
        if xe is None or not math.isfinite(xe):
            return f"XE value {xe} is not a number", False
    if float(xe) > float(ce) + tol:
        return f"XE {xe} above CE {ce}", False
    if cn is not None and float(xe) < float(cn) - tol:
        return f"XE {xe} below conv-Nash {cn}", True
    return None, False


class KnownFault(str):
    """A failure reason that is the named, known fault of its operation."""


class Analyze:
    """`symmeq analyze --json` on integer games: per round the named
    XE-fault game and GAMES 3x3 games from a fixed pool, in an order drawn
    from the seed.

    The pool is POOL draws of 3x3 games with entries in [-5, 5] from a fixed
    generator, less XE_FAULT_DRAWS: the draws on which `max_utility(XE)`
    shows the named game's fault (XE below conv-Nash), listed by
    `perfbench/scan_pool.py`.  They are left out so that the failed share is
    the named game's alone on every seed; the pool is data, so which games
    a seed runs does not depend on the code under test.  (m = 4 games are
    left out: they cost 1-6 s, 5-30 times an m = 3 game.)"""

    NAMED = [[4, -5, 1], [3, -3, 3], [3, -2, 1]]
    GAMES = 8
    POOL = 480
    XE_FAULT_DRAWS = frozenset({68, 101, 133, 300, 419, 474})

    @classmethod
    def pool(cls):
        rng = random.Random("analyze-pool")
        return [generic_game(rng, 3) for _ in range(cls.POOL)]

    def __init__(self, symmeq, seed, tmp):
        self.symmeq, self.tmp = symmeq, tmp
        self.order = [A for i, A in enumerate(self.pool()) if i not in self.XE_FAULT_DRAWS]
        random.Random(f"analyze:{seed}").shuffle(self.order)
        self.drawn = 0
        self.files = 0
        self.deferred = []

    def op(self, kind, A, named=False):
        self.files += 1
        path = _write(
            os.path.join(self.tmp, f"analyze-{self.files % 64}.json"),
            {"m": len(A), "A": _fmt(A)},
        )
        A = X.mat(A)

        def check(result):
            report, err = _report(result, 0)
            if err:
                return err
            reason, xe_low = check_analyze(A, report, self.deferred)
            return KnownFault(reason) if xe_low and named else reason

        return Op(kind, CliOp(self.symmeq, ["analyze", path, "--json"]), check)

    def round(self):
        ops = [self.op("xe_fault_game", self.NAMED, named=True)]
        for _ in range(self.GAMES):
            ops.append(self.op("m3", self.order[self.drawn % len(self.order)]))
            self.drawn += 1
        return ops


# --- welfare ----------------------------------------------------------------


def check_welfare(A, ce, xe, cn, deferred, chicken=False):
    if not (X.is_distribution(ce.argmax.P) and X.is_symmetric(ce.argmax.P)):
        return "CE argmax is not a symmetric distribution"
    W = [list(r) for r in ce.argmax.P]
    if not X.is_ce(A, W) or X.utility(A, W) != ce.value:
        return "CE argmax is infeasible or does not attain the optimum"
    if ce.value != max(X.utility(A, V) for V in X.ce_vertices(A)):
        return "CE optimum is not the best vertex utility"
    deferred.append((A, ce.value))
    if chicken and ce.value != F(10, 3):
        return f"Chicken's CE optimum is {ce.value}, not 10/3"
    strategies = [list(x.x) for x in cn.detail.points]
    if strategies != X.symmetric_nash(A):
        return "symmetric Nash set differs from the benchmark's enumeration"
    if cn.value != max(X.utility(A, X.outer(x)) for x in strategies):
        return "conv-Nash value is not the best Nash product"
    if xe.exact:
        P = [list(r) for r in xe.argmax.P]
        if not (X.is_distribution(P) and X.is_symmetric(P)):
            return "XE argmax is not a symmetric distribution"
        if not (X.is_ce(A, P) and X.is_psd(P)):
            return "XE argmax is not CE-feasible and PSD"
        if X.utility(A, P) != xe.value:
            return "XE argmax does not attain the XE value"
        tol = 0.0
    else:
        if not math.isfinite(xe.value):
            return f"XE value {xe.value} is not a number"
        tol = CLI_TOL + 1e-6   # the tolerance the CLI reports
    if not float(cn.value) - tol <= float(xe.value) <= float(ce.value) + tol:
        return f"nesting fails: conv-Nash {cn.value}, XE {xe.value}, CE {ce.value}"
    return None


class Welfare:
    """max_utility over CE, XE and conv-Nash per game: per round Chicken
    and GAMES seeded generic 2x2 games."""

    GAMES = 24

    def __init__(self, symmeq, seed, tmp):
        self.symmeq = symmeq
        self.rng = random.Random(f"welfare:{seed}")
        self.deferred = []
        self.chicken = symmeq.SymmetricGame.from_file(symmeq.cli.data_path("chicken.json"))

    def _game(self):
        while True:
            A = generic_game(self.rng, 2)
            # distinct column entries: no best-response ties, so the
            # symmetric Nash set is finite and conv-Nash is defined
            if A[0][0] != A[1][0] and A[0][1] != A[1][1]:
                return self.symmeq.SymmetricGame(m=2, A=A)

    def _op(self, kind, game):
        opt = self.symmeq.optimize
        A = [list(r) for r in game.A]

        def run():
            return (
                opt.max_utility(game, opt.CE_SYM),
                opt.max_utility(game, opt.XE_SYM),
                opt.max_utility(game, opt.CONV_NASH_SYM),
            )

        return Op(kind, run, lambda r: check_welfare(A, *r, self.deferred, chicken=kind == "chicken"))

    def round(self):
        return [self._op("chicken", self.chicken)] + [
            self._op("2x2", self._game()) for _ in range(self.GAMES)
        ]


# --- extend -------------------------------------------------------------------


def check_orbit_report(W, N, report, orbit_path):
    m = len(W)
    orbit = report["orbit"]
    weights = {tuple(e["k"]): X.frac(e["w"]) for e in orbit["weights"]}
    if orbit["N"] != N or any(len(k) != m or sum(k) != N for k in weights):
        return "orbit coordinates do not match N"
    if any(w < 0 for w in weights.values()) or sum(weights.values()) != 1:
        return "orbit weights are not a distribution"
    if X.pair_marginal(m, N, weights) != W:
        return "orbit weights do not reproduce W"
    with open(orbit_path) as fh:
        if json.load(fh) != orbit:
            return "orbit file differs from the report"
    return None


def check_farkas_report(W, N, report):
    cert = report["certificate"]
    ineqs, eqs = X.extendability_system(W, N)
    if not X.farkas_ok(ineqs, eqs, X.vec(cert["ineq_mults"]), X.vec(cert["eq_mults"])):
        return "Farkas certificate does not verify"
    return None


def check_minority(n_max, report):
    rows = report["rows"]
    if [r["N"] for r in rows] != list(range(2, n_max + 1)):
        return "minority table rows do not cover 2..n_max"
    for r in rows:
        N = r["N"]
        if r["feasible"] != (N % 2 == 1):
            return f"pi^{N} extension parity is wrong"
        if not r["feasible"]:
            continue
        if r["unique"] is not True:
            return f"pi^{N} extension is not reported unique"
        ext = {tuple(e["k"]): X.frac(e["w"]) for e in r["extension"]["weights"]}
        if ext != X.minority_pi(N + 1) or X.drop_one(2, N + 1, ext) != X.minority_pi(N):
            return f"pi^{N} extension is not pi^{N + 1}"
    return None


class Extend:
    """`symmeq extend` on m = 3 distributions and `symmeq minority`: per
    round six seeded mixtures of two outer products at N = 5 (feasible at
    every N), three seeded zero-diagonal distributions at N = 4
    (infeasible: with no strategy repeated an orbit holds at most m = 3
    players), the four bundled distributions, and the parity table up to
    N = 5.  N stays small so every operation costs about 0.1 s."""

    BUNDLED = (
        ("exeqsep.json", "exeqsep_w1.json", 4, False),   # zero diagonal
        ("exeqsep.json", "exeqsep_w2.json", 5, True),    # mixture of two x x^T
        ("payoffsep.json", "payoffsep_w1.json", 4, False),  # zero diagonal
        ("payoffsep.json", "payoffsep_w2.json", 5, True),   # mixture of two x x^T
    )
    MIXTURES, MIXTURE_N = 6, 5
    ZERO_DIAGONAL, ZERO_DIAGONAL_N = 3, 4
    MINORITY_N_MAX = 5

    def __init__(self, symmeq, seed, tmp):
        self.symmeq, self.tmp = symmeq, tmp
        self.rng = random.Random(f"extend:{seed}")
        self.data = symmeq.cli.data_path
        self.game = str(self.data("exeqsep.json"))

    def _mixture(self):
        rng = self.rng
        xs = [random_strategy(rng, range(3), 3) for _ in range(2)]
        lam = random_strategy(rng, range(2), 2)
        return X.mix(lam, xs)

    def _zero_diagonal(self):
        a, b, c = (self.rng.randint(1, 6) for _ in range(3))
        t = 2 * (a + b + c)
        return [[F(0), F(a, t), F(b, t)], [F(a, t), F(0), F(c, t)], [F(b, t), F(c, t), F(0)]]

    def _op(self, idx, game, dist_path, W, N, feasible):
        out = os.path.join(self.tmp, f"orbit-{idx}.json")
        argv = ["extend", game, dist_path, "--n", str(N), "--json", "--out", out]

        def check(result):
            report, err = _report(result, 0 if feasible else 1)
            if err:
                return err
            if feasible:
                return check_orbit_report(W, N, report, out)
            return check_farkas_report(W, N, report)

        return Op("feasible" if feasible else "infeasible", CliOp(self.symmeq, argv), check)

    def round(self):
        ops = []
        seeded = [(self._mixture(), self.MIXTURE_N, True) for _ in range(self.MIXTURES)]
        seeded += [(self._zero_diagonal(), self.ZERO_DIAGONAL_N, False) for _ in range(self.ZERO_DIAGONAL)]
        for idx, (W, N, feasible) in enumerate(seeded):
            path = _write(os.path.join(self.tmp, f"dist-{idx}.json"), {"m": 3, "P": _fmt(W)})
            ops.append(self._op(idx, self.game, path, W, N, feasible))
        for idx, (game, dist, N, feasible) in enumerate(self.BUNDLED, len(ops)):
            path = str(self.data(dist))
            with open(path) as fh:
                W = X.mat(json.load(fh)["P"])
            ops.append(self._op(idx, str(self.data(game)), path, W, N, feasible))
        n_max = self.MINORITY_N_MAX

        def check_table(result):
            report, err = _report(result, 0)
            return err or check_minority(n_max, report)

        argv = ["minority", "--n-max", str(n_max), "--json"]
        ops.append(Op("minority", CliOp(self.symmeq, argv), check_table))
        return ops


# --- check --------------------------------------------------------------------


def scoring_game(rng, W):
    """A game in which W is a symmetric CE: the quadratic scoring rule on
    the conditional laws p_t = W[t]/r_t, A[t][j] = 2 p_t[j] - |p_t|^2,
    makes the gain of s -> t equal -r_s |p_t - p_s|^2.  It is scaled to
    outweigh a random integer perturbation B, whose rows are made equal
    wherever two rows of W are proportional (gain 0 either way)."""
    m = len(W)
    r = [sum(row) for row in W]
    p = [[x / r[t] for x in W[t]] for t in range(m)]
    S = [[2 * p[t][j] - sum(v * v for v in p[t]) for j in range(m)] for t in range(m)]
    B = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
    for t in range(m):
        for s in range(t):
            if p[s] == p[t]:
                B[t] = list(B[s])
    L = 1
    for s in range(m):
        for t in range(m):
            margin = r[s] * sum((a - b) ** 2 for a, b in zip(p[t], p[s]))
            if margin:
                L = max(L, int(X.ce_gain(B, W, s, t) / margin) + 1)
    return [[L * S[i][j] + B[i][j] for j in range(m)] for i in range(m)]


def check_membership(A, W, which, expect, report):
    """Re-verify a `check --json` answer and its certificate."""
    if report["answer"] != expect:
        return f"answer {report['answer']}, expected {expect}"
    cert = report["certificate"]
    kind = cert.get("kind")
    m = len(W)
    if expect == "In" and which in ("ce", "xe") and not X.is_ce(A, W):
        return "In, but W violates a CE constraint"
    if kind == "all_constraints_hold" and which == "ce":
        return None
    if kind == "ce_violation" and expect == "Out":
        s, t = cert["recommendation"], cert["deviation"]
        gain = X.frac(cert["gain"])
        return None if gain > 0 and X.ce_gain(A, W, s, t) == gain else "CE violation does not verify"
    if kind == "zero_pattern" and which == "xe":
        t, tt = cert["diagonal"], cert["off_diagonal"]
        return None if W[t][t] == 0 and W[t][tt] > 0 else "zero pattern does not verify"
    if kind == "negative_direction" and which == "xe":
        z = X.vec(cert["z"])
        value = X.quadratic_form(W, z)
        return None if value < 0 and value == X.frac(cert["value"]) else "negative direction does not verify"
    if kind == "factorization" and which == "xe":
        fact = cert["factorization"]
        xs = [X.vec(a["x"]) for _, a in fact["atoms"]]
        if not all(X.is_strategy(x) for x in xs):
            return "factorization atoms are not strategies"
        if fact["residual"] == 0:
            weights = [X.frac(w) for w, _ in fact["atoms"]]
            if any(w <= 0 for w in weights) or X.mix(weights, xs) != W:
                return "exact factorization does not reproduce W"
            return None
        # a float factorization: weights are floats, W is met within tol
        weights = [float(w) for w, _ in fact["atoms"]]
        err = max(
            abs(sum(w * float(x[i] * x[j]) for w, x in zip(weights, xs)) - float(W[i][j]))
            for i in range(m)
            for j in range(m)
        )
        if min(weights) <= 0 or err > CLI_TOL:
            return "float factorization misses W"
        return None
    if kind == "doubly_nonnegative" and which == "xe":
        return None if m <= 4 and X.is_psd(W) else "W is not doubly nonnegative"
    if kind == "convex_combination" and which == "conv_nash":
        weights = X.vec(cert["weights"])
        xs = [X.vec(x) for x in cert["strategies"]]
        if any(w < 0 for w in weights) or not all(X.is_nash_pair(A, x, x) for x in xs):
            return "combination is not over symmetric Nash strategies"
        return None if X.mix(weights, xs) == W else "combination does not reproduce W"
    if kind == "farkas" and which == "conv_nash":
        own = X.symmetric_nash(A)
        if own is None:
            return "game is not generic"
        ineqs, eqs = X.conv_nash_system(own, W)
        c = cert["certificate"]
        if X.farkas_ok(ineqs, eqs, X.vec(c["ineq_mults"]), X.vec(c["eq_mults"])):
            return None
        return "Farkas certificate does not verify"
    return f"unexpected certificate kind {kind!r} for {which}"


class Check:
    """`symmeq check --set ce|xe|conv-nash` on m = 3 inputs whose answer is
    known by construction.  Per round, seeded: three mixtures of two outer
    products with disjoint supports, each in its scoring game (In for xe,
    the last also for ce); a pure profile that is not a best response (Out
    of ce); a zero-pattern and a non-PSD distribution in their scoring
    games (Out of xe); a coordination game with a mixture of two of its
    Nash products (In for conv-nash) and a miscoordinated profile (Out of
    conv-nash).  Then the bundled separating examples in BUNDLED.

    Full-support mixtures of outer products are left out: cp_factorize
    takes a few ms on most of them and 2-8 s on some, which no run of
    fixed length can average out."""

    BUNDLED = (
        ("exeqsep.json", "exeqsep_w1.json", "xe", "Out"),        # zero pattern
        ("exeqsep.json", "exeqsep_w2.json", "xe", "In"),         # mixture of x x^T
        ("exeqsep.json", "exeqsep_w2.json", "conv_nash", "Out"),
        ("payoffsep.json", "payoffsep_w2.json", "xe", "In"),     # mixture of x x^T
    )

    def __init__(self, symmeq, seed, tmp):
        self.symmeq, self.tmp = symmeq, tmp
        self.rng = random.Random(f"check:{seed}")
        self.files = 0
        data = symmeq.cli.data_path
        self.bundled = {}
        for game, dist, _, _ in self.BUNDLED:
            with open(data(game)) as fh:
                A = X.mat(json.load(fh)["A"])
            with open(data(dist)) as fh:
                W = X.mat(json.load(fh)["P"])
            self.bundled[game, dist] = (A, W, str(data(game)), str(data(dist)))

    def _file(self, obj):
        self.files += 1
        return _write(os.path.join(self.tmp, f"check-{self.files % 64}.json"), obj)

    def _op(self, kind, A, W, which, expect, game_path=None, dist_path=None):
        game_path = game_path or self._file({"m": 3, "A": _fmt(A)})
        dist_path = dist_path or self._file({"m": 3, "P": _fmt(W)})
        code = {"In": 0, "Out": 1}[expect]
        argv = ["check", game_path, dist_path, "--set", which.replace("_", "-"), "--json"]

        def check(result):
            report, err = _report(result, code)
            return err or check_membership(A, W, which, expect, report)

        return Op(kind, CliOp(self.symmeq, argv), check)

    def _disjoint_mixture(self):
        a = self.rng.randrange(3)
        xs = [random_strategy(self.rng, [a], 3), random_strategy(self.rng, [(a + 1) % 3, (a + 2) % 3], 3)]
        return X.mix(random_strategy(self.rng, range(2), 2), xs)

    def _symmetric(self, diag, off):
        d = [self.rng.randint(*diag) for _ in range(3)]
        o = [self.rng.randint(*off) for _ in range(3)]
        P = [[d[0], o[0], o[1]], [o[0], d[1], o[2]], [o[1], o[2], d[2]]]
        t = sum(map(sum, P))
        return [[F(x, t) for x in row] for row in P]

    def _zero_pattern(self):
        P = self._symmetric((1, 6), (1, 6))
        t = self.rng.randrange(3)
        P[t][t] = F(0)
        total = sum(map(sum, P))
        return [[x / total for x in row] for row in P]

    def _not_psd(self):
        while True:
            P = self._symmetric((1, 3), (4, 9))
            if not X.is_psd(P):
                return P

    def _coordination(self):
        while True:
            A = generic_game(self.rng, 3)
            for i in range(3):
                A[i][i] += 12
            nash = X.symmetric_nash(A)
            if nash is not None and len(nash) >= 3:
                return A, nash

    def round(self):
        rng = self.rng
        ops = []
        for _ in range(3):
            W = self._disjoint_mixture()
            A = scoring_game(rng, W)
            game, dist = self._file({"m": 3, "A": _fmt(A)}), self._file({"m": 3, "P": _fmt(W)})
            ops.append(self._op("xe_in", A, W, "xe", "In", game, dist))
        ops.append(self._op("ce_in", A, W, "ce", "In", game, dist))

        A = generic_game(rng, 3)
        s, t = rng.sample(range(3), 2)
        A[t][s] = A[s][s] + rng.randint(1, 3)
        W = [[F(int(i == j == s)) for j in range(3)] for i in range(3)]
        ops.append(self._op("ce_out", A, W, "ce", "Out"))

        W = self._zero_pattern()
        ops.append(self._op("xe_out_zero", scoring_game(rng, W), W, "xe", "Out"))
        W = self._not_psd()
        ops.append(self._op("xe_out_psd", scoring_game(rng, W), W, "xe", "Out"))

        A, nash = self._coordination()
        W = X.mix(random_strategy(rng, range(2), 2), rng.sample(nash, 2))
        ops.append(self._op("conv_nash_in", A, W, "conv_nash", "In"))
        s, t = rng.sample(range(3), 2)
        W = [[F(1, 2) if {i, j} == {s, t} else F(0) for j in range(3)] for i in range(3)]
        ops.append(self._op("conv_nash_out", A, W, "conv_nash", "Out"))

        for game, dist, which, expect in self.BUNDLED:
            A, W, game_path, dist_path = self.bundled[game, dist]
            ops.append(self._op("bundled", A, W, which, expect, game_path, dist_path))
        return ops


WORKLOADS = {"analyze": Analyze, "welfare": Welfare, "extend": Extend, "check": Check}
