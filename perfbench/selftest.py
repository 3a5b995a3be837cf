"""Self-tests for the benchmark's answer checks and tracer.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each check is first shown to
accept symmeq's real output and then to reject a tampered copy: a
perturbed optimum, a wrong vertex, a Farkas vector with one sign flipped,
a factorization atom nudged off its value, a flipped parity.  Exits 1 on
the first failure.
"""

import copy
import dataclasses
import json
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import symmeq  # noqa: E402
import symmeq.cli  # noqa: E402

import exact as X  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def accepts(reason, what):
    expect(reason is None, f"{what} (got {reason!r})")


def rejects(reason, what):
    expect(reason is not None, what)


def cli(*argv):
    return W.CliOp(symmeq, list(argv))()


def test_analyze(tmp):
    A = [[2, 2, 0], [2, 1, 2], [0, 2, 2]]
    path = W._write(f"{tmp}/g.json", {"m": 3, "A": A})
    code, out = cli("analyze", path, "--json")
    report = json.loads(out)
    A = X.mat(A)
    accepts(W.check_analyze(A, report, [])[0], "analyze report on exeqsep verifies")

    bad = copy.deepcopy(report)
    bad["max_utility"]["ce_sym"]["value"] = str(X.frac(bad["max_utility"]["ce_sym"]["value"]) + F(1, 1000))
    rejects(W.check_analyze(A, bad, [])[0], "perturbed CE optimum is rejected")

    deferred = []
    W.check_analyze(A, report, deferred)
    accepts((W.verify_deferred(deferred) or [None])[0], "CE optimum agrees with HiGHS")
    (_, ce), = deferred
    rejects((W.verify_deferred([(A, ce + F(1, 10**6))]) or [None])[0],
            "CE optimum off HiGHS by 1e-6 is rejected")

    bad = copy.deepcopy(report)
    V0, V1 = (X.mat(V) for V in bad["ce_sym_vertices"][:2])
    bad["ce_sym_vertices"][0] = [[str((a + b) / 2) for a, b in zip(r0, r1)] for r0, r1 in zip(V0, V1)]
    rejects(W.check_analyze(A, bad, [])[0], "midpoint of two vertices is rejected as a vertex")

    bad = copy.deepcopy(report)
    x = X.vec(bad["nash"]["symmetric_strategies"][-1])
    x[0], x[1] = x[0] + F(1, 10), x[1] - F(1, 10)
    bad["nash"]["symmetric_strategies"][-1] = [str(v) for v in x]
    rejects(W.check_analyze(A, bad, [])[0], "perturbed symmetric Nash strategy is rejected")

    for value in (None, float("nan")):
        bad = copy.deepcopy(report)
        bad["max_utility"]["xe_sym"].update(value=value, exact=False, tolerance=1e-8)
        rejects(W.check_analyze(A, bad, [])[0], f"XE value {value} is rejected")

    code, out = cli("analyze", W._write(f"{tmp}/n.json", {"m": 3, "A": W.Analyze.NAMED}), "--json")
    reason, xe_low = W.check_analyze(X.mat(W.Analyze.NAMED), json.loads(out), [])
    expect(reason is not None and xe_low, "the named XE-fault game fails the nesting check")

    workload = W.Analyze(symmeq, 1, tmp)
    named = workload.round()[0]
    expect(isinstance(named.check(named.run()), W.KnownFault), "the named game's failure is its known fault")
    reason = workload.op("m3", [[2, 2, 0], [2, 1, 2], [0, 2, 2]]).check((0, json.dumps(bad)))
    rejects(reason, "a NaN XE value fails a pool game")
    expect(not isinstance(reason, W.KnownFault), "a pool game's failure is not a known fault")


def test_welfare():
    chicken = symmeq.SymmetricGame.from_file(symmeq.cli.data_path("chicken.json"))
    A = [list(r) for r in chicken.A]
    opt = symmeq.optimize
    ce, xe, cn = (opt.max_utility(chicken, s) for s in (opt.CE_SYM, opt.XE_SYM, opt.CONV_NASH_SYM))
    accepts(W.check_welfare(A, ce, xe, cn, [], chicken=True), "Chicken's three optima verify")
    bad = dataclasses.replace(ce, value=ce.value + F(1, 10**6))
    rejects(W.check_welfare(A, bad, xe, cn, [], chicken=True), "perturbed CE optimum is rejected")
    expect(xe.exact, "Chicken's XE optimum is exact")
    P = [list(r) for r in xe.argmax.P]
    P[0][0] += F(1, 100)
    P[1][1] -= F(1, 100)
    moved = dataclasses.replace(xe, argmax=symmeq.JointDistribution(m=2, P=P))
    rejects(W.check_welfare(A, ce, moved, cn, [], chicken=True), "moved XE argmax is rejected")
    rejects(W.check_welfare(A, ce, dataclasses.replace(xe, value=11.0, exact=False), cn, []),
            "XE value above CE is rejected")
    rejects(W.check_welfare(A, ce, dataclasses.replace(xe, value=float("nan"), exact=False), cn, []),
            "XE value NaN is rejected")


def test_extend(tmp):
    data = symmeq.cli.data_path
    game = str(data("exeqsep.json"))
    out = f"{tmp}/orbit.json"
    W2 = X.mat(json.load(open(data("exeqsep_w2.json")))["P"])
    code, text = cli("extend", game, str(data("exeqsep_w2.json")), "--n", "5", "--json", "--out", out)
    report = json.loads(text)
    accepts(W.check_orbit_report(W2, 5, report, out), "feasible orbit weights reproduce W")
    bad = copy.deepcopy(report)
    ws = bad["orbit"]["weights"]
    ws[0]["w"] = str(X.frac(ws[0]["w"]) - F(1, 1000))
    ws[1]["w"] = str(X.frac(ws[1]["w"]) + F(1, 1000))
    rejects(W.check_orbit_report(W2, 5, bad, out), "orbit weight moved to another orbit is rejected")

    W1 = X.mat(json.load(open(data("exeqsep_w1.json")))["P"])
    code, text = cli("extend", game, str(data("exeqsep_w1.json")), "--n", "4", "--json", "--out", out)
    expect(code == 1, "exeqsep_w1 does not extend to N = 4")
    report = json.loads(text)
    accepts(W.check_farkas_report(W1, 4, report), "Farkas certificate verifies")
    bad = copy.deepcopy(report)
    eq = bad["certificate"]["eq_mults"]
    k = next(i for i, y in enumerate(eq) if X.frac(y) != 0)
    eq[k] = str(-X.frac(eq[k]))
    rejects(W.check_farkas_report(W1, 4, bad), "Farkas vector with one sign flipped is rejected")

    code, text = cli("minority", "--n-max", "5", "--json")
    report = json.loads(text)
    accepts(W.check_minority(5, report), "minority parity table verifies")
    bad = copy.deepcopy(report)
    bad["rows"][1]["feasible"] = not bad["rows"][1]["feasible"]
    rejects(W.check_minority(5, bad), "flipped parity is rejected")
    bad = copy.deepcopy(report)
    bad["rows"][1]["unique"] = False
    rejects(W.check_minority(5, bad), "non-unique extension is rejected")


def test_check(tmp):
    data = symmeq.cli.data_path
    A = X.mat(json.load(open(data("exeqsep.json")))["A"])
    W2 = X.mat(json.load(open(data("exeqsep_w2.json")))["P"])
    W1 = X.mat(json.load(open(data("exeqsep_w1.json")))["P"])
    game, w1, w2 = (str(data(n)) for n in ("exeqsep.json", "exeqsep_w1.json", "exeqsep_w2.json"))

    report = json.loads(cli("check", game, w2, "--set", "xe", "--json")[1])
    accepts(W.check_membership(A, W2, "xe", "In", report), "exact factorization verifies")
    bad = copy.deepcopy(report)
    atom = bad["certificate"]["factorization"]["atoms"][0][1]["x"]
    i = next(j for j, v in enumerate(atom) if X.frac(v) > 0)
    atom[i] = str(X.frac(atom[i]) - F(1, 1000))
    atom[(i + 1) % 3] = str(X.frac(atom[(i + 1) % 3]) + F(1, 1000))
    rejects(W.check_membership(A, W2, "xe", "In", bad), "nudged factorization atom is rejected")
    rejects(W.check_membership(A, W2, "xe", "Out", report), "In reported where Out is expected is rejected")

    report = json.loads(cli("check", game, w2, "--set", "conv-nash", "--json")[1])
    accepts(W.check_membership(A, W2, "conv_nash", "Out", report), "conv-Nash Farkas certificate verifies")
    bad = copy.deepcopy(report)
    eq = bad["certificate"]["certificate"]["eq_mults"]
    k = next(i for i, y in enumerate(eq) if X.frac(y) != 0)
    eq[k] = str(-X.frac(eq[k]))
    rejects(W.check_membership(A, W2, "conv_nash", "Out", bad), "conv-Nash Farkas sign flip is rejected")

    report = json.loads(cli("check", game, w1, "--set", "xe", "--json")[1])
    accepts(W.check_membership(A, W1, "xe", "Out", report), "zero-pattern certificate verifies")
    bad = copy.deepcopy(report)
    bad["certificate"]["diagonal"] = 1
    rejects(W.check_membership(A, W1, "xe", "Out", bad), "wrong zero-pattern index is rejected")

    rng = __import__("random").Random(7)
    P = [[F(1, 15), F(4, 15), F(0)], [F(4, 15), F(1, 15), F(1, 15)], [F(0), F(1, 15), F(3, 15)]]
    P[0][2] = P[2][0] = F(0)
    total = sum(map(sum, P))
    P = [[x / total for x in r] for r in P]
    G = W.scoring_game(rng, P)
    expect(X.is_ce(G, P) and not X.is_psd(P), "scoring game makes a non-PSD P a CE")
    gp = W._write(f"{tmp}/sg.json", {"m": 3, "A": W._fmt(G)})
    pp = W._write(f"{tmp}/sp.json", {"m": 3, "P": W._fmt(P)})
    report = json.loads(cli("check", gp, pp, "--set", "xe", "--json")[1])
    accepts(W.check_membership(G, P, "xe", "Out", report), "negative direction verifies")
    bad = copy.deepcopy(report)
    z = bad["certificate"]["z"]
    bad["certificate"]["z"] = [str(-X.frac(z[0]))] + z[1:]
    rejects(W.check_membership(G, P, "xe", "Out", bad), "negative direction with a sign flipped is rejected")


def test_exact():
    expect(X.is_psd([[F(1), F(1)], [F(1), F(1)]]), "rank-one PSD matrix passes")
    expect(not X.is_psd([[F(0), F(1)], [F(1), F(1)]]), "zero pivot over a nonzero row fails")
    expect(not X.is_psd([[F(1), F(2)], [F(2), F(1)]]), "indefinite matrix fails")
    chicken = [[F(4), F(1)], [F(5), F(0)]]
    expect(X.symmetric_nash(chicken) == [[F(1, 2), F(1, 2)]], "Chicken's symmetric Nash is (1/2, 1/2)")
    expect(len(X.ce_vertices(chicken)) == 4, "Chicken's symmetric CE polytope has 4 vertices")
    expect(X.drop_one(2, 4, X.minority_pi(4)) == X.minority_pi(3), "pi^4 drops to pi^3")


def test_tracer():
    tracer = Tracer()
    orig = symmeq.simplex.lp_solve
    tracer.install()
    try:
        expect(symmeq.optimize.lp_solve is not orig, "lp_solve is wrapped where optimize imported it")
        chicken = symmeq.SymmetricGame.from_file(symmeq.cli.data_path("chicken.json"))
        tracer.run_op(0, lambda: symmeq.optimize.max_utility(chicken, "ce_sym"))
    finally:
        tracer.uninstall()
    expect(symmeq.optimize.lp_solve is orig, "uninstall restores the original")
    summary = tracer.summary()
    total = sum(row["self_s"] for row in summary.values())
    expect(abs(total - summary["bench.op"]["total_s"]) < 1e-9, "self times add up to the op time")
    expect(summary["simplex.lp_solve"]["calls"] == 1 and summary["simplex.lp_solve"]["cells"] > 0,
           "lp_solve call and cells are counted")


def main():
    with tempfile.TemporaryDirectory(prefix="tmp-selftest-", dir=HERE / "out") as tmp:
        test_exact()
        test_analyze(tmp)
        test_welfare()
        test_extend(tmp)
        test_check(tmp)
        test_tracer()
    print("selftest passed")


if __name__ == "__main__":
    main()
