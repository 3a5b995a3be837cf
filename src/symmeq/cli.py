"""Command-line front end.

Subcommands: analyze (full report on a game), check (membership of a
distribution in one equilibrium set), extend (N-exchangeable extendability
of a distribution), minority (balanced-split extension parity table).

Exit codes: 0 success/In/Feasible, 1 Out/Infeasible, 2 parse error,
3 budget exceeded, 4 Inconclusive, 5 internal error (a failed exact check
or any other unexpected exception; the traceback goes to stderr).
"""

import argparse
import dataclasses
import json
import math
import sys
import traceback
from fractions import Fraction
from importlib import metadata, resources

import numpy as np

from .games import (
    DEFAULT_TOL,
    BudgetExceededError,
    DimensionError,
    JointDistribution,
    SymmetricGame,
)
from .nash import enumerate_nash, symmetric_part
from .optimize import (
    CE_SYM,
    CONV_NASH_SYM,
    IN,
    OUT,
    XE_SYM,
    DegenerateGameError,
    canonical_set_name,
    max_utility,
    membership,
)
from .orbits import (
    DEFAULT_ORBIT_BUDGET,
    extendability_lp,
    minority_parity_suite,
)
from .polytope import MAX_BOX_DIM, SymCEIndex, ce_system, enumerate_vertices

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_OUT = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


def _version():
    try:
        return metadata.version("symmeq")
    except metadata.PackageNotFoundError:
        return "unknown"


def data_path(name):
    """Filesystem path of a bundled example file (for docs and tests)."""
    return resources.files("symmeq").joinpath("data", name)


def jsonable(obj):
    """Recursively convert solver objects into JSON-encodable data.

    Exact rationals become "p/q" strings; dataclasses become dicts."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _fail_parse(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(EXIT_PARSE)


def _load_game(path):
    try:
        return SymmetricGame.from_file(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail_parse(f"cannot read game file {path}: {exc}")


def _load_dist(path):
    try:
        return JointDistribution.from_file(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail_parse(f"cannot read distribution file {path}: {exc}")


def tolerance(text):
    """argparse type of --tol: a finite positive float (argparse names the
    function in its message when float() fails)."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}"
        )
    return tol


def _base_report(args, game):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "symmeq",
        "version": _version(),
        "seed": getattr(args, "seed", 0),
        "tol": getattr(args, "tol", DEFAULT_TOL),
        "game": game.to_dict(),
    }


def _print_matrix(P):
    for row in P:
        print("  [" + ", ".join(str(x) for x in row) + "]")


def cmd_analyze(args):
    game = _load_game(args.game_file)
    report = _base_report(args, game)

    # one enumeration serves the report and conv-Nash
    nash = enumerate_nash(game)
    sym = symmetric_part(nash)
    report["nash"] = {
        "degenerate": nash.degenerate,
        "sym_degenerate": nash.sym_degenerate,
        "pairs": [
            {"x": jsonable(pt.x.x), "y": jsonable(pt.y.x)}
            for pt in nash.points
        ],
        "symmetric_strategies": [jsonable(x.x) for x in sym.points],
    }

    # vertices only within the enumeration's size limit (m <= 4)
    vertices = None
    index = SymCEIndex(game.m)
    if index.size <= MAX_BOX_DIM:
        verts = enumerate_vertices(ce_system(game, symmetric_only=True))
        vertices = [jsonable(index.vec_to_matrix(v)) for v in verts]
    report["ce_sym_vertices"] = vertices

    table = {}
    ce = max_utility(game, CE_SYM)
    table[CE_SYM] = {"value": jsonable(ce.value), "exact": True}
    xe = max_utility(game, XE_SYM, tol=args.tol)
    # a solve that stopped short of tol reports its measured gap instead
    xe_tol = None if xe.exact else max(args.tol, xe.detail.gap) + 1e-6
    table[XE_SYM] = {
        # a failed solve has no value, and NaN is not JSON
        "value": jsonable(xe.value) if xe.value == xe.value else None,
        "exact": xe.exact,
        "upper_bound_only": xe.upper_bound_only,
        "tolerance": xe_tol,
    }
    try:
        cn = max_utility(game, CONV_NASH_SYM, nash=sym)
        table[CONV_NASH_SYM] = {"value": jsonable(cn.value), "exact": True}
    except DegenerateGameError as exc:
        cn = None
        table[CONV_NASH_SYM] = {"value": None, "degenerate": str(exc)}
    report["max_utility"] = table

    ce_val = float(ce.value)
    xe_val = float(xe.value) if xe.value == xe.value else None
    report["hierarchy"] = {
        "ce_equals_xe": xe_val is not None and abs(ce_val - xe_val) <= 1e-6,
        "xe_equals_conv_nash": (
            cn is not None
            and xe_val is not None
            and abs(xe_val - float(cn.value)) <= 1e-6
        ),
    }

    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK

    print(f"game: {args.game_file} (m = {game.m})")
    print("payoff matrix A:")
    _print_matrix(game.A)
    flags = []
    if nash.degenerate:
        flags.append("degenerate")
    if nash.sym_degenerate:
        flags.append("sym-degenerate")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    print(f"symmetric Nash strategies ({len(sym.points)}):{suffix}")
    for x in sym.points:
        print("  [" + ", ".join(str(v) for v in x.x) + "]")
    if vertices is not None:
        print(f"ce_sym vertices ({len(vertices)}):")
        for P in vertices:
            _print_matrix(P)
            print()
    print("max expected utility:")
    print(f"  ce_sym:        {table[CE_SYM]['value']} (exact)")
    xe_note = "exact" if xe.exact else f"tolerance {xe_tol:g}"
    if xe.upper_bound_only:
        xe_note += ", DNN upper bound only"
    print(f"  xe_sym:        {table[XE_SYM]['value']} ({xe_note})")
    cn_note = table[CONV_NASH_SYM].get("degenerate")
    if cn_note:
        print(f"  conv_nash_sym: unavailable ({cn_note})")
    else:
        print(f"  conv_nash_sym: {table[CONV_NASH_SYM]['value']} (exact)")
    return EXIT_OK


def cmd_check(args):
    game = _load_game(args.game_file)
    dist = _load_dist(args.dist_file)
    try:
        which = canonical_set_name(args.set.replace("-", "_"))
    except ValueError as exc:
        _fail_parse(str(exc))
    try:
        verdict = membership(game, dist, which)
    except BudgetExceededError:
        raise
    except (DimensionError, ValueError) as exc:
        _fail_parse(str(exc))
    report = _base_report(args, game)
    report["distribution"] = dist.to_dict()
    report["set"] = which
    report["answer"] = verdict.answer
    report["certificate"] = jsonable(verdict.certificate)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{which}: {verdict.answer}")
        if verdict.answer != IN:
            print(f"certificate: {json.dumps(jsonable(verdict.certificate))}")
    if verdict.answer == IN:
        return EXIT_OK
    if verdict.answer == OUT:
        return EXIT_OUT
    return EXIT_INCONCLUSIVE


def cmd_extend(args):
    game = _load_game(args.game_file)
    dist = _load_dist(args.dist_file)
    try:
        result = extendability_lp(game, dist, args.n, budget=args.budget)
    except BudgetExceededError:
        raise
    except (DimensionError, ValueError) as exc:
        _fail_parse(str(exc))
    report = _base_report(args, game)
    report["distribution"] = dist.to_dict()
    report["n"] = args.n
    report["feasible"] = result.feasible
    if result.feasible:
        report["orbit"] = result.orbit.to_dict()
        out = args.out or f"{args.dist_file}.orbit-n{args.n}.json"
        result.orbit.to_file(out)
        report["orbit_file"] = out
    else:
        report["certificate"] = jsonable(result.certificate)
    if args.json:
        print(json.dumps(report, indent=2))
    elif result.feasible:
        print(f"Feasible: extends to an {args.n}-exchangeable distribution")
        print(f"orbit weights written to {report['orbit_file']}")
    else:
        print(f"Infeasible: no {args.n}-exchangeable extension exists")
        print(f"certificate: {json.dumps(jsonable(result.certificate))}")
    return EXIT_OK if result.feasible else EXIT_OUT


def cmd_minority(args):
    if args.n_max < 2:
        _fail_parse("--n-max must be at least 2")
    if args.n_max + 2 > args.budget:
        print(
            f"error: n_max {args.n_max} exceeds the orbit budget",
            file=sys.stderr,
        )
        sys.exit(EXIT_BUDGET)
    entries = minority_parity_suite(args.n_max, budget=args.budget)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool": "symmeq",
            "version": _version(),
            "n_max": args.n_max,
            "rows": [
                {
                    "N": e.N,
                    "feasible": e.feasible,
                    "unique": e.unique,
                    "extension": jsonable(
                        e.extension.to_dict() if e.extension else None
                    ),
                }
                for e in entries
            ],
        }
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print("N   extension to N+1")
    for e in entries:
        if e.feasible:
            word = "Feasible" + (", unique" if e.unique else "")
        else:
            word = "Infeasible"
        print(f"{e.N:<3} {word}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symmeq",
        description="Equilibrium hierarchy analysis for symmetric "
        "bimatrix games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("analyze", help="full report on a game file")
    p.add_argument("game_file")
    common(p)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="membership of a distribution")
    p.add_argument("game_file")
    p.add_argument("dist_file")
    p.add_argument(
        "--set",
        required=True,
        help="equilibrium set: ce, xe, or conv-nash",
    )
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extend", help="N-exchangeable extendability")
    p.add_argument("game_file")
    p.add_argument("dist_file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="orbit output file (when feasible)")
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("minority", help="balanced-split parity table")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)
    common(p)
    p.set_defaults(func=cmd_minority)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
