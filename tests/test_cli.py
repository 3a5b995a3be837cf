"""Command-line interface: subcommands, exit codes, JSON reports."""

import dataclasses
import json
import sys
from fractions import Fraction

import pytest

from symmeq import ExactCheckError, JointDistribution, OrbitDistribution
from symmeq import exchange, nash, optimize
from symmeq.cli import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_OUT,
    EXIT_PARSE,
    SCHEMA_VERSION,
    data_path,
    jsonable,
    main,
)

F = Fraction


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # parse/budget failures exit directly
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def write_game(tmp_path, A, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"m": len(A), "A": A}))
    return str(path)


def write_dist(tmp_path, P, name="w.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"m": len(P), "P": P}))
    return str(path)


def test_bundled_data_files_load():
    for name in (
        "chicken.json",
        "coord.json",
        "anticoord.json",
        "minority.json",
        "exeqsep.json",
        "payoffsep.json",
    ):
        assert data_path(name).is_file()
    for name in (
        "exeqsep_w1.json",
        "exeqsep_w2.json",
        "payoffsep_w1.json",
        "payoffsep_w2.json",
    ):
        JointDistribution.from_file(data_path(name))


def test_jsonable_round_trips_fractions():
    obj = jsonable({"a": F(1, 3), "b": [F(2), None], "c": (1, "x")})
    assert json.loads(json.dumps(obj)) == {
        "a": "1/3",
        "b": ["2", None],
        "c": [1, "x"],
    }


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", str(data_path("chicken.json")))
    assert code == EXIT_OK
    assert "symmetric Nash strategies (1):" in out
    assert "[1/2, 1/2]" in out
    assert "ce_sym vertices (4):" in out
    assert "ce_sym:        10/3 (exact)" in out
    assert "conv_nash_sym: 5/2 (exact)" in out


def test_analyze_json(capsys):
    code, out, err = run(
        capsys, "analyze", str(data_path("payoffsep.json")), "--json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["game"]["m"] == 3
    assert report["max_utility"]["ce_sym"]["value"] == "3/2"
    assert report["max_utility"]["conv_nash_sym"]["value"] == "1"
    xe = report["max_utility"]["xe_sym"]
    if xe["exact"]:
        num, _, den = xe["value"].partition("/")
        v = F(int(num), int(den or 1))
        assert F(17, 16) <= v <= F(3, 2)
    assert ["0", "1", "0"] in report["nash"]["symmetric_strategies"]
    assert len(report["ce_sym_vertices"]) >= 3


def count_calls(monkeypatch, original):
    """Rebind every symmeq name for `original` to a wrapper that records
    its calls; returns the list of recorded argument tuples."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "symmeq" or name.startswith("symmeq."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_analyze_enumerates_nash_once(capsys, monkeypatch):
    # the report, the XE start and conv-Nash share one enumeration
    calls = count_calls(monkeypatch, nash.enumerate_nash)
    code, _, _ = run(capsys, "analyze", str(data_path("payoffsep.json")))
    assert code == EXIT_OK
    assert len(calls) == 1


def test_check_xe_decides_psd_once(capsys, monkeypatch):
    # the DNN refutation runs the exact PSD decision; the factorization
    # that follows needs none
    calls = count_calls(monkeypatch, exchange.is_psd_exact)
    game, dist = data_path("exeqsep.json"), data_path("exeqsep_w2.json")
    code, _, _ = run(capsys, "check", str(game), str(dist), "--set", "xe")
    assert code == EXIT_OK
    assert len(calls) == 1


def test_internal_error_exits_internal(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ExactCheckError("planted certificate failure")

    monkeypatch.setattr(optimize, "lp_solve", failing)
    code, out, err = run(capsys, "analyze", str(data_path("chicken.json")))
    assert code == EXIT_INTERNAL
    assert "error: internal: ExactCheckError: planted certificate failure" in err
    assert "Traceback" in err


def test_check_exit_codes(capsys):
    game = str(data_path("exeqsep.json"))
    w1 = str(data_path("exeqsep_w1.json"))
    w2 = str(data_path("exeqsep_w2.json"))
    assert run(capsys, "check", game, w1, "--set", "ce")[0] == EXIT_OK
    code, out, _ = run(capsys, "check", game, w1, "--set", "xe")
    assert code == EXIT_OUT
    assert "zero_pattern" in out
    assert run(capsys, "check", game, w2, "--set", "xe")[0] == EXIT_OK
    code, _, _ = run(capsys, "check", game, w2, "--set", "conv-nash")
    assert code == EXIT_OUT


def test_check_json_certificate(capsys):
    game = str(data_path("exeqsep.json"))
    w1 = str(data_path("exeqsep_w1.json"))
    code, out, _ = run(
        capsys, "check", game, w1, "--set", "xe", "--json"
    )
    assert code == EXIT_OUT
    report = json.loads(out)
    assert report["set"] == "xe_sym"
    assert report["answer"] == "Out"
    assert report["certificate"]["kind"] == "zero_pattern"


def test_check_inconclusive_exit(capsys, tmp_path):
    game = write_game(tmp_path, [[0, 0], [0, 0]])
    dist = write_dist(
        tmp_path, [["1/4", "1/4"], ["1/4", "1/4"]]
    )
    code, out, _ = run(capsys, "check", game, dist, "--set", "conv-nash")
    assert code == EXIT_INCONCLUSIVE


def test_check_bad_set_name(capsys):
    game = str(data_path("chicken.json"))
    w = str(data_path("exeqsep_w1.json"))
    code, _, err = run(capsys, "check", game, w, "--set", "bogus")
    assert code == EXIT_PARSE
    assert "unknown equilibrium set" in err


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_PARSE
    assert "cannot read game file" in err


def test_extend_feasible_writes_orbit(capsys, tmp_path):
    game = str(data_path("minority.json"))
    dist = write_dist(tmp_path, [["0", "1/2"], ["1/2", "0"]])
    out_file = str(tmp_path / "orbit.json")
    code, out, _ = run(
        capsys, "extend", game, dist, "--n", "2", "--out", out_file
    )
    assert code == EXIT_OK
    assert "Feasible" in out
    orbit = OrbitDistribution.from_file(out_file)
    assert orbit.N == 2
    assert orbit.weight((1, 1)) == 1


def test_extend_infeasible(capsys, tmp_path):
    game = str(data_path("minority.json"))
    dist = write_dist(tmp_path, [["0", "1/2"], ["1/2", "0"]])
    code, out, _ = run(capsys, "extend", game, dist, "--n", "3")
    assert code == EXIT_OUT
    assert "Infeasible" in out


def test_extend_default_output_name(capsys, tmp_path):
    game = str(data_path("minority.json"))
    dist = write_dist(tmp_path, [["1/4", "1/4"], ["1/4", "1/4"]])
    code, out, _ = run(capsys, "extend", game, dist, "--n", "4", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["feasible"] is True
    assert report["orbit_file"] == dist + ".orbit-n4.json"
    assert OrbitDistribution.from_file(report["orbit_file"]).N == 4


def test_extend_budget_exit(capsys, tmp_path):
    game = str(data_path("minority.json"))
    dist = write_dist(tmp_path, [["1/4", "1/4"], ["1/4", "1/4"]])
    code, _, err = run(
        capsys, "extend", game, dist, "--n", "50", "--budget", "10"
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_minority_table(capsys):
    code, out, _ = run(capsys, "minority", "--n-max", "6")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 5
    for line in lines:
        n = int(line.split()[0])
        if n % 2 == 0:
            assert "Infeasible" in line
        else:
            assert "Feasible, unique" in line


def test_minority_json(capsys):
    code, out, _ = run(capsys, "minority", "--n-max", "10", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert [r["N"] for r in report["rows"]] == list(range(2, 11))
    for r in report["rows"]:
        assert r["feasible"] == (r["N"] % 2 == 1)
        if r["feasible"]:
            assert r["unique"] is True
            assert r["extension"]["N"] == r["N"] + 1


def test_minority_budget_guard(capsys):
    code, _, err = run(capsys, "minority", "--n-max", "100", "--budget", "5")
    assert code == EXIT_BUDGET


def test_analyze_reports_no_vertices_beyond_enumeration_limit(capsys, tmp_path):
    # at m = 5 the symmetric-CE system has 15 variables, past MAX_BOX_DIM
    game = write_game(tmp_path, [[(i * j) % 5 - 2 for j in range(5)] for i in range(5)])
    code, out, _ = run(capsys, "analyze", game, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["ce_sym_vertices"] is None


def test_analyze_has_no_force_flag(capsys):
    code, out, err = run(capsys, "analyze", str(data_path("chicken.json")), "--force")
    assert code == EXIT_PARSE
    assert out == ""
    assert "unrecognized arguments: --force" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "chicken.json", "--seed", "3"],
        ["extend", "exeqsep.json", "exeqsep_w1.json", "--n", "4", "--seed", "9"],
        ["extend", "exeqsep.json", "exeqsep_w1.json", "--n", "4", "--tol", "5"],
        ["minority", "--n-max", "3", "--seed", "3"],
        ["minority", "--n-max", "3", "--tol", "7"],
        ["check", "chicken.json", "exeqsep_w1.json", "--set", "xe", "--seed", "3"],
        ["check", "exeqsep.json", "exeqsep_w2.json", "--set", "xe", "--tol", "1e-6"],
    ],
)
def test_flags_no_subcommand_reads_are_gone(capsys, argv):
    argv = [str(data_path(a)) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_analyze_json_has_no_nan_when_the_xe_solve_fails(capsys, monkeypatch):
    solve = optimize.sdp_solve
    monkeypatch.setattr(
        optimize,
        "sdp_solve",
        lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), status="numerical_failure"
        ),
    )
    chicken = str(data_path("chicken.json"))
    code, out, _ = run(capsys, "analyze", chicken, "--json")
    assert code == EXIT_OK

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(out, parse_constant=refuse)
    assert report["max_utility"]["xe_sym"]["value"] is None
    assert report["max_utility"]["xe_sym"]["exact"] is False
    assert report["hierarchy"] == {
        "ce_equals_xe": False,
        "xe_equals_conv_nash": False,
    }


def test_xe_tolerance_covers_the_measured_gap(capsys, monkeypatch, tmp_path):
    # a solve may stop optimal with a gap above --tol (e.g. at the step cap)
    solve = optimize.sdp_solve
    monkeypatch.setattr(
        optimize,
        "sdp_solve",
        lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), status="optimal", gap=5e-5
        ),
    )
    # a game whose XE optimum does not rationalize
    game = write_game(tmp_path, [[-5, 5, 2], [5, 4, 3], [3, 5, -3]])
    code, out, _ = run(capsys, "analyze", game, "--json")
    assert code == EXIT_OK
    xe = json.loads(out)["max_utility"]["xe_sym"]
    assert xe["exact"] is False
    assert xe["tolerance"] >= 5e-5
    code, out, _ = run(capsys, "analyze", game)
    note = out.split("xe_sym:")[1].splitlines()[0]
    assert float(note.split("tolerance ")[1].split(")")[0]) >= 5e-5


def test_analyze_strategy_guard_exits_budget(capsys, tmp_path):
    game = write_game(tmp_path, [[(i * j) % 5 - 2 for j in range(7)] for i in range(7)])
    code, out, err = run(capsys, "analyze", game)
    assert code == EXIT_BUDGET
    assert "guarded at m <= 6" in err
    assert "Traceback" not in err


def test_check_xe_psd_guard_exits_budget(capsys, tmp_path):
    game = write_game(tmp_path, [[int(i == j) for j in range(9)] for i in range(9)])
    dist = write_dist(
        tmp_path, [["1/9" if i == j else 0 for j in range(9)] for i in range(9)]
    )
    code, _, err = run(capsys, "check", game, dist, "--set", "xe")
    assert code == EXIT_BUDGET
    assert "guarded at m <= 8" in err


def test_check_conv_nash_strategy_guard_exits_budget(capsys, tmp_path):
    game = write_game(tmp_path, [[int(i == j) for j in range(7)] for i in range(7)])
    dist = write_dist(
        tmp_path, [["1/7" if i == j else 0 for j in range(7)] for i in range(7)]
    )
    code, _, err = run(capsys, "check", game, dist, "--set", "conv-nash")
    assert code == EXIT_BUDGET
    assert "guarded at m <= 6" in err


@pytest.mark.parametrize(
    "game, dist",
    [
        ({"m": 2, "A": None}, None),
        ({"m": 2, "A": [1, 2]}, None),
        ([1, 2], None),
        ({"m": None, "A": [[1, 2], [3, 4]]}, None),
        ({"m": 2, "A": [[1, 2], [3, 4]], "labels": 5}, None),
        ({"m": 2, "A": [[1, 2], [3, 4]]}, {"m": 2, "P": None}),
        ({"m": 2.9, "A": [[1, 2], [3, 4]]}, None),
        ({"m": 2.0, "A": [[1, 2], [3, 4]]}, None),
        ({"m": 2, "A": [[True, 2], [3, 4]]}, None),
        ({"m": 2, "A": [[1, 2], [3, 4]]}, {"m": 2.5, "P": [[1, 0], [0, 0]]}),
        ({"m": 2, "A": [[1, 2], [3, 4]]}, {"m": 2, "P": [[True, 0], [0, 0]]}),
        ({"m": 2, "A": [[1, 2], [3, 4]], "labels": "ab"}, None),
        ({"m": 2, "A": [[1, 2], [3, 4]], "labels": {"x": 1, "y": 2}}, None),
        ({"m": 2, "A": [[1, 2], [3, 4]], "labels": [1, 2]}, None),
    ],
)
def test_wrong_json_types_are_parse_errors(capsys, tmp_path, game, dist):
    game_file = tmp_path / "g.json"
    game_file.write_text(json.dumps(game))
    argv = ["analyze", str(game_file)]
    if dist is not None:
        dist_file = tmp_path / "w.json"
        dist_file.write_text(json.dumps(dist))
        argv = ["check", str(game_file), str(dist_file), "--set", "ce"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert "cannot read" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
@pytest.mark.parametrize("command", ["analyze", "check"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    # check takes no --tol at all, so every value is refused there
    argv = [command, str(data_path("chicken.json"))]
    if command == "check":
        argv += [str(data_path("exeqsep_w1.json")), "--set", "ce"]
    code, out, err = run(capsys, *argv, "--tol", tol, "--json")
    assert code == EXIT_PARSE
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["check", "chicken.json", "exeqsep_w1.json", "--set", "ce"],
            "dimensions differ",
        ),
        (
            ["extend", "chicken.json", "exeqsep_w1.json", "--n", "3"],
            "dimensions differ",
        ),
        (
            ["extend", "minority.json", "asymmetric", "--n", "3"],
            "needs a symmetric distribution",
        ),
        (["minority", "--n-max", "1"], "--n-max must be at least 2"),
    ],
)
def test_inconsistent_inputs_are_parse_errors(capsys, tmp_path, argv, message):
    files = {"asymmetric": write_dist(tmp_path, [["1/2", "1/4"], [0, "1/4"]])}
    argv = [
        str(data_path(a)) if a.endswith(".json") else files.get(a, a)
        for a in argv
    ]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("n", ["1", "0"])
def test_extend_needs_two_players(capsys, tmp_path, n):
    game = str(data_path("minority.json"))
    dist = write_dist(tmp_path, [["1/4", "1/4"], ["1/4", "1/4"]])
    code, _, err = run(capsys, "extend", game, dist, "--n", n)
    assert code == EXIT_PARSE
    assert "need N >= 2" in err
    assert "Traceback" not in err
