import math

import pytest

from spp_dcj import milp_cli
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import BINARY, INTEGER, build_model, write_lp
from spp_dcj.io import ParseError
from spp_dcj.solver import SolverError, parse_solution, solve_internal

from util import build_genome, random_degenerate_pair, seeded

MIXTURES = [(1.0, 0.0), (0.5, 0.0), (0.5, 0.25)]

SMALL_LP = """Maximize
 obj: 3 x + 2 y - 1 z
Subject To
 c1: 1 x + 1 y <= 1
 c2: 1 y + 1 z >= 1
Bounds
 0 <= z <= 2
Binaries
 x
 y
Generals
 z
End
"""


def test_parse_lp(tmp_path):
    path = tmp_path / "m.lp"
    path.write_text(SMALL_LP)
    problem = milp_cli.parse_lp(path)
    assert problem.variables == ["x", "y", "z"]
    assert problem.objective == {0: 3.0, 1: 2.0, 2: -1.0}
    # c1: x + y <= 1, c2: y + z >= 1, as (row, column, value) entries
    assert problem.rows == [0, 0, 1, 1]
    assert problem.cols == [0, 1, 1, 2]
    assert problem.values == [1.0, 1.0, 1.0, 1.0]
    assert problem.row_lower == [-math.inf, 1.0]
    assert problem.row_upper == [1.0, math.inf]
    assert problem.integer == {0, 1, 2}
    assert problem.upper[0] == 1.0 and problem.upper[2] == 2.0


BAD_LP = {  # text -> number of the first malformed line
    "Maximize\n obj: 3 x\nSubject To\n c: 3 x 1\nEnd\n": 4,  # no sense
    "Maximize\n obj: x\nEnd\n": 2,  # bare variable
    "Subject To\n 1 x <= 1\nEnd\n": 2,  # unnamed row
    "Subject To\n c: 1 x <= one\nEnd\n": 2,  # bad number
    "stray line\n": 1,  # outside sections
    # dialects parse_lp does not read: write_lp writes none of these lines
    "Minimize\n obj: 1 x\nEnd\n": 1,
    "Maximize\n obj: 1 x\nsubject to\n c: 1 x <= 1\nEnd\n": 3,
    "Maximize\n obj: 1 x\nSubject To\n\\ note\n c: 1 x <= 1\nEnd\n": 4,
    "Maximize\n obj: 1 x\nBounds\n x <= 2\nEnd\n": 4,  # three tokens
    "Maximize\n 1 x\nEnd\n": 2,  # unlabelled objective
    "Maximize\n obj: 1 x\n 1 y\nEnd\n": 3,  # second objective line
    "Maximize\n obj: 1 x\nbinary\n x\nEnd\n": 3,  # alias
    "Maximize\n obj: 1 x\nBinaries\n x y\nEnd\n": 4,  # two names
}


@pytest.mark.parametrize("text", list(BAD_LP))
def test_parse_lp_errors(tmp_path, text):
    path = tmp_path / "m.lp"
    path.write_text(text)
    with pytest.raises(milp_cli.LpFormatError) as err:
        milp_cli.parse_lp(path)
    assert isinstance(err.value, ParseError)
    assert (err.value.path, err.value.lineno) == (path, BAD_LP[text])


def test_solve_small(tmp_path):
    lp = tmp_path / "m.lp"
    sol = tmp_path / "m.sol"
    lp.write_text(SMALL_LP)
    assert milp_cli.main([str(lp), str(sol)]) == 0
    reported, values = parse_solution(sol)
    # optimum: x=1, y=0, z=1 -> 3 - 1 = 2
    assert reported == pytest.approx(2.0)
    assert values["x"] == 1.0 and values["y"] == 0.0 and values["z"] == 1.0


def test_main_exit_codes(tmp_path):
    missing = tmp_path / "nope.lp"
    assert milp_cli.main([str(missing), str(tmp_path / "o.sol")]) == 2
    bad = tmp_path / "bad.lp"
    bad.write_text("Maximize\n obj: x\nEnd\n")
    assert milp_cli.main([str(bad), str(tmp_path / "o.sol")]) == 2
    infeasible = tmp_path / "inf.lp"
    infeasible.write_text("Maximize\n obj: 1 x\nSubject To\n"
                          " c1: 1 x >= 2\nBinaries\n x\nEnd\n")
    assert milp_cli.main([str(infeasible), str(tmp_path / "o.sol")]) == 1
    with pytest.raises(SolverError):
        milp_cli.solve_file(infeasible, tmp_path / "o.sol")
    assert not (tmp_path / "o.sol").exists()


def test_time_limit_zero_is_none_and_negative_is_bad_input(tmp_path):
    # a command template's {time_limit} reads 0 when no limit is set
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    lp.write_text(SMALL_LP)
    assert milp_cli.main([str(lp), str(sol), "--time-limit", "0"]) == 0
    sol.unlink()
    assert milp_cli.main([str(lp), str(sol), "--time-limit", "-1"]) == 2
    assert not sol.exists()
    with pytest.raises(ValueError, match="time limit"):
        milp_cli.solve(milp_cli.parse_lp(lp), time_limit=math.nan)


def _round_trip_models():
    """Seeded pair models over the three mixtures, with and without
    telomeres, plus one whose objective is empty."""
    rng = seeded(83)
    for i in range(12):
        for alpha, beta in MIXTURES:
            a, b = random_degenerate_pair(rng, extra_linear=i % 2 == 1)
            yield build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                              FamilyAssignment(), alpha=alpha, beta=beta)
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "-2.1"], True)])
    yield build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                      FamilyAssignment(), alpha=0.0, beta=1.0)


def test_round_trip_with_model(tmp_path):
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    counters = []
    for model in _round_trip_models():
        write_lp(model, lp)
        assert_same_problem(model, milp_cli.parse_lp(lp))
        counters.append(sum(len(ctx.a_vars) for ctx in model.contexts))
        assert milp_cli.main([str(lp), str(sol)]) == 0
        reported, _ = parse_solution(sol)
        internal = solve_internal(model)
        assert reported == pytest.approx(internal.objective, abs=1e-6)
    assert " obj: 0\n" in lp.read_text()  # the last model
    assert reported == internal.objective == 0
    assert 0 in counters and max(counters) == 2


def _rows_of(problem):
    """Per row: ({variable: coefficient}, lower, upper)."""
    terms = [{} for _ in problem.row_lower]
    for row, col, value in zip(problem.rows, problem.cols, problem.values):
        name = problem.variables[col]
        terms[row][name] = terms[row].get(name, 0.0) + value
    return list(zip(terms, problem.row_lower, problem.row_upper))


@pytest.mark.parametrize("seed", [83, 84, 85, 86])
def test_write_then_parse_returns_the_model(tmp_path, seed):
    rng = seeded(seed)
    a, b = random_degenerate_pair(rng, extra_linear=True)
    model = build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                        FamilyAssignment(), alpha=0.5, beta=0.25)
    lp = tmp_path / "m.lp"
    write_lp(model, lp)
    assert_same_problem(model, milp_cli.parse_lp(lp))


def assert_same_problem(model, problem):
    """``problem`` holds the objective, rows, bounds and integrality of
    ``model``."""
    assert sorted(problem.variables) == sorted(model.variables)
    assert {problem.variables[vi]: coef
            for vi, coef in problem.objective.items()} == {
        name: coef for name, coef in model.objective.items() if coef != 0}
    assert {problem.variables[vi] for vi in problem.integer} == {
        var.name for var in model.variables.values()
        if var.kind in (BINARY, INTEGER)}
    for var in model.variables.values():
        vi = problem.index[var.name]
        assert (problem.lower[vi], problem.upper[vi]) == (var.lb, var.ub)

    rows = _rows_of(problem)
    assert len(rows) == len(model.constraints)
    for con, (terms, lower, upper) in zip(model.constraints, rows):
        expected = {}
        for coef, name in con.terms:
            expected[name] = expected.get(name, 0.0) + coef
        assert terms == expected, con.name
        bounds = {"<=": (-math.inf, con.rhs), ">=": (con.rhs, math.inf),
                  "=": (con.rhs, con.rhs)}[con.sense]
        assert (lower, upper) == bounds, con.name
