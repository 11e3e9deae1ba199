import copy
import math

import pytest

from spp_dcj import cli, milp_cli
from spp_dcj.cli import EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_USAGE
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import BINARY, INTEGER, build_model, write_lp
from spp_dcj.io import ParseError
from spp_dcj.solver import (DEFAULT_COMMAND, SolverError, parse_solution,
                            run_solver_command, solve_internal)

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
# x is binary, so c1 holds for no value
INFEASIBLE_LP = ("Maximize\n obj: 1 x\nSubject To\n c1: 1 x >= 2\n"
                 "Binaries\n x\nEnd\n")


def solve_lp(lp, sol, *flags):
    """The exit code of ``spp-dcj solve LP -o SOL --internal FLAGS``."""
    try:
        return cli.main(["solve", str(lp), "-o", str(sol), "--internal",
                         *flags])
    except SystemExit as exc:  # a usage error
        return exc.code


def test_parse_lp(tmp_path):
    path = tmp_path / "m.lp"
    path.write_text(SMALL_LP)
    problem = milp_cli.parse_lp(path)
    # float64 numbers and int32 indices, and no name index past the parse
    typecodes = {"objective": "d", "lower": "d", "upper": "d",
                 "integer": "i", "starts": "i", "cols": "i", "values": "d",
                 "row_lower": "d", "row_upper": "d"}
    assert {field: getattr(problem, field).typecode
            for field in typecodes} == typecodes
    assert vars(problem).keys() == {"names"} | typecodes.keys()
    assert problem.names == ["x", "y", "z"]
    assert problem.objective.tolist() == [3.0, 2.0, -1.0]
    # c1: x + y <= 1, c2: y + z >= 1; row r's terms are the entries
    # starts[r] to starts[r + 1] of cols and values
    assert problem.starts.tolist() == [0, 2, 4]
    assert problem.cols.tolist() == [0, 1, 1, 2]
    assert problem.values.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert problem.row_lower.tolist() == [-math.inf, 1.0]
    assert problem.row_upper.tolist() == [1.0, math.inf]
    assert problem.integer.tolist() == [0, 1, 2]
    assert problem.lower.tolist() == [0.0, 0.0, 0.0]
    assert problem.upper.tolist() == [1.0, 1.0, 2.0]


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
    # every number is finite: HiGHS would answer "Model error"
    "Maximize\n obj: 1 x\nSubject To\n c: nan x <= 1\nEnd\n": 4,
    "Maximize\n obj: 1 x\nSubject To\n c: 1 x <= nan\nEnd\n": 4,
    "Maximize\n obj: 1 x\nSubject To\n c: inf x <= 1\nEnd\n": 4,
    "Maximize\n obj: 1e999 x\nEnd\n": 2,
    "Maximize\n obj: 1 x\nBounds\n -inf <= x <= 1\nEnd\n": 4,
    "Maximize\n obj: 1 x\nBounds\n 0 <= x <= nan\nEnd\n": 4,
    # each sign is followed by a coefficient
    "Maximize\n obj: 1 x\nSubject To\n c: - - 1 x <= 1\nEnd\n": 4,
    "Maximize\n obj: 1 x\nSubject To\n c: 1 x + <= 1\nEnd\n": 4,
    "Maximize\n obj: 1 x -\nEnd\n": 2,
    # a file cut before its End line is refused at its last line: it would
    # otherwise be solved without its lost rows and integrality
    "Maximize\n obj: 1 x\nSubject To\n c: 1 x <= 1\nBinaries\n x\n": 6,
    "": 1,
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
    assert solve_lp(lp, sol) == EXIT_OK
    reported, values = parse_solution(sol)
    # optimum: x=1, y=0, z=1 -> 3 - 1 = 2
    assert reported == pytest.approx(2.0)
    assert values["x"] == 1.0 and values["y"] == 0.0 and values["z"] == 1.0


def test_column_named_twice_in_a_row_is_summed(tmp_path):
    # c1 names x twice: the row is 2 x <= 1, which leaves x = 0; with
    # either term alone it would be x <= 1, and x = 1
    text = ("Maximize\n obj: 1 x\nSubject To\n c1: %s <= 1\n"
            "Binaries\n x\nEnd\n")
    results = []
    for terms, cols in (("1 x + 1 x", [0, 0]), ("2 x", [0])):
        lp = tmp_path / "m.lp"
        lp.write_text(text % terms)
        problem = milp_cli.parse_lp(lp)
        assert problem.cols.tolist() == cols
        result = milp_cli.solve(problem)
        assert result.success
        results.append((list(result.x), -result.fun))
    assert results == [([0.0], 0.0), ([0.0], 0.0)]


def test_solve_leaves_its_problem_unchanged(tmp_path):
    # c1 names x twice, out of column order, and z with a zero coefficient,
    # so the matrix is summed, sorted and pruned; the benchmark's tracer
    # solves a shallow copy of a solved problem with integer = set()
    lp = tmp_path / "m.lp"
    lp.write_text("Maximize\n obj: 1 x + 2 y + 1 z\nSubject To\n"
                  " c1: 1 y + 1 x + 1 x + 0 z <= 2\n c2: 1 x + 1 z = 1\n"
                  "Binaries\n x\n y\n z\nEnd\n")
    problem = milp_cli.parse_lp(lp)
    before = {field: list(value) for field, value in vars(problem).items()}
    assert -milp_cli.solve(problem).fun == pytest.approx(3.0)
    relaxed = copy.copy(problem)
    relaxed.integer = set()
    assert -milp_cli.solve(relaxed).fun == pytest.approx(3.0)
    assert {field: list(value)
            for field, value in vars(problem).items()} == before
    assert relaxed.integer == set()


def test_main_exit_codes(tmp_path):
    missing = tmp_path / "nope.lp"
    assert solve_lp(missing, tmp_path / "o.sol") == EXIT_PARSE
    bad = tmp_path / "bad.lp"
    bad.write_text("Maximize\n obj: x\nEnd\n")
    assert solve_lp(bad, tmp_path / "o.sol") == EXIT_PARSE
    infeasible = tmp_path / "inf.lp"
    infeasible.write_text(INFEASIBLE_LP)
    assert solve_lp(infeasible, tmp_path / "o.sol") == EXIT_SOLVER
    with pytest.raises(SolverError):
        milp_cli.solve_file(infeasible, tmp_path / "o.sol")
    assert not (tmp_path / "o.sol").exists()


def test_default_command_passes_on_the_solver_exit_code(tmp_path):
    # the default command's child is spp-dcj solve --internal, whose exit
    # code for a model without an optimal solution is 4
    lp, sol = tmp_path / "inf.lp", tmp_path / "inf.sol"
    lp.write_text(INFEASIBLE_LP)
    with pytest.raises(SolverError, match=r"external solver failed \(%d\)"
                       % EXIT_SOLVER):
        run_solver_command(DEFAULT_COMMAND, lp, sol)
    assert not sol.exists()


# c1 fixes x = 1 and c3 fixes v = 1, w = 0 in the first round; then c2
# fixes y = 0, and HiGHS sees only z
FORCED_LP = """Maximize
 obj: 2 x + 3 y + 1 z + 1 v - 1 w
Subject To
 c1: 1 x = 1
 c2: 1 x + 1 y = 1
 c3: 1 v - 1 w = 1
 c4: 1 z + 1 y <= 1
Binaries
 x
 y
 z
 v
 w
End
"""


@pytest.fixture
def highs_columns(monkeypatch):
    """The number of columns of every problem handed to HiGHS."""
    import scipy.optimize
    seen = []
    milp = scipy.optimize.milp

    def counting(c, **kwargs):
        seen.append(len(c))
        return milp(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting)
    return seen


def test_highs_solves_only_the_free_columns(tmp_path, highs_columns):
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    lp.write_text(FORCED_LP)
    problem = milp_cli.parse_lp(lp)
    result = milp_cli.solve(problem)
    assert highs_columns == [1]
    assert result.success
    assert list(result.x) == [1.0, 0.0, 1.0, 1.0, 0.0]  # x y z v w
    # the fixed columns contribute 2 + 1 of the optimum 4
    assert -result.fun == pytest.approx(4.0)
    assert -result.mip_dual_bound == pytest.approx(4.0)
    assert result.mip_gap == 0
    assert solve_lp(lp, sol) == EXIT_OK
    reported, values = parse_solution(sol)
    assert reported == pytest.approx(4.0)
    assert values == {"x": 1.0, "y": 0.0, "z": 1.0, "v": 1.0, "w": 0.0}


def test_nothing_fixed_hands_highs_the_whole_problem(tmp_path,
                                                      highs_columns):
    lp = tmp_path / "m.lp"
    lp.write_text(SMALL_LP)
    assert milp_cli.solve(milp_cli.parse_lp(lp)).success
    assert highs_columns == [3]


def test_every_column_fixed_needs_no_highs(tmp_path, highs_columns):
    lp = tmp_path / "m.lp"
    lp.write_text("Maximize\n obj: 2 x - 1 y\nSubject To\n c1: 1 x = 1\n"
                  " c2: 1 x + 1 y <= 1\n c3: 1 x + 1 y = 1\n"
                  "Binaries\n x\n y\nEnd\n")
    result = milp_cli.solve(milp_cli.parse_lp(lp))
    assert highs_columns == []
    assert result.success and list(result.x) == [1.0, 0.0]
    assert -result.fun == -result.mip_dual_bound == 2.0


@pytest.mark.parametrize("rows", [
    # two equality rows fix x to two values
    " c1: 1 x = 1\n c2: 1 x = 0\n",
    # every column of c3 is fixed, and its bound does not hold
    " c1: 1 x = 1\n c2: 1 y = 0\n c3: 1 x + 1 y <= 0\n",
    # once x and y are fixed, c3's least activity is above its right-hand
    # side
    " c1: 1 x = 1\n c2: 1 y = 1\n c3: 1 x + 1 y - 1 z = 0\n",
])
def test_fixings_that_contradict_are_infeasible(tmp_path, highs_columns,
                                                rows):
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    lp.write_text("Maximize\n obj: 1 x + 1 y + 1 z\nSubject To\n" + rows
                  + " c9: 1 z <= 1\nBinaries\n x\n y\n z\nEnd\n")
    result = milp_cli.solve(milp_cli.parse_lp(lp))
    assert highs_columns == []
    assert (result.success, result.status, result.x) == (False, 2, None)
    assert result.message.startswith("The problem is infeasible")
    assert solve_lp(lp, sol) == EXIT_SOLVER
    with pytest.raises(SolverError, match="infeasible"):
        milp_cli.solve_file(lp, sol)
    assert not sol.exists()


def test_time_limit_zero_is_none_and_negative_is_bad_input(tmp_path):
    # a command template's {time_limit} reads 0 when no limit is set
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    lp.write_text(SMALL_LP)
    assert solve_lp(lp, sol, "--time-limit", "0") == EXIT_OK
    sol.unlink()
    assert solve_lp(lp, sol, "--time-limit", "-1") == EXIT_USAGE
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
        assert solve_lp(lp, sol) == EXIT_OK
        reported, _ = parse_solution(sol)
        internal = solve_internal(model)
        assert reported == pytest.approx(internal.objective, abs=1e-6)
    assert " obj: 0\n" in lp.read_text()  # the last model
    assert reported == internal.objective == 0
    assert 0 in counters and max(counters) == 2


def _rows_of(problem):
    """Per row: ({variable: coefficient}, lower, upper)."""
    terms = [{} for _ in problem.row_lower]
    for row, (start, end) in enumerate(zip(problem.starts,
                                           problem.starts[1:])):
        for col, value in zip(problem.cols[start:end],
                              problem.values[start:end]):
            name = problem.names[col]
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
    names = model.names()
    assert sorted(problem.names) == sorted(names)
    index = {name: vi for vi, name in enumerate(problem.names)}
    assert [problem.objective[index[name]] for name in names] == [
        model.objective.get(col, 0.0) for col in range(len(names))]
    assert {problem.names[vi] for vi in problem.integer} == {
        name for name, kind in zip(names, model.kinds)
        if kind in (BINARY, INTEGER)}
    for name, lb, ub in zip(names, model.lbs, model.ubs):
        vi = index[name]
        assert (problem.lower[vi], problem.upper[vi]) == (lb, ub)

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
