import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spp_dcj import milp_cli, solver
from spp_dcj.diagram import DiagramError, brute_force_distance
from spp_dcj.extract import decode
from spp_dcj.genomes import (TELO, Adjacency, DegenerateGenome, Extremity,
                             FamilyAssignment, Phylogeny)
from spp_dcj.ilp import Rows, build_model, write_lp
from spp_dcj.sim import SimConfig, add_noise, evolve
from spp_dcj.solver import (BudgetExhausted, SolverError, _relative_gap,
                            _Search, complete_assignment, load_solution,
                            parse_solution, run_solver_command, solve,
                            solve_external, solve_internal,
                            verify_assignment, write_solution)

from util import build_genome, random_degenerate_pair, seeded

FAM = FamilyAssignment()

MIXTURES = [(1.0, 0.0), (0.5, 0.0), (0.5, 0.25)]


def pair_model(a, b, alpha=0.5, beta=0.25, **kwargs):
    tree = Phylogeny([(a.species, b.species)])
    return build_model(tree, {a.species: a, b.species: b}, FAM,
                       alpha=alpha, beta=beta, **kwargs)


def test_internal_matches_oracle_sample():
    rng = seeded(59)
    for i in range(12):
        a, b = random_degenerate_pair(rng)
        alpha, beta = MIXTURES[i % 3]
        oracle = brute_force_distance(a, b, FAM, alpha=alpha, beta=beta)
        model = pair_model(a, b, alpha=alpha, beta=beta)
        result = solve_internal(model)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(oracle.value, abs=1e-6)


def _optional_telomeres(genome):
    """``genome`` plus a telomere at each end of its first adjacency, so
    that a derived genome may cut its chromosome there or keep it whole."""
    x, y = genome.adjacencies[0].ends
    sp = genome.species
    return DegenerateGenome(sp, list(genome.adjacencies) + [
        Adjacency((Extremity(sp, "t.1", TELO), x), 1.0),
        Adjacency((y, Extremity(sp, "t.2", TELO)), 1.0)])


def _small_tree_models(count):
    """Models of simulated trees, 3-5 leaves and 3-12 families, whose
    ancestors carry noise up to surfeit 1.5 and optional telomeres; the
    mixtures cycle.  A telomere left unused has no edge selected, so nodes
    leave the live count of every diagram of an ancestor."""
    rng = seeded(131)
    for i in range(count):
        truth = evolve(SimConfig(families=rng.randint(3, 12),
                                 leaves=rng.randint(3, 5), seed=i))
        leaves = set(truth.tree.leaves())
        genomes = {node: genome if node in leaves
                   else _optional_telomeres(add_noise(genome, 1.5, rng)[0])
                   for node, genome in sorted(truth.genomes.items())}
        yield build_model(truth.tree, genomes, FAM, *MIXTURES[i % 3])


def test_internal_matches_highs_on_small_trees(tmp_path):
    # the per-diagram counts of the search (cycles, closed and live nodes)
    # meet more than one diagram only on trees; every other test solves
    # one-edge trees.  _unpruned_walk recounts the live nodes at every node
    lp = tmp_path / "model.lp"
    count = proved = 0
    for model in _small_tree_models(15):
        count += 1
        try:
            result = solve_internal(model)
        except BudgetExhausted:
            continue
        assert len(model.contexts) > 1 and result.status == "optimal"
        walked = [value for _, value in _unpruned_walk(model)
                  if value is not None]
        assert max(walked) == pytest.approx(result.objective, abs=1e-9)
        write_lp(model, lp)
        highs = milp_cli.solve(milp_cli.parse_lp(lp))
        assert highs.success
        assert result.objective == pytest.approx(-highs.fun, abs=1e-6)
        proved += 1
    assert proved >= count / 2, (proved, count)


def test_internal_assignment_is_feasible_and_complete():
    rng = seeded(61)
    a, b = random_degenerate_pair(rng)
    model = pair_model(a, b)
    result = solve_internal(model)
    verify_assignment(model, result.assignment)
    completed = list(result.assignment)
    value = complete_assignment(model, completed)
    assert value == pytest.approx(result.objective)
    assert completed == result.assignment  # already complete


def test_work_budget_hands_model_to_external(tmp_path, monkeypatch):
    rng = seeded(67)
    a, b = random_degenerate_pair(rng)
    model = pair_model(a, b)
    full = solve_internal(model)
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        solve_internal(model)
    # the default command needs neither an install nor PYTHONPATH
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))  # no spp-dcj on it
    result = solve(model)
    assert result.leaves == 0  # the external solver answered
    assert result.objective == pytest.approx(full.objective, abs=1e-6)


def test_default_command_keeps_braces_of_interpreter_path(tmp_path):
    # DEFAULT_COMMAND is a template, so a brace in the interpreter's path
    # is doubled there; py{3} would otherwise read as the field {3}
    link = tmp_path / "py{3}" / "python"
    link.parent.mkdir()
    link.symlink_to(sys.executable)
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    lp.write_text("Maximize\n obj: 1 x\nSubject To\n c1: 1 x <= 1\n"
                  "Binaries\n x\nEnd\n")
    code = ("import sys\n"
            "from spp_dcj import solver\n"
            "assert 'py{3}' in sys.executable, sys.executable\n"
            "solver.run_solver_command(solver.DEFAULT_COMMAND, *sys.argv[1:])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([str(link), "-c", code, str(lp), str(sol)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert parse_solution(sol) == (1.0, {"x": 1.0})


def test_budget_fallback_gets_remaining_time(tmp_path, monkeypatch):
    rng = seeded(67)
    a, b = random_degenerate_pair(rng)
    record = tmp_path / "time_limit.txt"
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    monkeypatch.setenv("SPP_DCJ_SOLVER", "echo {time_limit} > %s && %s"
                       % (record, solver.DEFAULT_COMMAND))
    solve(pair_model(a, b), time_limit=60)
    assert 0 < float(record.read_text()) < 60
    solve(pair_model(a, b))
    assert float(record.read_text()) == 0  # no limit


def test_budget_fallback_with_no_time_left_times_out(monkeypatch):
    # a search that spent the whole limit before giving up leaves the
    # external solver nothing: solve times out as the search does
    def exhausted(model, time_limit):
        raise BudgetExhausted("spent")

    monkeypatch.setattr(solver, "solve_internal", exhausted)
    monkeypatch.setattr(solver, "time", types.SimpleNamespace(
        monotonic=itertools.count(0, 10).__next__))
    monkeypatch.setenv("SPP_DCJ_SOLVER", "false {lp} {sol}")
    a = build_genome("A", [(["1.1"], True)])
    with pytest.raises(SolverError, match="time limit reached"):
        solve(pair_model(a, build_genome("B", [(["1.1"], True)])),
              time_limit=5)


@pytest.mark.parametrize("limit", [-1.0, float("nan"), 0.0, math.inf])
def test_solvers_reject_bad_time_limit(limit, tmp_path):
    a = build_genome("A", [(["1.1"], True)])
    model = pair_model(a, build_genome("B", [(["1.1"], True)]))
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    write_lp(model, lp)
    calls = [lambda: solve(model, time_limit=limit),
             lambda: solve_internal(model, time_limit=limit),
             lambda: solve_external(model, time_limit=limit),
             lambda: run_solver_command(None, lp, sol, time_limit=limit),
             lambda: milp_cli.solve(milp_cli.parse_lp(lp), time_limit=limit)]
    for call in calls:
        with pytest.raises(ValueError, match="time limit"):
            call()
    assert not sol.exists()


def test_internal_reports_infeasible():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    col = next(iter(model.adjacency_vars["A"].values()))
    model.rows.add([col], [1], "=", 0, "C.01", "pin0")
    model.rows.add([col], [1], "=", 1, "C.01", "pin1")
    result = solve_internal(model)
    assert result.status == "infeasible"


def test_internal_leaf_counts_pinned():
    # measured as complete_assignment calls inside solve_internal, less the
    # final fill-in, before leaves were scored on integer tables; the
    # pruning bound cuts none of these 24 searches
    rng = seeded(97)
    counts = []
    for i in range(24):
        a, b = random_degenerate_pair(rng)
        counts.append(solve_internal(pair_model(a, b, *MIXTURES[i % 3])).leaves)
    assert counts == [4, 2, 2, 2, 4, 4, 12, 4, 4, 2, 4, 4,
                      4, 4, 6, 6, 2, 4, 4, 2, 4, 1, 2, 8]


def test_internal_search_pinned(monkeypatch):
    # values tried and bounds taken per search, on the models of
    # test_internal_leaf_counts_pinned: the same leaves can hide a search
    # that tries more values or bounds more nodes
    calls = {"assign": 0, "bound": 0}
    assign, upper_bound = _Search.assign, _Search.upper_bound

    def counted_assign(self, *args):
        calls["assign"] += 1
        return assign(self, *args)

    def counted_bound(self):
        calls["bound"] += 1
        return upper_bound(self)

    monkeypatch.setattr(_Search, "assign", counted_assign)
    monkeypatch.setattr(_Search, "upper_bound", counted_bound)
    rng = seeded(97)
    assigns, bounds = [], []
    for i in range(24):
        a, b = random_degenerate_pair(rng)
        calls.update(assign=0, bound=0)
        solve_internal(pair_model(a, b, *MIXTURES[i % 3]))
        assigns.append(calls["assign"])
        bounds.append(calls["bound"])
    assert assigns == [18, 8, 8, 10, 16, 20, 42, 18, 16, 4, 18, 16,
                       22, 16, 28, 24, 6, 16, 18, 6, 18, 2, 12, 34]
    assert bounds == [2, 1, 1, 1, 2, 2, 13, 2, 2, 1, 2, 2,
                      2, 2, 10, 8, 1, 2, 2, 1, 2, 1, 1, 5]


def test_internal_outcomes_pinned():
    # status, objective and assignment of 40 solves, measured before leaves
    # were scored on integer tables: another optimal leaf changes the digest
    rng = seeded(103)
    digest = hashlib.sha256()
    for i in range(40):
        a, b = random_degenerate_pair(rng)
        model = pair_model(a, b, *MIXTURES[i % 3])
        result = solve_internal(model)
        digest.update(repr((result.status, result.objective,
                            sorted(zip(model.variables,
                                       result.assignment)))).encode())
    assert digest.hexdigest() == ("4a08f18ab7f85bc9a9c1a1202a45ff54"
                                  "8d520bc1756376fe989d09a6277e44d8")


def _search_state(search):
    """Copies of everything the undo log puts back; a path record is read
    only at a node of degree 1 or 2."""
    ends = [end if deg else None for end, deg in zip(search.ends, search.deg)]
    return [list(part) for part in (
        search.value, search.lo, search.hi, search.obj, search.free,
        search.live, search.deg, ends, search.cand_count, search.parity,
        search.cycles, search.closed, search.tally)]


def _live_counts(search):
    """Live nodes per diagram counted from the values alone: a node is live
    while some edge at it is not fixed to 0."""
    live_node = [False] * len(search.node_ctx)
    for vi, edges in enumerate(search.edges_of):
        if search.value[vi] != 0:
            for e in edges:
                live_node[search.eu[e]] = live_node[search.ev[e]] = True
    live = [0] * len(search.live)
    for node, c in enumerate(search.node_ctx):
        live[c] += live_node[node]
    return live


def _unpruned_walk(model):
    """(assignment, scored value) of every full assignment propagation
    admits, walked without bounding.  At every node it asserts that the
    bound is at least the best leaf value below and that each diagram's
    live-node count matches a recount, and at the end that the undo log
    took the search back to where it started."""
    search = _Search(model)
    start = _search_state(search)
    leaves = []

    def dfs(k):
        assert search.live == _live_counts(search)
        while k < len(search.value) and search.value[k] != -1:
            k += 1
        if k == len(search.value):
            leaves.append(([0.0 if vi is None else float(search.value[vi])
                            for vi in search.branch], search.leaf_value()))
            return leaves[-1][1]
        bound = search.upper_bound()
        best = None
        for val in (0, 1):
            mark = len(search.log)
            if search.assign(k, val):
                below = dfs(k + 1)
                if below is not None and (best is None or below > best):
                    best = below
            search.restore(mark)
        assert best is None or bound >= best - 1e-9, (bound, best)
        return best

    dfs(0)
    assert not search.log and _search_state(search) == start
    return leaves


def test_restore_after_conflict():
    # every branch variable and value tried at the root, conflicts
    # included, and each put back by the log alone
    rng = seeded(113)
    conflicts = 0
    for i in range(12):
        a, b = random_degenerate_pair(rng)
        search = _Search(pair_model(a, b, *MIXTURES[i % 3]))
        start = _search_state(search)
        for var in range(len(search.value)):
            for val in (0, 1):
                conflicts += not search.assign(var, val)
                search.restore(0)
                assert not search.log and _search_state(search) == start
    assert conflicts


def _without_telomere_degree_rows(model):
    """The model less its C.02 rows at telomeres, so that leaves with bad
    degrees, all-telomere cycles and odd telomere usage appear."""
    (ctx,) = model.contexts
    rows, kept = model.rows, Rows()
    for r, (sense, rhs, tag, node) in enumerate(zip(
            rows.senses, rows.rhs, rows.tags, rows.first)):
        if tag != "C.02" or node <= ctx.diagram.num_non_telomeric:
            kept.add(*rows.terms(r), sense, rhs, tag, rows.forms[r],
                     rows.edge_keys[r], node, rows.second[r])
    model.rows = kept
    return model


def _scorer_cases():
    rng = seeded(103)
    for i in range(9):
        a, b = random_degenerate_pair(rng, extra_linear=i % 2 == 1)
        yield pair_model(a, b, *MIXTURES[i % 3])
        yield _without_telomere_degree_rows(
            pair_model(a, b, *MIXTURES[i % 3], reduce_telomeres=False))
    # three copies of family 1 in A, two of family 2 in B: a cycle can hold
    # indel runs A, B, A whose ends merge around it
    a = build_genome("A", [(["1.1", "1.2", "2.1", "1.3"], True)])
    b = build_genome("B", [(["1.1", "2.1", "2.2"], True)])
    for mixture in MIXTURES:
        yield pair_model(a, b, *mixture)


def test_leaf_scorer_matches_complete_assignment():
    scored = with_c11 = 0
    rejected = {"degree": 0, "telomeric": 0, "odd": 0}
    for model in _scorer_cases():
        with_c11 += "C.11" in model.rows.tags
        for assignment, value in _unpruned_walk(model):
            try:
                expected = complete_assignment(model, assignment)
            except DiagramError as exc:
                assert value is None, exc
                rejected[next(k for k in rejected if k in str(exc))] += 1
                continue
            assert value == pytest.approx(expected, abs=1e-9)
            scored += 1
    assert scored and with_c11 and all(rejected.values()), rejected


def _bound_cases():
    yield from _scorer_cases()
    rng = seeded(109)
    for i in range(60):
        a, b = random_degenerate_pair(rng)
        yield pair_model(a, b, *MIXTURES[i % 3])


def _root_bound(model):
    return _Search(model).upper_bound()


def test_bound_is_at_least_the_optimum():
    # _unpruned_walk checks every node; the root is checked against the
    # optimum the search proves
    for model in _bound_cases():
        _unpruned_walk(model)
        result = solve_internal(model)
        if result.status == "optimal":
            assert _root_bound(model) >= result.objective - 1e-9


def test_pruned_search_matches_unpruned_walk(monkeypatch):
    pruned = [solve_internal(model) for model in _bound_cases()]
    monkeypatch.setattr(_Search, "upper_bound", lambda self: float("inf"))
    unpruned = [solve_internal(model) for model in _bound_cases()]
    for cut, full in zip(pruned, unpruned):
        assert (cut.status, cut.objective, cut.assignment) == (
            full.status, full.objective, full.assignment)
        assert cut.leaves <= full.leaves
    assert sum(r.leaves for r in pruned) < sum(r.leaves for r in unpruned)


def test_timed_out_search_reports_gap_to_root_bound(monkeypatch):
    rng = seeded(107)
    for _ in range(25):
        a, b = random_degenerate_pair(rng)
    model = pair_model(a, b, *MIXTURES[24 % 3])
    full = solve_internal(model)
    assert full.status == "optimal" and full.gap == 0
    root = _root_bound(model)
    # a clock that ticks once per reading stops the search after `limit`
    # nodes; the first limit that leaves an incumbent
    for limit in range(1, 100):
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", types.SimpleNamespace(
            monotonic=lambda: next(ticks)))
        try:
            result = solve_internal(model, time_limit=limit)
            break
        except SolverError as exc:
            assert "without a feasible solution" in str(exc)
    else:
        pytest.fail("no incumbent within 100 ticks")
    assert result.status == "feasible"
    assert result.objective < full.objective < root
    assert result.gap == pytest.approx(
        (root - result.objective) / abs(result.objective))


def test_relative_gap_is_the_highs_form():
    assert _relative_gap(-2.0, 1.0) == 1.5
    assert _relative_gap(4.0, 5.0) == 0.25
    assert _relative_gap(0.0, 0.0) == 0.0
    assert _relative_gap(0.0, 1.0) == float("inf")


def test_propagator_forces_values():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    search = _Search(model)
    # deselecting A's only adjacency forces its (non-telomeric) endpoints'
    # degree rows into conflict: C.01 pins o=1, C.02 needs one adjacency
    xcol = next(iter(model.adjacency_vars["A"].values()))
    ok = search.assign(search.branch[xcol], 0)
    if ok:
        # presence variables must then be forced to 0, clashing with C.01
        over = next(col for col, meaning in enumerate(model.meanings)
                    if meaning[:2] == ("o", "A"))
        assert search.value[search.branch[over]] == 0
    else:
        assert not ok  # direct conflict is also acceptable


@pytest.mark.parametrize("tag", ["C.01", "C.02", "C.03"])
def test_propagator_rejects_inequality_rows(tag):
    # the propagator's single rule is sound for equalities only
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    model = pair_model(a, b)
    model.rows.senses[model.rows.tags.index(tag)] = "<="
    with pytest.raises(SolverError, match="not an equality") as info:
        solve_internal(model)
    assert not isinstance(info.value, BudgetExhausted)


def test_propagator_rejects_non_unit_coefficients():
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    model = pair_model(a, b)
    rows = model.rows
    r = rows.tags.index("C.02")
    for k in range(rows.starts[r], rows.starts[r + 1]):
        rows.coefs[k] *= 2
    with pytest.raises(SolverError, match="other than 1 or -1"):
        solve_internal(model)


def test_verify_assignment_catches_violations():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    result = solve_internal(model)
    bad = list(result.assignment)
    some_binary = model.kinds.index("B")
    bad[some_binary] = 0.5
    with pytest.raises(SolverError):
        verify_assignment(model, bad)
    bad[some_binary] = 7.0
    with pytest.raises(SolverError):
        verify_assignment(model, bad)


def test_verify_assignment_rejects_a_list_of_another_length():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    result = solve_internal(model)
    count = len(model.kinds)
    for bad in (result.assignment[:-1], result.assignment + [0.0]):
        with pytest.raises(SolverError, match="has %d values for %d "
                           "variables" % (len(bad), count)):
            verify_assignment(model, bad)


def test_solution_file_round_trip_keeps_the_list(tmp_path):
    # a solution written from solve_internal's list reads back as the
    # same list, which decodes to the same genomes
    rng = seeded(89)
    a, b = random_degenerate_pair(rng, extra_linear=True)
    model = pair_model(a, b)
    result = solve_internal(model)
    path = tmp_path / "model.sol"
    integer = [kind in ("B", "I") for kind in model.kinds]
    write_solution(path, result.objective, model.names(), result.assignment,
                   integer)
    reported, assignment = load_solution(model, path)
    assert reported == pytest.approx(result.objective, abs=1e-9)
    assert assignment == result.assignment
    genomes = [{species: genome.adjacencies for species, genome
                in decode(model, values).genomes.items()}
               for values in (assignment, result.assignment)]
    assert genomes[0] == genomes[1]
    assert any(len(adjacencies) for adjacencies in genomes[0].values())


def test_external_bridge_matches_internal(monkeypatch):
    rng = seeded(71)
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)
    for _ in range(3):
        a, b = random_degenerate_pair(rng)
        model = pair_model(a, b)
        internal = solve_internal(model)
        external = solve_external(pair_model(a, b))
        assert external.status == "optimal"
        assert external.objective == pytest.approx(internal.objective,
                                                   abs=1e-6)


def test_external_bridge_bad_command(monkeypatch):
    rng = seeded(73)
    a, b = random_degenerate_pair(rng)
    model = pair_model(a, b)
    monkeypatch.setenv("SPP_DCJ_SOLVER", "no-placeholders")
    with pytest.raises(SolverError):
        solve_external(model)
    monkeypatch.setenv("SPP_DCJ_SOLVER", "false {lp} {sol}")
    with pytest.raises(SolverError):
        solve_external(model)


def test_write_solution_format(tmp_path):
    path = tmp_path / "model.sol"
    write_solution(path, 2.0, ["x", "y", "z"], [0.9999999999996, 1 / 3, 7.0],
                   [True, False, True])
    assert path.read_text() == ("# Objective value = 2\nx 1\n"
                                "y 0.333333333333\nz 7\n")
    assert parse_solution(path) == (2.0, {"x": 1.0, "y": 0.333333333333,
                                          "z": 7.0})


def test_parse_solution(tmp_path):
    path = tmp_path / "model.sol"
    path.write_text("# Objective value = 2.5\nx_s0_1 1\ny_e0_1_2 0.25\n")
    reported, values = parse_solution(path)
    assert reported == 2.5
    assert values == {"x_s0_1": 1.0, "y_e0_1_2": 0.25}
    path.write_text("x_s0_1 one\n")
    with pytest.raises(SolverError):
        parse_solution(path)
    path.write_text("too many columns here\n")
    with pytest.raises(SolverError):
        parse_solution(path)
    path.write_text("# Objective value = abc\nx_s0_1 1\n")
    with pytest.raises(SolverError):
        parse_solution(path)


@pytest.mark.parametrize("text, message", [
    ("x 1\ny inf\n", ":2: malformed solution line 'y inf'"),
    ("x -inf\n", ":1: malformed solution line 'x -inf'"),
    ("x 1\n\ny nan\n", ":3: malformed solution line 'y nan'"),
    ("x 1e999\n", ":1: malformed solution line 'x 1e999'"),
    ("x 1\ny 0\nx 0\n", ":3: variable x given twice"),
    ("# Objective value = nan\nx 1\n", ":1: malformed objective header"),
])
def test_parse_solution_rejects_non_finite_and_repeated(tmp_path, text,
                                                         message):
    path = tmp_path / "model.sol"
    path.write_text(text)
    with pytest.raises(SolverError, match=re.escape(str(path) + message)):
        parse_solution(path)


def test_load_solution(tmp_path):
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    result = solve_internal(model)
    names = model.names()
    values = dict(zip(names, result.assignment))
    path = tmp_path / "model.sol"

    def write(values, extra=""):
        path.write_text("# Objective value = %r\n%s" % (result.objective, extra)
                        + "".join("%s %r\n" % kv for kv in values.items()))

    binary = names[model.kinds.index("B")]
    write(dict(values, **{binary: values[binary] + 1e-9}), "undeclared 7\n")
    reported, assignment = load_solution(model, path)
    assert reported == result.objective
    assert assignment == list(values.values())  # rounded, undeclared ignored
    write(dict(values, **{binary: 0.5}))
    with pytest.raises(SolverError):
        load_solution(model, path)
    write({k: v for k, v in values.items() if k != binary})
    with pytest.raises(SolverError):
        load_solution(model, path)


def test_solve_dispatch(tmp_path, monkeypatch):
    # SPP_DCJ_SOLVER picks the command run past the budget, nothing else
    rng = seeded(79)
    a, b = random_degenerate_pair(rng)
    record = tmp_path / "ran.txt"
    monkeypatch.setenv("SPP_DCJ_SOLVER", "echo ran > %s && %s"
                       % (record, solver.DEFAULT_COMMAND))
    internal = solve(pair_model(a, b))
    assert internal.status == "optimal" and internal.leaves > 0
    assert not record.exists()
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    external = solve(pair_model(a, b))
    assert external.leaves == 0 and record.read_text() == "ran\n"
    assert external.objective == pytest.approx(internal.objective, abs=1e-6)
