import hashlib
import itertools
import sys
import types

import pytest

from spp_dcj import milp_cli, solver
from spp_dcj.diagram import DiagramError, brute_force_distance
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import build_model, write_lp
from spp_dcj.sim import SimConfig, add_noise, evolve
from spp_dcj.solver import (BudgetExhausted, SolverError, _relative_gap,
                            _Search, complete_assignment, load_solution,
                            parse_solution, solve, solve_external,
                            solve_internal, verify_assignment,
                            write_solution)

from util import build_genome, random_degenerate_pair, seeded

FAM = FamilyAssignment()

MILP_CMD = "%s -m spp_dcj.milp_cli {lp} {sol}" % sys.executable
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


def _small_tree_models(count):
    """Models of simulated trees, 3-5 leaves and 3-12 families, whose
    ancestors carry noise up to surfeit 1.5; the mixtures cycle."""
    rng = seeded(131)
    for i in range(count):
        truth = evolve(SimConfig(families=rng.randint(3, 12),
                                 leaves=rng.randint(3, 5), seed=i))
        leaves = set(truth.tree.leaves())
        genomes = {node: genome if node in leaves
                   else add_noise(genome, 1.5, rng)[0]
                   for node, genome in sorted(truth.genomes.items())}
        yield build_model(truth.tree, genomes, FAM, *MIXTURES[i % 3])


def test_internal_matches_highs_on_small_trees(tmp_path):
    # the per-diagram counts of the search (cycles, closed and live nodes)
    # meet more than one diagram only on trees; every other test solves
    # one-edge trees
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
    assert set(result.assignment) >= set(model.variables) - {
        name for name, v in model.variables.items() if v.kind == "I"}
    value = complete_assignment(model, dict(result.assignment))
    assert value == pytest.approx(result.objective)


def test_work_budget_hands_model_to_external(monkeypatch):
    rng = seeded(67)
    a, b = random_degenerate_pair(rng)
    model = pair_model(a, b)
    full = solve_internal(model)
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        solve_internal(model)
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)
    monkeypatch.setattr(solver, "default_solver_command", lambda: MILP_CMD)
    result = solve(model)
    assert result.leaves == 0  # the external solver answered
    assert result.objective == pytest.approx(full.objective, abs=1e-6)


def test_budget_fallback_gets_remaining_time(tmp_path, monkeypatch):
    rng = seeded(67)
    a, b = random_degenerate_pair(rng)
    record = tmp_path / "time_limit.txt"
    command = "echo {time_limit} > %s && %s" % (record, MILP_CMD)
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)
    monkeypatch.setattr(solver, "default_solver_command", lambda: command)
    solve(pair_model(a, b), time_limit=60)
    assert 0 < float(record.read_text()) < 60
    solve(pair_model(a, b))
    assert float(record.read_text()) == 0  # no limit


@pytest.mark.parametrize("limit", [-1.0, float("nan")])
def test_solvers_reject_bad_time_limit(limit):
    a = build_genome("A", [(["1.1"], True)])
    model = pair_model(a, build_genome("B", [(["1.1"], True)]))
    for call in (solve, solve_internal):
        with pytest.raises(ValueError, match="time limit"):
            call(model, time_limit=limit)


def test_internal_reports_infeasible():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    xvar = next(iter(model.adjacency_vars["A"].values()))
    model.add_constraint("pin0", [(1, xvar)], "=", 0, "C.01")
    model.add_constraint("pin1", [(1, xvar)], "=", 1, "C.01")
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
        result = solve_internal(pair_model(a, b, *MIXTURES[i % 3]))
        digest.update(repr((result.status, result.objective,
                            sorted(result.assignment.items()))).encode())
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


def _unpruned_walk(model):
    """(assignment, scored value) of every full assignment propagation
    admits, walked without bounding.  At every node it asserts that the
    bound is at least the best leaf value below, and at the end that the
    undo log took the search back to where it started."""
    search = _Search(model)
    start = _search_state(search)
    leaves = []

    def dfs(k):
        while k < len(search.value) and search.value[k] != -1:
            k += 1
        if k == len(search.value):
            leaves.append(({name: float(v) for name, v
                            in zip(search.names, search.value)},
                           search.leaf_value()))
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
    model.constraints = [
        con for con in model.constraints
        if con.tag != "C.02" or int(con.name.rsplit("_", 1)[1])
        <= ctx.diagram.num_non_telomeric]
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
        with_c11 += any(con.tag == "C.11" for con in model.constraints)
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
    xvar = next(iter(model.adjacency_vars["A"].values()))
    ok = search.assign(search.index[xvar], 0)
    if ok:
        # presence variables must then be forced to 0, clashing with C.01
        over = next(name for name in search.names
                    if model.variables[name].meaning[0] == "o"
                    and model.variables[name].meaning[1] == "A")
        assert search.value[search.index[over]] == 0
    else:
        assert not ok  # direct conflict is also acceptable


@pytest.mark.parametrize("tag", ["C.01", "C.02", "C.03"])
def test_propagator_rejects_inequality_rows(tag):
    # the propagator's single rule is sound for equalities only
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    model = pair_model(a, b)
    con = next(con for con in model.constraints if con.tag == tag)
    con.sense = "<="
    with pytest.raises(SolverError, match="not an equality") as info:
        solve_internal(model)
    assert not isinstance(info.value, BudgetExhausted)


def test_propagator_rejects_non_unit_coefficients():
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    model = pair_model(a, b)
    con = next(con for con in model.constraints if con.tag == "C.02")
    con.terms = [(2 * coef, name) for coef, name in con.terms]
    with pytest.raises(SolverError, match="other than 1 or -1"):
        solve_internal(model)


def test_verify_assignment_catches_violations():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    result = solve_internal(model)
    bad = dict(result.assignment)
    some_binary = next(name for name, v in model.variables.items()
                       if v.kind == "B")
    bad[some_binary] = 0.5
    with pytest.raises(SolverError):
        verify_assignment(model, bad)
    bad[some_binary] = 7.0
    with pytest.raises(SolverError):
        verify_assignment(model, bad)


def test_external_bridge_matches_internal():
    rng = seeded(71)
    for _ in range(3):
        a, b = random_degenerate_pair(rng)
        model = pair_model(a, b)
        internal = solve_internal(model)
        external = solve_external(pair_model(a, b), command=MILP_CMD)
        assert external.status == "optimal"
        assert external.objective == pytest.approx(internal.objective,
                                                   abs=1e-6)


def test_external_bridge_bad_command():
    rng = seeded(73)
    a, b = random_degenerate_pair(rng)
    model = pair_model(a, b)
    with pytest.raises(SolverError):
        solve_external(model, command="no-placeholders")
    with pytest.raises(SolverError):
        solve_external(model, command="false {lp} {sol}")


def test_write_solution_format(tmp_path):
    path = tmp_path / "model.sol"
    write_solution(path, 2.0, [("x", 0.9999999999996), ("y", 1 / 3),
                               ("z", 7.0)], {"x", "z"})
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


def test_load_solution(tmp_path):
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b)
    result = solve_internal(model)
    values = {name: result.assignment.get(name, 0.0)
              for name in model.variables}
    path = tmp_path / "model.sol"

    def write(values, extra=""):
        path.write_text("# Objective value = %r\n%s" % (result.objective, extra)
                        + "".join("%s %r\n" % kv for kv in values.items()))

    binary = next(name for name, v in model.variables.items() if v.kind == "B")
    write(dict(values, **{binary: values[binary] + 1e-9}), "undeclared 7\n")
    reported, assignment = load_solution(model, path)
    assert reported == result.objective
    assert assignment == values  # rounded, undeclared name ignored
    write(dict(values, **{binary: 0.5}))
    with pytest.raises(SolverError):
        load_solution(model, path)
    write({k: v for k, v in values.items() if k != binary})
    with pytest.raises(SolverError):
        load_solution(model, path)


def test_solve_dispatch(monkeypatch):
    rng = seeded(79)
    a, b = random_degenerate_pair(rng)
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)
    internal = solve(pair_model(a, b))
    assert internal.status == "optimal"
    monkeypatch.setenv("SPP_DCJ_SOLVER", MILP_CMD)
    external = solve(pair_model(a, b))
    assert external.objective == pytest.approx(internal.objective, abs=1e-6)
