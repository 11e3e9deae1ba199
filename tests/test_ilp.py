from collections import Counter

import pytest

from spp_dcj.diagram import ADJ, EXT, ID
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import (BINARY, CONTINUOUS, INTEGER, ModelError, build_model,
                         recompute_objective, write_lp)

from util import build_genome, random_degenerate_pair, seeded

FAM = FamilyAssignment()


def pair_model(a, b, **kwargs):
    kwargs.setdefault("alpha", 0.5)
    kwargs.setdefault("beta", 0.25)
    tree = Phylogeny([(a.species, b.species)])
    return build_model(tree, {a.species: a, b.species: b}, FAM, **kwargs)


def test_invalid_mixture_rejected():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    nan = float("nan")
    for alpha, beta in ((-0.1, 0), (0, -0.1), (0.8, 0.3), (nan, 0), (0, nan)):
        with pytest.raises(ModelError):
            pair_model(a, b, alpha=alpha, beta=beta)


def test_missing_genome_rejected():
    a = build_genome("A", [(["1.1"], True)])
    tree = Phylogeny([("A", "B")])
    with pytest.raises(ModelError):
        build_model(tree, {"A": a}, FAM, alpha=0.5, beta=0.25)


def expected_row_counts(diagram, singletons):
    """Independent constraint-count calculator from the diagram shape."""
    n_nodes = len(diagram.nodes)
    n_edges = len(diagram.edges)
    n_id = sum(1 for e in diagram.edges if e.kind == ID)
    n_ext_marker = sum(1 for e in diagram.edges
                       if e.kind == EXT and e.sibling_key is not None)
    n_adj_a = sum(1 for e in diagram.edges
                  if e.kind == ADJ and e.side == "A")
    sides_with_telos = sum(
        1 for side in ("A", "B")
        if any(diagram.side_of(n) == side for n in diagram.telomeric_nodes()))
    return {
        "C.01": diagram.num_non_telomeric,
        "C.02": 2 * n_nodes,
        "C.03": n_ext_marker // 2,
        "C.04": 2 * n_edges,
        "C.05": 2 * n_id,
        "C.06": diagram.num_non_telomeric,
        "C.07": 2 * n_id,
        "C.08": 2 * n_edges,
        "C.09": singletons,
        "C.10": n_adj_a + sum(1 for e in diagram.edges
                              if e.kind in (ID, EXT)),
        "C.11": sides_with_telos,
    }


def test_constraint_counts_match_diagram():
    rng = seeded(43)
    for _ in range(8):
        a, b = random_degenerate_pair(rng)
        model = pair_model(a, b)
        ctx = model.contexts[0]
        got = Counter(con.tag for con in model.constraints)
        want = expected_row_counts(ctx.diagram, len(ctx.singletons))
        want = {tag: n for tag, n in want.items() if n}
        assert dict(got) == want


def test_chromosome_counters_declared_after_edge_variables():
    # C.11's counters are declared in one pass after every edge's other
    # variables, in edge order, and each C.11 row uses its side's counter
    a = build_genome("A", [(["1.1", "2.1"], False)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    c = build_genome("C", [(["2.1"], False), (["1.1"], False)])
    tree = Phylogeny([("A", "B"), ("B", "C")])
    model = build_model(tree, {"A": a, "B": b, "C": c}, FAM,
                        alpha=0.5, beta=0.25)
    counters = [name for ctx in model.contexts for name in ctx.a_vars.values()]
    assert counters == list(model.variables)[-len(counters):]
    assert [sorted(ctx.a_vars) for ctx in model.contexts] == [["A", "B"],
                                                              ["A", "B"]]
    for ctx in model.contexts:
        for side, name in ctx.a_vars.items():
            assert model.variables[name].kind == INTEGER
            row = next(con for con in model.constraints
                       if con.name == "c11_%s_%s" % (ctx.key, side))
            assert row.terms[-1] == (-2, name)
    rows = Counter(con.tag for con in model.constraints)
    assert rows["C.10"] and rows["C.11"] == len(counters) == 4


def test_variable_kinds_and_shared_adjacencies():
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    c = build_genome("C", [(["1.1", "2.1"], True)])
    tree = Phylogeny([("A", "B"), ("B", "C")])
    model = build_model(tree, {"A": a, "B": b, "C": c}, FAM,
                        alpha=0.5, beta=0.25)
    assert len(model.contexts) == 2
    # B's adjacency variables appear in both edge contexts
    b_vars = set(model.adjacency_vars["B"].values())
    for ctx in model.contexts:
        used = set(ctx.edge_vars.values())
        assert b_vars <= used
    kinds = {var.kind for var in model.variables.values()}
    assert BINARY in kinds and CONTINUOUS in kinds
    for ctx in model.contexts:
        for i, name in ctx.y_vars.items():
            var = model.variables[name]
            assert var.kind == CONTINUOUS and var.ub == i
        for i in ctx.z_vars:
            assert i <= ctx.diagram.num_non_telomeric


def test_objective_coefficients():
    a = build_genome("A", [(["1.1"], False)], weight=0.75)
    b = build_genome("B", [(["1.1"], False)], weight=0.5)
    model = pair_model(a, b, alpha=0.5, beta=0.25)
    ctx = model.contexts[0]
    wcoef = 1 - 0.5 - 0.25
    for adj, name in model.adjacency_vars["A"].items():
        assert model.objective[name] == pytest.approx(wcoef * adj.weight)
    for name in ctx.z_vars.values():
        assert model.objective[name] == 0.5
    for name in ctx.t_vars.values():
        assert model.objective[name] == -0.25
    for node, name in ctx.o_vars.items():
        if node.is_telomere:
            assert model.objective[name] == pytest.approx(-0.25)
        else:
            assert name not in model.objective


def test_telomere_objective_accumulates_per_context():
    # a telomere of the middle genome is penalized once per incident edge's
    # diagram because its presence variable is shared
    a = build_genome("A", [(["1.1"], False)])
    b = build_genome("B", [(["1.1"], False)])
    c = build_genome("C", [(["1.1"], False)])
    tree = Phylogeny([("A", "B"), ("B", "C")])
    model = build_model(tree, {"A": a, "B": b, "C": c}, FAM,
                        alpha=0.5, beta=0.25)
    some_b_telo = next(n for n in model.extremity_o_vars["B"]
                       if n.is_telomere)
    name = model.extremity_o_vars["B"][some_b_telo]
    assert model.objective[name] == pytest.approx(-0.5)  # -beta twice


def test_lp_write_deterministic(tmp_path):
    rng = seeded(53)
    a, b = random_degenerate_pair(rng)
    p1, p2 = tmp_path / "m1.lp", tmp_path / "m2.lp"
    i1, i2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
    write_lp(pair_model(a, b), p1, i1)
    write_lp(pair_model(a, b), p2, i2)
    assert p1.read_bytes() == p2.read_bytes()
    assert i1.read_bytes() == i2.read_bytes()
    text = p1.read_text()
    for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    # idmap covers every variable
    declared = [line.split("\t")[0] for line in i1.read_text().splitlines()
                if not line.startswith("#")]
    model = pair_model(a, b)
    assert declared == list(model.variables)


def test_recompute_objective():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b, alpha=0.5, beta=0.0)
    assignment = {name: 1.0 for name in model.objective}
    assert recompute_objective(model, assignment) == pytest.approx(
        sum(model.objective.values()))
