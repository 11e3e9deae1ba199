from collections import Counter

import pytest

from spp_dcj import ilp
from spp_dcj.diagram import ADJ, EXT, ID
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import (BINARY, CONTINUOUS, INTEGER, ModelError, build_model,
                         declare_model, recompute_objective, write_lp)

from spp_dcj.sim import SimConfig, add_noise, evolve

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
        got = Counter(model.rows.tags)
        want = expected_row_counts(ctx.diagram, len(ctx.singletons))
        want = {tag: n for tag, n in want.items() if n}
        assert dict(got) == want


def _assert_names_distinct(model):
    names, rows = model.names(), model.rows.names()
    assert len(set(names)) == len(names) == len(model.kinds)
    assert len(set(rows)) == len(rows) == len(model.rows)


def test_names_are_distinct():
    # names are formatted from each column's meaning and each row's name
    # parts, and no declaration checks them: pair models spanning every
    # variable class and every row block, then a simulated tree
    classes, blocks = set(), set()
    for seed in (83, 84, 85, 86):
        for extra_linear in (False, True):
            a, b = random_degenerate_pair(seeded(seed),
                                         extra_linear=extra_linear)
            model = pair_model(a, b)
            _assert_names_distinct(model)
            classes.update(meaning[0] for meaning in model.meanings)
            blocks.update(model.rows.tags)
    assert len(classes) == 11 and len(blocks) == 11
    rng = seeded(131)
    truth = evolve(SimConfig(families=10, leaves=4, seed=3))
    leaves = set(truth.tree.leaves())
    genomes = {node: genome if node in leaves
               else add_noise(genome, 1.5, rng)[0]
               for node, genome in sorted(truth.genomes.items())}
    model = build_model(truth.tree, genomes, FAM, alpha=0.5, beta=0.25)
    assert len(model.contexts) == 6
    _assert_names_distinct(model)


def test_chromosome_counters_declared_after_edge_variables():
    # C.11's counters are declared in one pass after every edge's other
    # variables, in edge order, and each C.11 row uses its side's counter
    a = build_genome("A", [(["1.1", "2.1"], False)])
    b = build_genome("B", [(["1.1", "2.1"], True)])
    c = build_genome("C", [(["2.1"], False), (["1.1"], False)])
    tree = Phylogeny([("A", "B"), ("B", "C")])
    model = build_model(tree, {"A": a, "B": b, "C": c}, FAM,
                        alpha=0.5, beta=0.25)
    counters = [col for ctx in model.contexts for col in ctx.a_vars.values()]
    count = len(model.kinds)
    assert counters == list(range(count - len(counters), count))
    assert [sorted(ctx.a_vars) for ctx in model.contexts] == [["A", "B"],
                                                              ["A", "B"]]
    rows = model.rows
    names = rows.names()
    for ctx in model.contexts:
        for side, col in ctx.a_vars.items():
            assert model.kinds[col] == INTEGER
            cols, coefs = rows.terms(names.index("c11_%s_%s" % (ctx.key, side)))
            assert (coefs[-1], cols[-1]) == (-2, col)
    tags = Counter(rows.tags)
    assert tags["C.10"] and tags["C.11"] == len(counters) == 4


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
    assert BINARY in model.kinds and CONTINUOUS in model.kinds
    for ctx in model.contexts:
        for i, col in ctx.y_vars.items():
            assert model.kinds[col] == CONTINUOUS and model.ubs[col] == i
        for i in ctx.z_vars:
            assert i <= ctx.diagram.num_non_telomeric


def test_objective_coefficients():
    a = build_genome("A", [(["1.1"], False)], weight=0.75)
    b = build_genome("B", [(["1.1"], False)], weight=0.5)
    model = pair_model(a, b, alpha=0.5, beta=0.25)
    ctx = model.contexts[0]
    wcoef = 1 - 0.5 - 0.25
    for adj, col in model.adjacency_vars["A"].items():
        assert model.objective[col] == pytest.approx(wcoef * adj.weight)
    for col in ctx.z_vars.values():
        assert model.objective[col] == 0.5
    for col in ctx.t_vars.values():
        assert model.objective[col] == -0.25
    for node, col in ctx.o_vars.items():
        if node.is_telomere:
            assert model.objective[col] == pytest.approx(-0.25)
        else:
            assert col not in model.objective


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
    col = model.extremity_o_vars["B"][some_b_telo]
    assert model.objective[col] == pytest.approx(-0.5)  # -beta twice


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
    assert declared == model.names()


def test_lp_bytes_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # write_lp streams its files in chunks of _CHUNK_ROWS lines; a pair
    # with telomeres ends in a C.11 row, so the last block is covered
    a, b = random_degenerate_pair(seeded(85), extra_linear=True)
    model = pair_model(a, b)
    assert model.rows.tags[-1] == "C.11" and INTEGER in model.kinds

    def written(stem):
        lp, idmap = tmp_path / (stem + ".lp"), tmp_path / (stem + ".tsv")
        write_lp(model, lp, idmap)
        return lp.read_bytes(), idmap.read_bytes()

    default = written("default")
    count = len(model.rows)
    for size in (1, 2, count - 1, count, count + 1):
        monkeypatch.setattr(ilp, "_CHUNK_ROWS", size)
        assert written(str(size)) == default, size


def test_idmap_describes_every_variable_class(tmp_path):
    # the first line of each class; caps, counters and singletons included
    a = build_genome("A", [(["1.1", "-2.1"], False)])
    b = build_genome("B", [(["1.1", "2.1"], True), (["3.1"], True)])
    lp, idmap = tmp_path / "m.lp", tmp_path / "m.tsv"
    write_lp(pair_model(a, b), lp, idmap)
    first = {}
    for line in idmap.read_text().splitlines()[1:]:
        first.setdefault(line.split("\t")[2].split(" ")[0], line)
    assert sorted(first.values()) == sorted([
        "x_s0_1\tB\tadjacency {1.1_h,2.1_h} of A",
        "o_s0_1\tB\tpresence of extremity 1.1_h in A",
        "x_e0_1_cap1\tB\tcapping adjacency cap.1_o-cap.2_o (e0_1)",
        "xe_e0_1_8\tB\textremity edge 1.1_t-1.1_t (e0_1)",
        "xe_e0_1_16\tB\tindel edge 3.1_t-3.1_h (e0_1)",
        "y_e0_1_1\tC\tcycle label of node 1=1.1_h (e0_1)",
        "r_e0_1_1\tB\trun label of node 1=1.1_h (e0_1)",
        "z_e0_1_1\tB\tindel-free cycle counter at node 1 (e0_1)",
        "t_e0_1_1\tB\ttransition indicator of edge 1.1_h-2.1_h (e0_1)",
        "s_e0_1_1\tB\tcircular singleton of 2 edges, side B (e0_1)",
        "a_e0_1_A\tI\tlinear chromosome count, side A (e0_1)"])


def test_declared_model_is_the_built_model_without_rows():
    a = build_genome("A", [(["1.1", "2.1"], False)])
    b = build_genome("B", [(["1.1", "-2.1"], True)])
    c = build_genome("C", [(["2.1"], False), (["1.1"], False)])
    args = (Phylogeny([("A", "B"), ("B", "C")]), {"A": a, "B": b, "C": c},
            FAM, 0.5, 0.25)
    declared, built = declare_model(*args), build_model(*args)
    assert list(declared.variables.items()) == list(built.variables.items())
    assert declared.objective == built.objective
    assert [{k: v for k, v in vars(ctx).items() if k != "diagram"}
            for ctx in declared.contexts] == [
        {k: v for k, v in vars(ctx).items() if k != "diagram"}
        for ctx in built.contexts]
    assert len(declared.rows) == 0 and len(built.rows) > 0


def test_rows_reference_only_declared_columns(monkeypatch):
    emit = ilp.emit_constraints

    def emit_stray_row(model, ctx):
        emit(model, ctx)
        model.rows.add([len(model.kinds)], [1], "=", 0, "C.01", "stray")

    monkeypatch.setattr(ilp, "emit_constraints", emit_stray_row)
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    with pytest.raises(ModelError, match="row stray references column"):
        pair_model(a, b)


def test_recompute_objective():
    a = build_genome("A", [(["1.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    model = pair_model(a, b, alpha=0.5, beta=0.0)
    assignment = [float(col in model.objective)
                  for col in range(len(model.kinds))]
    assert recompute_objective(model, assignment) == pytest.approx(
        sum(model.objective.values()))
