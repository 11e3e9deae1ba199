import pytest

from spp_dcj.diagram import (ADJ, EXT, ID, DiagramError,
                             MultiRelationalDiagram, SingletonExplosion,
                             breakdown_from_components, brute_force_distance,
                             classify_interior_components, count_runs,
                             decompose, enumerate_circular_singletons)
from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity,
                             FamilyAssignment, HEAD, TAIL, TELO,
                             enumerate_derived)

from util import build_genome, random_degenerate_pair, random_structure, seeded

FAM = FamilyAssignment()


def test_count_runs():
    assert count_runs([(ADJ, "A"), (EXT, None)]) == 0
    seq = [(ID, "A"), (ADJ, "A"), (ID, "A"), (ADJ, None), (ID, "B")]
    assert count_runs(seq) == 2
    # cyclic merge: first and last blocks of the same side join up
    cyc = [(ID, "A"), (ID, "B"), (ID, "A")]
    assert count_runs(cyc) == 2


def simple_pair():
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "-2.1"], True)])
    return a, b


def test_diagram_shape_resolved():
    a, b = simple_pair()
    d = MultiRelationalDiagram(a, b, FAM)
    assert d.n == 2
    assert d.num_non_telomeric == 8
    kinds = {}
    for e in d.edges:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    assert kinds[ADJ] == 4  # two per genome
    assert kinds[EXT] == 4  # tail+head per shared family
    assert ID not in kinds
    assert not d.telomeric_nodes()


def test_diagram_indel_edges_and_duplicates():
    a = build_genome("A", [(["1.1", "1.2", "2.1"], True)])
    b = build_genome("B", [(["1.1", "3.1"], True)])
    d = MultiRelationalDiagram(a, b, FAM)
    assert d.n == 1  # only family 1 is shared (min multiplicity 1)
    ids = [e for e in d.edges if e.kind == ID]
    # overrepresented: both copies of family 1 in A, 2.1 in A, 3.1 in B
    assert sorted((e.side, e.u.marker) for e in ids) == [
        ("A", "1.1"), ("A", "1.2"), ("A", "2.1"), ("B", "3.1")]
    exts = [e for e in d.edges if e.kind == EXT]
    # 2 copies x 1 copy of family 1, tail and head each
    assert len(exts) == 4


def test_diagram_capping():
    a = build_genome("A", [(["1.1"], True)])          # 0 telomeres
    b = build_genome("B", [(["1.1"], False)])          # 2 telomeres
    d = MultiRelationalDiagram(a, b, FAM)
    assert [c.marker for c in d.caps_a] == ["cap.1", "cap.2"]
    assert d.caps_b == []
    cap_adj = [e for e in d.edges if e.kind == ADJ and e.cap]
    assert len(cap_adj) == 1 and cap_adj[0].side == "A"
    # telomeric extremity edges: all caps x all B telomeres
    telo_ext = [e for e in d.edges if e.is_telomeric_ext]
    assert len(telo_ext) == 4
    assert len(d.telomeric_nodes()) == 4  # two caps, two B telomeres


def test_diagram_rejects_same_species():
    a, _ = simple_pair()
    with pytest.raises(DiagramError):
        MultiRelationalDiagram(a, a, FAM)


def test_node_indexing_non_telomeric_first():
    a = build_genome("A", [(["1.1"], False)])
    b = build_genome("B", [(["1.1"], False)])
    d = MultiRelationalDiagram(a, b, FAM)
    for node, i in d.node_index.items():
        assert (i <= d.num_non_telomeric) == (not node.is_telomere)


def test_circular_singletons():
    # unmatched A-marker with a self-loop adjacency forms the classic
    # 2-edge singleton: adjacency (1.1_t,1.1_h) + indel edge
    a = DegenerateGenome("A", [
        Adjacency((Extremity("A", "1.1", TAIL), Extremity("A", "1.1", HEAD))),
        Adjacency((Extremity("A", "2.1", TAIL), Extremity("A", "2.1", HEAD))),
    ])
    b = build_genome("B", [(["2.1"], True)])
    d = MultiRelationalDiagram(a, b, FAM)
    cands = enumerate_circular_singletons(d)
    sides = sorted(c.side for c in cands)
    # side A: cycle through 1.1; side B: 2.1 is balanced, no indel edge
    assert sides == ["A"]
    assert len(cands[0]) == 2


def test_singleton_cap():
    a = DegenerateGenome("A", [
        Adjacency((Extremity("A", "%d.1" % i, HEAD),
                   Extremity("A", "%d.1" % j, TAIL)))
        for i in range(1, 5) for j in range(1, 5)])
    b = build_genome("B", [(["9.1"], True)])
    d = MultiRelationalDiagram(a, b, FAM)
    with pytest.raises(SingletonExplosion):
        enumerate_circular_singletons(d, cap=2)


def test_decompose_and_breakdown():
    a, b = simple_pair()
    d = MultiRelationalDiagram(a, b, FAM)
    comps = decompose(d.edges)  # every node has degree 2 here
    for c in comps:  # each cycle's nodes are its edges' start points
        assert len(c.nodes) == len(c.edges)
        assert all({n, nxt} == {e.u, e.v} for n, nxt, e in
                   zip(c.nodes, c.nodes[1:] + c.nodes[:1], c.edges))
    covered = {n for c in comps for e in c.edges for n in (e.u, e.v)}
    assert covered == set(d.nodes)
    bd = breakdown_from_components(d.n, comps, 0)
    assert bd.distance == d.n - bd.indel_free_cycles


def test_decompose_ignores_input_order():
    a = build_genome("A", [(["1.1", "2.1", "3.1", "4.1", "5.1"], True)])
    b = build_genome("B", [(["1.1", "2.1", "-4.1", "3.1", "5.1"], True)])
    d = MultiRelationalDiagram(a, b, FAM)
    shuffled = list(d.edges)
    seeded(5).shuffle(shuffled)

    def cycles(edges):
        return [[e.index for e in c.edges] for c in decompose(edges)]

    expected = cycles(d.edges)
    assert len(expected) >= 3
    assert [c[0] for c in expected] == sorted(c[0] for c in expected)
    assert cycles(shuffled) == expected


def test_decompose_rejects_bad_degree():
    a, b = simple_pair()
    d = MultiRelationalDiagram(a, b, FAM)
    with pytest.raises(DiagramError):
        decompose(d.edges[:3])


def test_enumerate_derived_counts():
    # 2-marker circular degenerate genome with one extra adjacency
    base = build_genome("A", [(["1.1", "2.1"], True)])
    extra = Adjacency((Extremity("A", "1.1", TAIL),
                       Extremity("A", "2.1", TAIL)), 1.0)
    g = DegenerateGenome("A", list(base.adjacencies) + [extra])
    derived = list(enumerate_derived(g))
    assert len(derived) == 1  # the extra adjacency cannot complete a genome
    assert derived[0] == frozenset(base.adjacencies)


def test_oracle_identity_and_inversion():
    rng = seeded(31)
    for _ in range(5):
        struct = random_structure(rng, rng.randint(2, 4))
        a = build_genome("A", struct)
        b = build_genome("B", struct)
        res = brute_force_distance(a, b, FAM)
        assert res.distance == 0


def test_oracle_deletion_distance():
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1"], True)])
    res = brute_force_distance(a, b, FAM)
    assert res.distance == 1  # one deletion of marker 2


def test_oracle_symmetry():
    rng = seeded(37)
    for _ in range(5):
        a, b = random_degenerate_pair(rng)
        ra = brute_force_distance(a, b, FAM)
        rb = brute_force_distance(
            b, a, FamilyAssignment())
        assert ra.value == pytest.approx(rb.value, abs=1e-9)
        assert ra.distance == rb.distance


def test_oracle_scale_guard():
    a = build_genome("A", [(["%d.1" % i for i in range(1, 9)], True)])
    b = build_genome("B", [(["%d.1" % i for i in range(1, 9)], True)])
    with pytest.raises(DiagramError):
        brute_force_distance(a, b, FAM, max_extremities=8)


def test_interior_component_classification():
    # one shared linear marker, one A-only marker: the A-only indel sits in
    # its own component, telomeres of the shared component are indel-free
    a = build_genome("A", [(["1.1"], False), (["2.1"], True)])
    b = build_genome("B", [(["1.1"], False)])
    d = MultiRelationalDiagram(a, b, FAM)
    direct, group2 = classify_interior_components(d, ())
    assert direct  # indel-free cross pairs exist between the linear 1.1 ends
    # every telomere keeps a candidate partner
    paired = {node for pair in direct for node in pair} | group2
    assert paired == set(d.telomeric_nodes())
    for pair in direct:
        pa, pb = sorted(pair)
        assert {d.side_of(pa), d.side_of(pb)} == {"A", "B"}


def test_reduction_only_removes_telomeric_ext_edges():
    rng = seeded(41)
    for _ in range(10):
        a, b = random_degenerate_pair(rng, extra_linear=True)
        full = MultiRelationalDiagram(a, b, FAM)
        red = MultiRelationalDiagram(a, b, FAM, reduce_telomeres=True)
        full_keys = {(e.kind, frozenset((e.u, e.v))) for e in full.edges}
        red_keys = {(e.kind, frozenset((e.u, e.v))) for e in red.edges}
        assert red_keys <= full_keys
        for kind, pair in full_keys - red_keys:
            assert kind == EXT and all(n.is_telomere for n in pair)


def _edge_record(e):
    return (e.index, e.kind, e.side, e.u, e.v, e.adjacency, e.cap,
            e.sibling_key)


def _linear_pair(rng):
    """Degenerate pair of one to four linear chromosomes per genome, so the
    telomere counts often differ, plus up to two extra adjacencies each."""
    genomes = []
    for species in ("A", "B"):
        markers = ["%d.%d" % (f, c) for f in (1, 2)
                   for c in range(1, rng.randint(1, 2) + 1)]
        rng.shuffle(markers)
        markers = [m if rng.random() < 0.5 else "-" + m for m in markers]
        cuts = sorted(rng.sample(range(1, len(markers)),
                                 rng.randint(0, len(markers) - 1)))
        bounds = list(zip([0] + cuts, cuts + [len(markers)]))
        base = build_genome(species, [(markers[i:j], False)
                                      for i, j in bounds])
        ends = base.non_telomeric_extremities()
        extra = [Adjacency(tuple(rng.sample(ends, 2)), 1.0)
                 for _ in range(rng.randint(0, 2))]
        genomes.append(DegenerateGenome(species,
                                        list(base.adjacencies) + extra))
    return genomes


def test_one_pass_reduction_matches_filtered_full_diagram():
    # the reduced diagram equals the full one with the telomeric edges that
    # classify_interior_components drops taken out and the rest renumbered
    rng = seeded(43)
    dropped = capped = 0
    for _ in range(40):
        a, b = _linear_pair(rng)
        full = MultiRelationalDiagram(a, b, FAM)
        red = MultiRelationalDiagram(a, b, FAM, reduce_telomeres=True)
        direct, group2 = classify_interior_components(full, ())
        kept = [e for e in full.edges if not e.is_telomeric_ext
                or frozenset((e.u, e.v)) in direct
                or (e.u in group2 and e.v in group2)]
        renumber = {e.index: k for k, e in enumerate(kept, start=1)}
        expected = [(renumber[e.index],) + _edge_record(e)[1:] for e in kept]
        assert [_edge_record(e) for e in red.edges] == expected
        for node in full.nodes:
            assert [e.index for e in red.edges_at(node)] == [
                renumber[e.index] for e in full.edges_at(node)
                if e.index in renumber]
        dropped += len(full.edges) > len(red.edges)
        capped += bool(full.caps_a or full.caps_b)
    assert dropped and capped, (dropped, capped)
