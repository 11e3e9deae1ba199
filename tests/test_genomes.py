import copy
import pickle

import pytest

from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity,
                             FamilyAssignment, GenomeError, HEAD, Phylogeny,
                             TAIL, TELO, check_family_consistency,
                             connected_components, family_multiplicities,
                             is_derived, is_genome, parse_extremity, surfeit)

from util import build_genome, random_structure, seeded


def ext(marker, kind, species="A"):
    return Extremity(species, marker, kind)


def test_extremity_basics():
    e = ext("5.1", TAIL)
    assert e.name == "5.1_t"
    assert not e.is_telomere
    assert e.mate() == ext("5.1", HEAD)
    assert e.mate().mate() == e
    t = ext("t.3", TELO)
    assert t.is_telomere
    with pytest.raises(GenomeError):
        t.mate()


def test_extremity_validation():
    with pytest.raises(GenomeError):
        Extremity("A", "5.1", "x")
    with pytest.raises(GenomeError):
        Extremity("A", "t.1", TAIL)  # telomere marker, marker kind
    with pytest.raises(GenomeError):
        Extremity("A", "5.1", TELO)  # marker name, telomere kind
    with pytest.raises(GenomeError):
        Extremity("A", "cap.1", HEAD)  # capping telomere, marker kind


def test_extremity_value_contract():
    keys = [("B", "1.1", TAIL), ("A", "2.1", HEAD), ("A", "1.1", TAIL),
            ("A", "1.1", HEAD), ("A", "t.1", TELO), ("A", "cap.2", TELO)]
    first = [Extremity(*key) for key in keys]
    second = [Extremity(*key) for key in keys]  # equal, not identical
    for x, kx in zip(first, keys):
        assert hash(x) == hash(kx)
        assert x.is_telomere == (kx[2] == TELO)
        assert x == kx  # an extremity is its plain tuple
        for y, ky in zip(second, keys):
            assert (x == y) == (kx == ky)
            assert (x != y) == (kx != ky)
            assert (x < y) == (kx < ky)
            assert (x <= y) == (kx <= ky)
            assert (x > y) == (kx > ky)
            assert (x >= y) == (kx >= ky)
    assert sorted(first) == [Extremity(*key) for key in sorted(keys)]
    assert len(set(first) | set(second)) == len(keys)
    table = dict(zip(first, range(len(keys))))
    assert [table[e] for e in second] == list(range(len(keys)))
    e = first[0]
    assert pickle.loads(pickle.dumps(e)) == e
    assert copy.deepcopy(e) == e


def test_extremity_is_immutable():
    e = ext("5.1", TAIL)
    with pytest.raises(AttributeError):
        e.kind = HEAD
    with pytest.raises(AttributeError):
        e.is_telomere = True
    with pytest.raises(AttributeError):
        e.label = "new"
    with pytest.raises(AttributeError):
        del e.marker
    assert (e.species, e.marker, e.kind, e.is_telomere) == ("A", "5.1", TAIL,
                                                            False)


def test_parse_extremity():
    assert parse_extremity("A", "12.3_h") == ext("12.3", HEAD)
    assert parse_extremity("A", "t.4_o") == ext("t.4", TELO)
    for bad in ("12.3", "12.3_x", "_h", "plain"):
        with pytest.raises(GenomeError):
            parse_extremity("A", bad)


def test_extremity_ordering():
    items = [ext("2.1", TAIL), ext("1.1", HEAD), ext("1.1", TAIL, "B")]
    ordered = sorted(items)
    assert ordered[0] == ext("1.1", HEAD)
    assert ordered[-1].species == "B"


def test_family_assignment_default_and_explicit():
    fam = FamilyAssignment()
    assert fam.family("12.7") == "12"
    assert fam.family("plain") == "plain"
    explicit = FamilyAssignment({"g17": "12"})
    assert explicit.family("g17") == "12"
    assert explicit.family("12.7") == "12"  # default still applies
    with pytest.raises(GenomeError):
        fam.family("t.3")


def test_adjacency_canonical_and_invalid():
    a = Adjacency((ext("2.1", TAIL), ext("1.1", HEAD)), 0.5)
    assert a.ends[0] == ext("1.1", HEAD)  # sorted on construction
    assert a == Adjacency((ext("1.1", HEAD), ext("2.1", TAIL)), 0.9)
    assert hash(a) == hash(Adjacency(a.ends, 0.1))  # weight-blind identity
    with pytest.raises(GenomeError):
        Adjacency((ext("1.1", HEAD), ext("1.1", HEAD)))
    with pytest.raises(GenomeError):
        Adjacency((ext("1.1", HEAD), ext("1.1", HEAD, "B")))
    with pytest.raises(GenomeError):
        Adjacency((ext("t.1", TELO), ext("t.2", TELO)))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                    float("-inf")])
def test_adjacency_rejects_non_finite_weight(weight):
    # caught where the library makes the adjacency, not when an LP is
    # written
    with pytest.raises(GenomeError, match="finite"):
        Adjacency((ext("1.1", HEAD), ext("2.1", TAIL)), weight)


def test_genome_validation():
    # missing mate: 1.1_t appears but 1.1_h does not
    with pytest.raises(GenomeError):
        DegenerateGenome("A", [Adjacency((ext("1.1", TAIL), ext("2.1", TAIL))),
                               Adjacency((ext("2.1", HEAD), ext("1.1", TAIL)))])
    # telomere reuse
    with pytest.raises(GenomeError):
        DegenerateGenome("A", [Adjacency((ext("t.1", TELO), ext("1.1", TAIL))),
                               Adjacency((ext("t.1", TELO), ext("1.1", HEAD)))])
    # wrong species
    with pytest.raises(GenomeError):
        DegenerateGenome("B", [Adjacency((ext("1.1", TAIL), ext("1.1", HEAD)))])


def test_genome_queries():
    g = build_genome("A", [(["1.1", "-2.1"], False)])
    assert g.markers() == ["1.1", "2.1"]
    assert len(g.telomeres()) == 2
    assert len(g.non_telomeric_extremities()) == 4
    assert is_genome(g)
    assert g.max_telomere_index() == 2
    e = ext("1.1", TAIL)
    assert len(g.incident(e)) == 1
    assert g.incident(e)[0].other(e).is_telomere


def test_sorted_extremities_match_sorting_each_call():
    rng = seeded(13)
    for _ in range(25):
        g = build_genome("A", random_structure(rng, rng.randint(1, 8)),
                         weight=rng.random())
        everything = sorted(g._index)  # the (species, marker, kind) order
        assert g.extremities() == everything
        assert g.non_telomeric_extremities() == [
            e for e in everything if not e.is_telomere]
        assert g.telomeres() == [e for e in everything if e.is_telomere]
        # each call returns a fresh list a caller may change
        g.extremities().clear()
        g.telomeres().append(everything[0])
        assert g.extremities() == everything
        assert g.telomeres() == [e for e in everything if e.is_telomere]


def test_degenerate_deduplication():
    a = Adjacency((ext("1.1", TAIL), ext("1.1", HEAD)), 1.0)
    dup = Adjacency((ext("1.1", HEAD), ext("1.1", TAIL)), 0.25)
    g = DegenerateGenome("A", [a, dup])
    assert len(g) == 1


def test_multiplicity_and_consistency():
    fam = FamilyAssignment()
    g = build_genome("A", [(["1.1", "1.2", "2.1"], True)])
    counts = family_multiplicities(g, fam)
    assert counts == {("1", TAIL): 2, ("1", HEAD): 2,
                      ("2", TAIL): 1, ("2", HEAD): 1}
    assert check_family_consistency(g, fam) == counts


def test_surfeit():
    g = build_genome("A", [(["1.1", "2.1"], True)])
    assert surfeit(g) == 1.0
    extra = Adjacency((ext("1.1", HEAD), ext("2.1", HEAD)), 1.0)
    g2 = DegenerateGenome("A", list(g.adjacencies) + [extra])
    assert surfeit(g2) == 1.5
    with pytest.raises(GenomeError):
        surfeit(DegenerateGenome("A", []))


def test_is_derived():
    degenerate = DegenerateGenome("A", [
        Adjacency((ext("1.1", TAIL), ext("1.1", HEAD)), 1.0),
        Adjacency((ext("1.1", TAIL), ext("2.1", HEAD)), 1.0),
        Adjacency((ext("2.1", TAIL), ext("1.1", HEAD)), 1.0),
        Adjacency((ext("2.1", TAIL), ext("2.1", HEAD)), 1.0),
    ])
    good = DegenerateGenome("A", [
        Adjacency((ext("1.1", TAIL), ext("2.1", HEAD)), 1.0),
        Adjacency((ext("2.1", TAIL), ext("1.1", HEAD)), 1.0),
    ])
    assert is_derived(good, degenerate)
    assert not is_derived(degenerate, degenerate)  # not a genome
    foreign = build_genome("A", [(["1.1", "-2.1"], True)])
    assert not is_derived(foreign, degenerate)  # adjacency not in parent


def test_random_structures_are_genomes():
    rng = seeded(7)
    for _ in range(25):
        structure = random_structure(rng, rng.randint(1, 8))
        g = build_genome("A", structure)
        assert is_genome(g)
        assert surfeit(g) == pytest.approx(
            2.0 * len(g.adjacencies) / len(g.non_telomeric_extremities()))


def test_phylogeny():
    tree = Phylogeny([("R", "A"), ("R", "B"), ("B", "C")])
    assert tree.nodes == ("A", "B", "C", "R")
    assert tree.leaves() == ["A", "C"]
    with pytest.raises(GenomeError):
        Phylogeny([("A", "A")])
    with pytest.raises(GenomeError):
        Phylogeny([("A", "B"), ("C", "D")])  # disconnected


def test_connected_components():
    # nodes in the given order within a component, components in the order
    # of their first node; "e" is isolated and ("d", "b") repeats
    nodes = ["d", "a", "c", "e", "b"]
    pairs = [("b", "d"), ("c", "a"), ("d", "b")]
    assert connected_components(nodes, pairs) == [["d", "b"], ["a", "c"],
                                                  ["e"]]
    assert connected_components(nodes, []) == [[n] for n in nodes]
    assert connected_components([], []) == []
    # pair ends equal to the nodes but not the same objects, as diagram
    # edges carry them
    exts = [ext("1.1", TAIL), ext("1.1", HEAD), ext("2.1", TAIL)]
    copies = [(Extremity("A", "2.1", TAIL), Extremity("A", "1.1", HEAD))]
    assert copies[0][0] is not exts[2]
    comps = connected_components(exts, copies)
    assert comps == [[exts[0]], [exts[1], exts[2]]]
    assert comps[1][1] is exts[2]
