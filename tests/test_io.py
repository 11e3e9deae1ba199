import pytest

from spp_dcj import io
from spp_dcj.genomes import Phylogeny

from util import build_genome, random_structure, seeded


def test_adjacency_round_trip(tmp_path):
    rng = seeded(11)
    genomes = {}
    for species in ("A", "B", "C"):
        genomes[species] = build_genome(
            species, random_structure(rng, rng.randint(2, 6)),
            weight=round(rng.random(), 3))
    path = tmp_path / "adj.tsv"
    io.write_adjacencies(genomes, path)
    back = io.read_adjacencies(path)
    assert set(back) == set(genomes)
    for species in genomes:
        assert back[species] == genomes[species]
        assert ([adj.weight for adj in back[species].adjacencies]
                == [adj.weight for adj in genomes[species].adjacencies])


def test_adjacency_default_weight(tmp_path):
    path = tmp_path / "adj.tsv"
    path.write_text("A\t1.1_t\t1.1_h\n")
    genomes = io.read_adjacencies(path)
    assert genomes["A"].adjacencies[0].weight == 1.0


def test_adjacency_comments_and_blanks(tmp_path):
    path = tmp_path / "adj.tsv"
    path.write_text("# comment\n\nA\t1.1_t\t1.1_h\t0.5\n")
    assert len(io.read_adjacencies(path)["A"]) == 1


@pytest.mark.parametrize("line,fragment", [
    ("A\t1.1_t", "columns"),
    ("A\t1.1_t\t1.1_h\tbadw", "weight"),
    ("A\t1.1_q\t1.1_h\t1", "malformed"),
    ("A\tt.1_o\tt.2_o\t1", "telomere"),
    ("A\t1.1_t\t1.1_h\tinf", "finite"),
    ("A\t1.1_t\t1.1_h\t-inf", "finite"),
    ("A\t1.1_t\t1.1_h\tnan", "finite"),
    ("A\t1.1_t\t1.1_h\t1e400", "finite"),
])
def test_adjacency_parse_errors(tmp_path, line, fragment):
    path = tmp_path / "adj.tsv"
    path.write_text("# header\n%s\n" % line)
    with pytest.raises(io.ParseError) as err:
        io.read_adjacencies(path)
    assert ":2:" in str(err.value)
    assert fragment in str(err.value).lower()


def test_adjacency_genome_error_reported(tmp_path):
    path = tmp_path / "adj.tsv"
    path.write_text("A\t1.1_t\t2.1_t\t1\nA\t1.1_h\t2.1_t\t1\n")
    with pytest.raises(io.ParseError) as err:
        io.read_adjacencies(path)  # 2.1_h has no mate
    assert "genome A" in str(err.value)


def test_repeated_adjacency_rejected(tmp_path):
    path = tmp_path / "adj.tsv"
    path.write_text("A\t1.1_t\t1.1_h\t1\n"
                    "A\t1.1_h\t2.1_t\t0.3\n"
                    "A\t2.1_t\t2.1_h\t1\n"
                    "# the same adjacency in the other orientation\n"
                    "A\t2.1_t\t1.1_h\t0.9\n")
    with pytest.raises(io.ParseError, match="repeats line 2") as info:
        io.read_adjacencies(path)
    assert info.value.lineno == 5
    # one adjacency pair in two species is no repeat
    path.write_text("A\t1.1_t\t1.1_h\nB\t1.1_t\t1.1_h\n")
    assert set(io.read_adjacencies(path)) == {"A", "B"}


def test_write_is_canonical(tmp_path):
    g = build_genome("A", [(["2.1", "-1.1", "3.1"], False)])
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    io.write_adjacencies({"A": g}, p1)
    io.write_adjacencies({"A": io.read_adjacencies(p1)["A"]}, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines == sorted(lines)


def test_tree_round_trip(tmp_path):
    tree = Phylogeny([("R", "A"), ("B", "R")])
    path = tmp_path / "tree.tsv"
    io.write_tree(tree, path)
    back = io.read_tree(path)
    assert back.edges == tree.edges


def test_tree_errors(tmp_path):
    path = tmp_path / "tree.tsv"
    path.write_text("A\tB\tC\n")
    with pytest.raises(io.ParseError):
        io.read_tree(path)
    path.write_text("A\tA\n")
    with pytest.raises(io.ParseError):
        io.read_tree(path)


def test_family_map(tmp_path):
    path = tmp_path / "fam.tsv"
    path.write_text("g17\t12\ng18\t12\n")
    fam = io.read_family_map(path)
    assert fam.family("g17") == fam.family("g18") == "12"
    path.write_text("g17\n")
    with pytest.raises(io.ParseError):
        io.read_family_map(path)


def test_write_tsv(tmp_path):
    path = tmp_path / "out.tsv"
    io.write_tsv(path, ("a", "b"), [(1, "x"), (2.5, "y")])
    assert path.read_text() == "#a\tb\n1\tx\n2.5\ty\n"
