"""Acceptance suite: end-to-end reproduction of the package's guarantees.

2. distance identity / single inversion on random resolved genomes
3. ILP optimum == exhaustive oracle on random degenerate pairs
4. telomere-classification reduction is optimum-preserving and shrinking
5. noise reconstruction at scales 1-5, surfeit {1.2, 2.0}, adversarial {0, 1}
6. uniform-weight workflow at scale <= 3
7. objective audit on every solved instance
8. byte-identical determinism of a criterion-5 rerun

Criterion 1, the indel-potential table, has no test: the model and the
decoder count transitions / 2, and no code computes an indel potential.
"""

import itertools
import time

import pytest

from spp_dcj import io
from spp_dcj.cli import main as cli_main
from spp_dcj.diagram import EXT, MultiRelationalDiagram, brute_force_distance
from spp_dcj.extract import audit, decode, evaluate
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import build_model
from spp_dcj.solver import load_solution, solve_internal

from util import build_genome, invert_segment, random_degenerate_pair, \
    random_structure, seeded

FAM = FamilyAssignment()

MIXTURES = [(1.0, 0.0), (0.5, 0.0), (0.5, 0.25)]


def run(*argv):
    rc = cli_main([str(a) for a in argv])
    assert rc == 0, "command failed (%d): %r" % (rc, argv)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_distance_identity_and_inversion(tmp_path):
    start = time.monotonic()
    rng = seeded(2024)
    for i in range(50):
        structure = random_structure(rng, rng.randint(2, 20))
        a = build_genome("A", structure)
        b = build_genome("A", invert_segment(structure, rng))
        pa = tmp_path / ("a%d.tsv" % i)
        pb = tmp_path / ("b%d.tsv" % i)
        out = tmp_path / "dist.tsv"
        io.write_adjacencies({"A": a}, pa)
        io.write_adjacencies({"A": b}, pb)
        run("distance", pa, pa, "-o", out)
        table = dict(l.split("\t") for l in out.read_text().splitlines())
        assert table["distance"] == "0", structure
        run("distance", pa, pb, "-o", out)
        table = dict(l.split("\t") for l in out.read_text().splitlines())
        assert table["distance"] == "1", structure
    assert time.monotonic() - start < 5.0


# -- criteria 3 and 7 --------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = seeded(33)
    for i in range(100):
        a, b = random_degenerate_pair(rng)
        alpha, beta = MIXTURES[i % len(MIXTURES)]
        oracle = brute_force_distance(a, b, FAM, alpha=alpha, beta=beta)
        tree = Phylogeny([("A", "B")])
        model = build_model(tree, {"A": a, "B": b}, FAM,
                            alpha=alpha, beta=beta)
        result = solve_internal(model)
        assert result.status == "optimal"
        assert abs(result.objective - oracle.value) < 1e-6, (
            i, alpha, beta, result.objective, oracle.value)
        # criterion 7: structural recomputation within 1e-6
        decoded = decode(model, result.assignment)
        audit(model, decoded, result.objective)
    assert time.monotonic() - start < 600.0


# -- criterion 4 -------------------------------------------------------------

def _four_telomere_pair(rng):
    """Degenerate pair where each genome has two linear chromosomes."""
    genomes = []
    for sp in ("A", "B"):
        markers = ["%d.1" % f for f in range(1, rng.randint(3, 4) + 1)]
        rng.shuffle(markers)
        markers = [m if rng.random() < 0.5 else "-" + m for m in markers]
        cut = rng.randrange(1, len(markers))
        genomes.append(build_genome(
            sp, [(markers[:cut], False), (markers[cut:], False)]))
    return genomes[0], genomes[1]


def _has_removable_cross_pair(diagram):
    """Independent union-find check for a provably removable telomeric edge.

    A lone indel-free-component telomere of one genome paired with any
    opposite-genome telomere outside its component must lose that edge."""
    parent = {n: n for n in diagram.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in diagram.edges:
        if e.is_telomeric_ext:
            continue
        parent[find(e.u)] = find(e.v)
    has_indel = set()
    for e in diagram.edges:
        if e.kind == "id":
            has_indel.add(find(e.u))
    telos = {}
    for node in diagram.telomeric_nodes():
        root = find(node)
        telos.setdefault(root, {"A": 0, "B": 0})
        telos[root][diagram.side_of(node)] += 1
    total = {"A": sum(t["A"] for t in telos.values()),
             "B": sum(t["B"] for t in telos.values())}
    for root, counts in telos.items():
        if root in has_indel:
            continue
        for side, other in (("A", "B"), ("B", "A")):
            if counts[side] == 1 and counts[other] >= 1 \
                    and total[other] > counts[other]:
                return True
    return False


def test_criterion_4_reduction_soundness():
    start = time.monotonic()
    rng = seeded(44)
    saw_shrink = 0
    for i in range(20):
        a, b = _four_telomere_pair(rng)
        assert len(a.telomeres()) >= 4 and len(b.telomeres()) >= 4
        tree = Phylogeny([("A", "B")])
        full_model = build_model(tree, {"A": a, "B": b}, FAM, alpha=0.5,
                                 beta=0.25, reduce_telomeres=False)
        red_model = build_model(tree, {"A": a, "B": b}, FAM, alpha=0.5,
                                beta=0.25, reduce_telomeres=True)
        full = solve_internal(full_model)
        red = solve_internal(red_model)
        assert abs(full.objective - red.objective) < 1e-6, i
        n_full = len(full_model.contexts[0].diagram.edges)
        n_red = len(red_model.contexts[0].diagram.edges)
        assert n_red <= n_full
        if _has_removable_cross_pair(full_model.contexts[0].diagram):
            assert n_red < n_full, i
            saw_shrink += 1
    assert saw_shrink > 0  # the property was actually exercised
    assert time.monotonic() - start < 120.0


# -- criteria 5 to 8 ---------------------------------------------------------

def pipeline(workdir, scale, surfeit, adversarial, seed=11):
    """simulate -> build -> solve -> extract -> evaluate.

    The linearize step is skipped because build's linearizability check
    accepts the simulated degenerate genomes as they are.
    Running it would not be a no-op: ``augment`` gives a telomere to every
    extremity of each component that is not an even cycle, path or clique,
    and inflated the benchmark's ``s2-2-1`` model from 41,942 to 1,108,238
    variables (ROADMAP item 13)."""
    sim = workdir / "sim"
    run("simulate", sim, "--seed", seed, "--families", 100, "--leaves", 10,
        "--scale", scale, "--surfeit", surfeit, "--adversarial", adversarial)
    lin = sim / "degenerate.tsv"
    lp = workdir / "model.lp"
    idmap = workdir / "idmap.tsv"
    run("build", sim / "tree.tsv", lin, "-o", lp, "--idmap", idmap)
    sol = workdir / "model.sol"
    run("solve", lp, "-o", sol, "--internal")
    genomes_out = workdir / "genomes.tsv"
    dist_out = workdir / "distances.tsv"
    # extract audits the recomputed objective against the solver's header
    # and fails the run on any mismatch beyond 1e-6 (criterion 7)
    run("extract", sol, sim / "tree.tsv", lin, "--idmap", idmap,
        "--genomes-out", genomes_out, "--distances-out", dist_out)
    metrics_out = workdir / "metrics.tsv"
    run("evaluate", genomes_out, sim / "truth.tsv", "-o", metrics_out)
    per_node = {}
    for line in metrics_out.read_text().splitlines()[1:]:
        species, tp, pred, act, precision, recall = line.split("\t")
        if species != "overall":
            per_node[species] = (float(precision), float(recall))
    mean_p = sum(p for p, _ in per_node.values()) / len(per_node)
    mean_r = sum(r for _, r in per_node.values()) / len(per_node)
    return mean_p, mean_r


CONFIGS = sorted(itertools.product((1, 2, 3, 4, 5), (1.2, 2.0), (0.0, 1.0)))


@pytest.mark.parametrize("scale,surfeit,adversarial", CONFIGS)
def test_criterion_5_noise_reconstruction(tmp_path, scale, surfeit,
                                          adversarial):
    start = time.monotonic()
    precision, recall = pipeline(tmp_path, scale, surfeit, adversarial)
    assert precision >= 0.99, (scale, surfeit, adversarial, precision)
    assert recall >= 0.99, (scale, surfeit, adversarial, recall)
    assert time.monotonic() - start < 600.0


@pytest.mark.parametrize("scale", (1, 2, 3))
def test_criterion_6_uniform_weight_workflow(tmp_path, scale):
    # the simulator emits truth-union-noise adjacency sets with uniform
    # weight 1 for every adjacency, which is exactly this workflow
    start = time.monotonic()
    precision, recall = pipeline(tmp_path, scale, 2.0, 1.0, seed=6)
    assert precision >= 0.95, (scale, precision)
    assert recall >= 0.95, (scale, recall)
    assert time.monotonic() - start < 900.0


def test_criterion_7_objective_audit_explicit(tmp_path):
    # criteria 3 and 5/6 audit inline; assert once explicitly end to end
    run("simulate", tmp_path / "sim", "--seed", 7, "--families", 30,
        "--leaves", 4, "--scale", 2, "--surfeit", 1.5, "--adversarial", 0.5)
    lin = tmp_path / "lin.tsv"
    run("linearize", tmp_path / "sim" / "degenerate.tsv", "-o", lin)
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    run("build", tmp_path / "sim" / "tree.tsv", lin, "-o", lp)
    run("solve", lp, "-o", sol, "--internal")
    tree = io.read_tree(tmp_path / "sim" / "tree.tsv")
    genomes = io.read_adjacencies(lin)
    model = build_model(tree, genomes, FAM, alpha=0.5, beta=0.25)
    reported, assignment = load_solution(model, sol)
    decoded = decode(model, assignment)
    assert reported is not None
    audit(model, decoded, reported)


def test_criterion_8_determinism(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    one.mkdir()
    two.mkdir()
    pipeline(one, 3, 2.0, 1.0)
    pipeline(two, 3, 2.0, 1.0)
    for fname in ("sim/degenerate.tsv", "sim/truth.tsv", "sim/tree.tsv",
                  "model.lp", "idmap.tsv", "model.sol", "genomes.tsv",
                  "distances.tsv", "metrics.tsv"):
        assert (one / fname).read_bytes() == (two / fname).read_bytes(), fname
