import pytest

from spp_dcj.extract import (DecodeError, Metrics, audit, decode, evaluate,
                             distance_rows, metrics_rows, validate)
from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity,
                             FamilyAssignment, HEAD, Phylogeny, TAIL,
                             is_derived, is_genome)
from spp_dcj.ilp import build_model
from spp_dcj.solver import solve_internal

from util import build_genome, random_degenerate_pair, seeded

FAM = FamilyAssignment()


def solved_pair(seed=89, alpha=0.5, beta=0.25):
    rng = seeded(seed)
    a, b = random_degenerate_pair(rng)
    tree = Phylogeny([("A", "B")])
    genomes = {"A": a, "B": b}
    model = build_model(tree, genomes, FAM, alpha=alpha, beta=beta)
    result = solve_internal(model)
    return model, genomes, result


def test_decode_round_trip():
    model, genomes, result = solved_pair()
    decoded = decode(model, result.assignment)
    assert set(decoded.genomes) == {"A", "B"}
    for species, genome in decoded.genomes.items():
        assert is_genome(genome)
        assert is_derived(genome, genomes[species])
    validate(decoded, genomes)
    assert decoded.objective == pytest.approx(result.objective, abs=1e-9)
    audit(model, decoded, result.objective)
    pd = decoded.distances[0]
    assert pd.distance >= 0
    assert pd.breakdown.n_prime == model.contexts[0].diagram.n + \
        pd.used_telomeres / 4.0


def test_audit_rejects_mismatch():
    model, _, result = solved_pair()
    decoded = decode(model, result.assignment)
    with pytest.raises(DecodeError):
        audit(model, decoded, result.objective + 0.01)


def test_decode_rejects_bad_degree():
    model, _, result = solved_pair()
    bad = dict(result.assignment)
    name = next(iter(model.adjacency_vars["A"].values()))
    bad[name] = 1.0 - bad[name]
    with pytest.raises(DecodeError):
        decode(model, bad)


def test_distance_and_metrics_rows():
    model, genomes, result = solved_pair()
    decoded = decode(model, result.assignment)
    rows = distance_rows(decoded)
    assert len(rows) == 1 and rows[0][0] == "A" and rows[0][1] == "B"
    metrics = evaluate(decoded.genomes, decoded.genomes)
    rows = metrics_rows(metrics)
    assert [r[0] for r in rows] == ["A", "B", "overall"]
    assert all(r[4] == "1.000000" and r[5] == "1.000000" for r in rows)


def test_evaluate_perfect_and_empty():
    g = build_genome("A", [(["1.1", "2.1"], True)])
    metrics = evaluate({"A": g}, {"A": g})
    assert metrics["A"].precision == 1.0 and metrics["A"].recall == 1.0
    empty = DegenerateGenome("A", [])
    m = evaluate({"A": empty}, {"A": g})["A"]
    assert m.precision == 1.0  # nothing predicted, nothing wrong
    assert m.recall == 0.0
    assert evaluate({"A": empty}, {"A": empty})["A"].recall == 1.0


def test_evaluate_partial():
    truth = build_genome("A", [(["1.1", "2.1", "3.1"], True)])
    pred = build_genome("A", [(["1.1", "2.1", "-3.1"], True)])
    m = evaluate({"A": pred}, {"A": truth})["A"]
    # adjacency 1.1_h-2.1_t survives; the two around 3.1 flip orientation
    assert m.true_positives == 1
    assert m.predicted == m.actual == 3


def test_evaluate_copy_swap_equivalence():
    # two copies of family 9 traded places: family-level keys must match
    truth = build_genome("A", [(["1.1", "9.1", "2.1", "9.2"], True)])
    pred = build_genome("A", [(["1.1", "9.2", "2.1", "9.1"], True)])
    m = evaluate({"A": pred}, {"A": truth})["A"]
    assert m.precision == 1.0 and m.recall == 1.0


def test_evaluate_counts_multiset():
    # duplicate family-level adjacency must be counted twice, not collapsed
    truth = build_genome("A", [(["1.1", "2.1", "1.2", "2.2"], True)])
    pred = build_genome("A", [(["1.1", "2.1"], True), (["1.2", "2.2"], True)])
    m = evaluate({"A": pred}, {"A": truth})["A"]
    assert m.actual == 4 and m.predicted == 4
    # truth cycle: 1h-2t, 2h-1t, 1h-2t, 2h-1t; prediction the same keys
    assert m.true_positives == 4


def test_evaluate_telomeres_erased():
    truth = build_genome("A", [(["1.1"], False)])
    pred = DegenerateGenome("A", [
        Adjacency((Extremity("A", "t.7", "o"), Extremity("A", "1.1", TAIL))),
        Adjacency((Extremity("A", "t.9", "o"), Extremity("A", "1.1", HEAD))),
    ])
    m = evaluate({"A": pred}, {"A": truth})["A"]
    assert m.precision == 1.0 and m.recall == 1.0


def test_evaluate_missing_species():
    g = build_genome("A", [(["1.1"], True)])
    metrics = evaluate({}, {"A": g})
    assert metrics["A"].recall == 0.0
    assert metrics["overall"].actual == 1


def test_metrics_dataclass():
    m = Metrics(3, 4, 6)
    assert m.precision == 0.75
    assert m.recall == 0.5
