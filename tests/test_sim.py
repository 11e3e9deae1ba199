import hashlib
import math

import pytest

from spp_dcj.cli import EXIT_OK, main
from spp_dcj.genomes import (Adjacency, DegenerateGenome, FamilyAssignment,
                             GenomeError, is_genome, surfeit)
from spp_dcj.sim import (DEFAULT_RATES, EventRecord, NoiseReport, SimConfig,
                         _Evolver, _poisson, add_noise, chromosomes_to_genome,
                         event_rows, evolve, random_tree)

from util import seeded


def test_random_tree_shape():
    rng = seeded(97)
    tree, root = random_tree(6, rng)
    assert len(tree.leaves()) == 6
    assert all(leaf.startswith("L") for leaf in tree.leaves())
    assert root.startswith("A")
    assert len(tree.edges) == 2 * 6 - 2  # binary tree over 6 leaves
    with pytest.raises(ValueError):
        random_tree(1, rng)


def test_poisson_sane():
    rng = seeded(101)
    assert _poisson(rng, 0) == 0
    draws = [_poisson(rng, 2.0) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    assert 1.8 < mean < 2.2


def test_chromosomes_to_genome():
    g = chromosomes_to_genome("A", [[("1.1", 1), ("2.1", -1)]])
    assert is_genome(g)
    assert len(g) == 2
    assert g.markers() == ["1.1", "2.1"]


def test_evolve_deterministic_and_valid():
    config = SimConfig(families=20, leaves=4, scale=2.0, seed=5)
    r1 = evolve(config)
    r2 = evolve(config)
    assert r1.tree.edges == r2.tree.edges
    assert set(r1.genomes) == set(r2.genomes)
    for node in r1.genomes:
        assert r1.genomes[node] == r2.genomes[node]
        assert is_genome(r1.genomes[node])
    assert [e.kind for e in r1.events] == [e.kind for e in r2.events]
    assert set(r1.genomes) == set(r1.tree.nodes)


def test_evolve_scale_zero_copies_root():
    config = SimConfig(families=10, leaves=3, scale=0.0, seed=1)
    result = evolve(config)
    assert not result.events
    root_markers = result.genomes[result.root].markers()
    for node in result.genomes:
        assert result.genomes[node].markers() == root_markers


def test_event_counts_grow_with_scale():
    lo = evolve(SimConfig(families=30, leaves=5, scale=0.5, seed=3))
    hi = evolve(SimConfig(families=30, leaves=5, scale=5.0, seed=3))
    assert len(hi.events) > len(lo.events)


def test_duplication_mints_fresh_copies():
    config = SimConfig(families=10, leaves=4, scale=3.0, seed=11,
                       rates={"duplication": 1.0})
    result = evolve(config)
    all_markers = set()
    for genome in result.genomes.values():
        for marker in genome.markers():
            fam, copy = marker.split(".")
            all_markers.add(marker)
    copies = [m for m in all_markers if not m.endswith(".1")]
    assert copies  # something duplicated at scale 3 with rate 1
    fam = FamilyAssignment()
    for genome in result.genomes.values():
        # within one genome every copy id is unique per family
        assert len(set(genome.markers())) == len(genome.markers())


def test_deletion_can_extinguish():
    config = SimConfig(families=1, leaves=2, scale=50.0, seed=2,
                       rates={"deletion": 1.0}, extension={"deletion": 0.0})
    with pytest.raises(GenomeError):
        evolve(config)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        SimConfig(rates={"inversion": -1.0})


@pytest.mark.parametrize("field,value", [
    ("families", 0), ("families", -3), ("scale", -1.0), ("scale", math.inf),
    ("scale", math.nan), ("rates", {"inversion": math.nan})])
def test_config_rejects_numbers_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


@pytest.mark.parametrize("surfeit", [-1.0, math.inf, math.nan])
def test_add_noise_rejects_surfeit_out_of_range(surfeit):
    genome = evolve(SimConfig(families=5, leaves=2, seed=1)).genomes["L1"]
    with pytest.raises(ValueError, match="surfeit"):
        add_noise(genome, surfeit, seeded(5))


def test_add_noise_reaches_target_surfeit():
    rng = seeded(13)
    result = evolve(SimConfig(families=30, leaves=4, scale=1.0, seed=7))
    genome = result.genomes[result.root]
    noisy, report = add_noise(genome, 2.0, rng)
    assert surfeit(noisy) >= 2.0 - 1e-9
    assert report.added == len(noisy.adjacencies) - len(genome.adjacencies)
    assert set(genome.adjacencies) <= set(noisy.adjacencies)
    # all original adjacencies keep their weight
    weights = {adj: adj.weight for adj in noisy.adjacencies}
    for adj in genome.adjacencies:
        assert weights[adj] == adj.weight


def test_add_noise_noop_when_target_met():
    result = evolve(SimConfig(families=10, leaves=3, scale=0.0, seed=9))
    genome = result.genomes[result.root]
    noisy, report = add_noise(genome, 1.0, seeded(1))
    assert noisy is genome
    assert report.added == 0


def test_add_noise_adversarial_and_fallback():
    rng = seeded(17)
    # duplications guarantee repeated (family, kind) signatures
    result = evolve(SimConfig(families=15, leaves=3, scale=4.0, seed=21,
                              rates={"duplication": 0.8, "inversion": 0.4}))
    fam = FamilyAssignment()
    genome = next(g for g in result.genomes.values()
                  if len(g.markers()) > len({fam.family(m)
                                             for m in g.markers()}))
    noisy, report = add_noise(genome, 1.6, rng, adversarial_fraction=1.0)
    assert report.adversarial > 0
    assert report.adversarial + report.uniform == report.added
    # no duplicated families at all: adversarial requests fall back
    flat = evolve(SimConfig(families=10, leaves=3, scale=0.0, seed=1))
    genome = flat.genomes[flat.root]
    _, report = add_noise(genome, 1.5, seeded(3), adversarial_fraction=1.0)
    assert report.fallback == report.added - report.adversarial
    assert report.adversarial < report.added


@pytest.mark.parametrize("fraction", [1.5, -0.5, math.nan])
def test_add_noise_rejects_fraction_outside_unit_interval(fraction):
    result = evolve(SimConfig(families=30, leaves=3, scale=4.0, seed=21,
                              rates={"duplication": 0.8, "inversion": 0.4}))
    for species in sorted(result.genomes):
        with pytest.raises(ValueError, match=r"fraction %r is not in"
                           % fraction):
            add_noise(result.genomes[species], 2.0, seeded(5),
                      adversarial_fraction=fraction)


def test_add_noise_deterministic():
    result = evolve(SimConfig(families=20, leaves=3, scale=1.0, seed=19))
    genome = result.genomes[result.root]
    n1, _ = add_noise(genome, 1.8, seeded(42), adversarial_fraction=0.5)
    n2, _ = add_noise(genome, 1.8, seeded(42), adversarial_fraction=0.5)
    assert n1 == n2


def _reference_add_noise(genome, target_surfeit, rng,
                         adversarial_fraction=0.0):
    """The pair-enumerating sampler that add_noise replaced, kept to pin
    its noise stream: it builds every candidate pair, then samples."""
    families = FamilyAssignment()
    extremities = genome.non_telomeric_extremities()
    goal = math.ceil(target_surfeit * len(extremities) / 2.0)
    need = goal - len(genome.adjacencies)
    if need <= 0:
        return genome, NoiseReport(0, 0, 0, 0)

    existing = set(genome.adjacencies)
    signatures = set()
    for adj in genome.adjacencies:
        a, b = adj.ends
        if a.is_telomere or b.is_telomere:
            continue
        signatures.add(frozenset(((families.of(a), a.kind),
                                  (families.of(b), b.kind))))

    def signature(a, b):
        return frozenset(((families.of(a), a.kind), (families.of(b), b.kind)))

    adversarial_pool = []
    uniform_pool = []
    for i, a in enumerate(extremities):
        for b in extremities[i + 1:]:
            if a.marker == b.marker:
                continue
            adj = Adjacency((a, b), 1.0)
            if adj in existing:
                continue
            if signature(a, b) in signatures:
                adversarial_pool.append(adj)
            else:
                uniform_pool.append(adj)

    want_adv = round(need * adversarial_fraction)
    take_adv = min(want_adv, len(adversarial_pool))
    fallback = want_adv - take_adv
    take_uni = need - take_adv
    if take_uni > len(uniform_pool) + len(adversarial_pool) - take_adv:
        take_uni = len(uniform_pool) + len(adversarial_pool) - take_adv
    chosen = rng.sample(adversarial_pool, take_adv)
    remaining_uniform = uniform_pool + [
        adj for adj in adversarial_pool if adj not in set(chosen)]
    extra = rng.sample(remaining_uniform, min(take_uni, len(remaining_uniform)))
    noisy = DegenerateGenome(genome.species,
                             list(genome.adjacencies) + chosen + extra)
    report = NoiseReport(len(chosen) + len(extra), take_adv, len(extra),
                         fallback)
    return noisy, report


def _same_noise(genome, target, seed, **kwargs):
    old_rng, new_rng = seeded(seed), seeded(seed)
    old, old_report = _reference_add_noise(genome, target, old_rng, **kwargs)
    new, new_report = add_noise(genome, target, new_rng, **kwargs)
    assert new.adjacencies == old.adjacencies
    assert vars(new_report) == vars(old_report)
    assert new_rng.getstate() == old_rng.getstate()
    return new_report


def test_add_noise_matches_pair_enumeration():
    # duplications repeat (family, kind) keys, so adversarial pairs exist
    result = evolve(SimConfig(families=15, leaves=3, scale=4.0, seed=21,
                              rates={"duplication": 0.8, "inversion": 0.4}))
    reports = []
    for seed, species in enumerate(sorted(result.genomes)):
        genome = result.genomes[species]
        for fraction in (0.0, 0.5, 1.0):
            for target in (1.3, 2.0):
                reports.append(_same_noise(genome, target, seed,
                                           adversarial_fraction=fraction))
    assert any(r.adversarial > 0 and r.uniform > 0 for r in reports)

    # three markers: nine candidate pairs, so random.sample copies the pool
    tiny = evolve(SimConfig(families=3, leaves=2, scale=0.0, seed=1))
    genome = tiny.genomes[tiny.root]
    assert _same_noise(genome, 1.5, 7, adversarial_fraction=0.5).added == 2
    # a target beyond every candidate pair takes them all
    report = _same_noise(genome, 9.0, 8)
    assert report.added == 9 < math.ceil(9.0 * 6 / 2) - len(genome)


def test_simulate_noise_stream_pinned(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", str(out), "--seed", "1", "--families", "100",
                 "--leaves", "10", "--scale", "3", "--surfeit", "2.0",
                 "--adversarial", "1.0"]) == EXIT_OK
    digest = hashlib.sha256((out / "degenerate.tsv").read_bytes()).hexdigest()
    assert digest == ("df19a294952ec089012c783b2415c2463db317832ca64e98"
                      "ed990b2ff5af01de")


def test_event_rows():
    events = [EventRecord(("R", "L1"), "inversion", "inverted 2 markers")]
    assert event_rows(events) == [("R", "L1", "inversion",
                                   "inverted 2 markers")]


def test_default_rates_normalized():
    assert sum(DEFAULT_RATES.values()) == pytest.approx(1.0)
