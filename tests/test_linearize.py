import itertools

import pytest

from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity,
                             GenomeError, HEAD, TAIL, TELO,
                             enumerate_derived, is_derived, is_genome)
from spp_dcj.linearize import (EVEN_CLIQUE, EVEN_CYCLE, EVEN_PATH,
                               NEEDS_AUGMENTATION, augment,
                               classify_components,
                               find_nonlinearizable_component,
                               is_linearizable_bruteforce)

from util import build_genome, seeded


def ext(marker, kind):
    return Extremity("A", marker, kind)


def genome(pairs):
    return DegenerateGenome("A", [Adjacency(p, 1.0) for p in pairs])


def classes_by_kind(g):
    result = {}
    for cls in classify_components(g):
        result.setdefault(cls.kind, []).append(cls)
    return result


def test_classification_cycle_path_clique():
    # square cycle over two markers
    cycle = genome([(ext("1.1", TAIL), ext("1.1", HEAD)),
                    (ext("1.1", HEAD), ext("2.1", TAIL)),
                    (ext("2.1", TAIL), ext("2.1", HEAD)),
                    (ext("2.1", HEAD), ext("1.1", TAIL))])
    assert classes_by_kind(cycle) == {EVEN_CYCLE: classes_by_kind(cycle)[EVEN_CYCLE]}
    # two-node path
    path = genome([(ext("1.1", TAIL), ext("1.1", HEAD))])
    assert list(classes_by_kind(path)) == [EVEN_PATH]
    # clique on four extremities (two markers, all six pairs minus none)
    nodes = [ext("1.1", TAIL), ext("1.1", HEAD), ext("2.1", TAIL),
             ext("2.1", HEAD)]
    clique = genome(list(itertools.combinations(nodes, 2)))
    assert list(classes_by_kind(clique)) == [EVEN_CLIQUE]


def test_classification_needs_augmentation():
    # odd component: triangle
    tri = genome([(ext("1.1", TAIL), ext("1.1", HEAD)),
                  (ext("1.1", HEAD), ext("2.1", TAIL)),
                  (ext("2.1", TAIL), ext("1.1", TAIL)),
                  (ext("2.1", HEAD), ext("3.1", TAIL)),
                  (ext("3.1", HEAD), ext("t.1", TELO))])
    kinds = {cls.kind for cls in classify_components(tri)}
    assert NEEDS_AUGMENTATION in kinds


def test_exempt_components_left_alone():
    cycle = genome([(ext("1.1", TAIL), ext("1.1", HEAD)),
                    (ext("1.1", HEAD), ext("2.1", TAIL)),
                    (ext("2.1", TAIL), ext("2.1", HEAD)),
                    (ext("2.1", HEAD), ext("1.1", TAIL))])
    assert augment(cycle) is cycle


def test_augment_makes_linearizable_and_is_idempotent():
    tri = genome([(ext("1.1", TAIL), ext("1.1", HEAD)),
                  (ext("1.1", HEAD), ext("2.1", TAIL)),
                  (ext("2.1", TAIL), ext("1.1", TAIL)),
                  (ext("2.1", HEAD), ext("3.1", TAIL)),
                  (ext("3.1", HEAD), ext("t.1", TELO))])
    assert find_nonlinearizable_component(tri) is not None
    assert not is_linearizable_bruteforce(tri)
    fixed = augment(tri)
    assert find_nonlinearizable_component(fixed) is None
    assert is_linearizable_bruteforce(fixed)
    assert len(fixed) > len(tri)
    # new telomere names continue after the existing ones
    assert fixed.max_telomere_index() > 1
    again = augment(fixed)
    assert again is fixed


def test_augmentable_but_already_coverable():
    # square with a chord: not cycle/path/clique, yet perfectly matchable
    square = genome([(ext("1.1", TAIL), ext("1.1", HEAD)),
                     (ext("1.1", HEAD), ext("2.1", TAIL)),
                     (ext("2.1", TAIL), ext("2.1", HEAD)),
                     (ext("2.1", HEAD), ext("1.1", TAIL)),
                     (ext("1.1", TAIL), ext("2.1", TAIL))])
    assert NEEDS_AUGMENTATION in {c.kind for c in classify_components(square)}
    assert find_nonlinearizable_component(square) is None
    assert is_linearizable_bruteforce(square)


def test_bruteforce_size_guard():
    markers = ["%d.1" % f for f in range(1, 10)]
    at_limit = build_genome("A", [(markers[:8], False)])  # 16 extremities
    assert is_linearizable_bruteforce(at_limit)
    over = build_genome("A", [(markers, False)])  # 18 extremities
    with pytest.raises(ValueError, match="limited to 16"):
        is_linearizable_bruteforce(over)


def _random_degenerate(rng, max_markers=4):
    markers = ["%d.1" % f for f in range(1, rng.randint(1, max_markers) + 1)]
    pool = [ext(m, k) for m in markers for k in (TAIL, HEAD)]
    pool += [ext("t.%d" % i, TELO) for i in range(1, rng.randint(1, 3))]
    pairs = [(a, b) for a, b in itertools.combinations(pool, 2)
             if not (a.is_telomere and b.is_telomere)]
    rng.shuffle(pairs)
    chosen = pairs[:rng.randint(1, min(8, len(pairs)))]
    try:
        return genome(chosen)
    except GenomeError:
        return None


def test_matching_check_matches_brute_force():
    rng = seeded(23)
    built = 0
    while built < 60:
        g = _random_degenerate(rng)
        if g is None or not g.non_telomeric_extremities():
            continue
        built += 1
        fast = find_nonlinearizable_component(g) is None
        slow = is_linearizable_bruteforce(g)
        assert fast == slow, g.adjacencies


def test_augmented_genomes_admit_derived_genomes():
    rng = seeded(29)
    built = 0
    while built < 40:
        g = _random_degenerate(rng)
        if g is None or not g.non_telomeric_extremities():
            continue
        built += 1
        fixed = augment(g)
        assert find_nonlinearizable_component(fixed) is None
        # witness: genomes really are derivable
        witness = next(enumerate_derived(fixed))
        derived = DegenerateGenome("A", witness)
        assert is_genome(derived)
        assert is_derived(derived, fixed)


def test_concrete_genomes_pass():
    g = build_genome("A", [(["1.1", "-2.1", "3.1"], False),
                           (["4.1"], True)])
    assert find_nonlinearizable_component(g) is None
