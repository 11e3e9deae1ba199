"""Simulation of genome evolution and noisy ancestral adjacency sets.

Genomes evolve along a random phylogeny from a single circular root
chromosome through inversions, transpositions, segmental duplications and
deletions.  The concrete genomes serve as ground truth; degenerate inputs
for reconstruction are produced by adding random adjacencies (uniform or
adversarial) until a target surfeit is reached.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .genomes import (Adjacency, DegenerateGenome, Extremity,
                      FamilyAssignment, GenomeError, HEAD, TAIL, Phylogeny)

EVENT_TYPES = ("inversion", "transposition", "duplication", "deletion")

DEFAULT_RATES = {"inversion": 0.55, "transposition": 0.2,
                 "duplication": 0.15, "deletion": 0.1}

# probability that a segment keeps growing by one marker
DEFAULT_EXTENSION = {"inversion": 0.5, "transposition": 0.5,
                     "duplication": 0.5, "deletion": 0.3}


@dataclass
class SimConfig:
    families: int = 100
    leaves: int = 10
    scale: float = 1.0
    rates: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    extension: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EXTENSION))
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails
        if not self.families >= 1:
            raise ValueError("families %r is not at least 1"
                             % (self.families,))
        if not 0 <= self.scale < math.inf:
            raise ValueError("scale %r is not a finite number >= 0"
                             % (self.scale,))
        for kind, rate in self.rates.items():
            if not rate >= 0:
                raise ValueError("rates[%r] = %r is not a number >= 0"
                                 % (kind, rate))


@dataclass
class EventRecord:
    branch: Tuple[str, str]
    kind: str
    detail: str


@dataclass
class SimResult:
    tree: Phylogeny
    root: str
    genomes: Dict[str, DegenerateGenome]
    events: List[EventRecord]


# chromosome: list of (marker, sign); all simulated chromosomes are circular
Chromosome = List[Tuple[str, int]]


def random_tree(leaves: int, rng: random.Random) -> Tuple[Phylogeny, str]:
    """Random binary phylogeny by repeatedly joining subtree roots."""
    if leaves < 2:
        raise ValueError("need at least 2 leaves")
    pool = ["L%d" % i for i in range(1, leaves + 1)]
    edges = []
    counter = 0
    while len(pool) > 1:
        i = rng.randrange(len(pool))
        a = pool.pop(i)
        j = rng.randrange(len(pool))
        b = pool.pop(j)
        counter += 1
        parent = "A%d" % counter
        edges.append((parent, a))
        edges.append((parent, b))
        pool.append(parent)
    return Phylogeny(edges), pool[0]


def _geometric(rng: random.Random, p: float) -> int:
    """Number of Bernoulli(p) failures before the first success, plus one."""
    length = 1
    while rng.random() > p:
        length += 1
    return length


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    # Knuth's method; lambdas here are small
    limit = math.exp(-lam)
    count, prod = 0, rng.random()
    while prod > limit:
        count += 1
        prod *= rng.random()
    return count


class _Evolver:
    def __init__(self, config: SimConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.copy_counter = {str(f): 1 for f in range(1, config.families + 1)}

    def root_genome(self) -> List[Chromosome]:
        markers = [("%d.1" % f, 1) for f in range(1, self.config.families + 1)]
        return [markers]

    def branch_events(self) -> List[str]:
        events = []
        for kind in EVENT_TYPES:
            lam = self.config.scale * self.config.rates.get(kind, 0.0)
            events.extend([kind] * _poisson(self.rng, lam))
        self.rng.shuffle(events)
        return events

    def _pick_segment(self, chromosomes: List[Chromosome], kind: str):
        """Rotate a length-weighted random chromosome so the segment sits at
        its front; returns (chromosome index, segment length)."""
        total = sum(len(c) for c in chromosomes)
        pick = self.rng.randrange(total)
        for ci, chrom in enumerate(chromosomes):
            if pick < len(chrom):
                break
            pick -= len(chrom)
        rotation = self.rng.randrange(len(chrom))
        chromosomes[ci] = chrom[rotation:] + chrom[:rotation]
        grow = self.config.extension.get(kind, 0.5)
        length = min(_geometric(self.rng, 1.0 - grow),
                     len(chrom) - 1 if len(chrom) > 1 else 1)
        return ci, length

    def apply(self, chromosomes: List[Chromosome], kind: str) -> str:
        if kind == "inversion":
            ci, length = self._pick_segment(chromosomes, kind)
            chrom = chromosomes[ci]
            seg = [(m, -s) for m, s in reversed(chrom[:length])]
            chromosomes[ci] = seg + chrom[length:]
            return "inverted %d markers" % length
        if kind == "transposition":
            ci, length = self._pick_segment(chromosomes, kind)
            chrom = chromosomes[ci]
            seg, rest = chrom[:length], chrom[length:]
            if not rest:
                return "skipped: segment spans chromosome"
            at = self.rng.randrange(1, len(rest) + 1)
            chromosomes[ci] = rest[:at] + seg + rest[at:]
            return "moved %d markers" % length
        if kind == "duplication":
            ci, length = self._pick_segment(chromosomes, kind)
            chrom = chromosomes[ci]
            seg = []
            for marker, sign in chrom[:length]:
                family = marker.split(".", 1)[0]
                self.copy_counter[family] = self.copy_counter.get(family, 0) + 1
                seg.append(("%s.%d" % (family, self.copy_counter[family]), sign))
            at = self.rng.randrange(len(chrom) + 1)
            chromosomes[ci] = chrom[:at] + seg + chrom[at:]
            return "duplicated %d markers" % length
        if kind == "deletion":
            ci, length = self._pick_segment(chromosomes, kind)
            chrom = chromosomes[ci]
            if length >= len(chrom):
                length = len(chrom) - 1
            if length < 1:
                del chromosomes[ci]
                if not chromosomes:
                    raise GenomeError("extinct genome: all markers deleted")
                return "deleted last marker of a chromosome"
            chromosomes[ci] = chrom[length:]
            return "deleted %d markers" % length
        raise ValueError("unknown event type %r" % kind)


def chromosomes_to_genome(species: str,
                          chromosomes: Sequence[Chromosome]) -> DegenerateGenome:
    """Circular chromosomes as an adjacency set."""
    adjacencies = []
    for chrom in chromosomes:
        for i, (marker, sign) in enumerate(chrom):
            nxt_marker, nxt_sign = chrom[(i + 1) % len(chrom)]
            left = Extremity(species, marker, HEAD if sign > 0 else TAIL)
            right = Extremity(species, nxt_marker,
                              TAIL if nxt_sign > 0 else HEAD)
            adjacencies.append(Adjacency((left, right), 1.0))
    return DegenerateGenome(species, adjacencies)


def evolve(config: SimConfig) -> SimResult:
    """Simulate concrete genomes for every node of a random phylogeny."""
    rng = random.Random(config.seed)
    tree, root = random_tree(config.leaves, rng)
    evolver = _Evolver(config, rng)

    neighbors: Dict[str, List[str]] = {n: [] for n in tree.nodes}
    for a, b in tree.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)

    chromosomes: Dict[str, List[Chromosome]] = {root: evolver.root_genome()}
    events: List[EventRecord] = []
    stack = [root]
    seen = {root}
    while stack:
        node = stack.pop()
        for child in sorted(neighbors[node]):
            if child in seen:
                continue
            seen.add(child)
            genome = [list(chrom) for chrom in chromosomes[node]]
            for kind in evolver.branch_events():
                detail = evolver.apply(genome, kind)
                events.append(EventRecord((node, child), kind, detail))
            chromosomes[child] = genome
            stack.append(child)

    genomes = {node: chromosomes_to_genome(node, chroms)
               for node, chroms in chromosomes.items()}
    return SimResult(tree, root, genomes, events)


# -- noise ------------------------------------------------------------------

@dataclass
class NoiseReport:
    added: int
    adversarial: int
    uniform: int
    fallback: int  # adversarial requests served uniformly for lack of candidates


def add_noise(genome: DegenerateGenome, target_surfeit: float,
              rng: random.Random, adversarial_fraction: float = 0.0
              ) -> Tuple[DegenerateGenome, NoiseReport]:
    """Add random weight-1 adjacencies until the target surfeit is reached.

    Adversarial adjacencies connect extremities whose (family, kind) pair
    signature already occurs in the genome itself, mimicking conserved
    false positives; the remainder is sampled uniformly.

    Sampling contract: the candidates are the pairs ``(i, j)``, ``i < j``,
    of the sorted non-telomeric extremities that join two markers and are
    not already adjacent.  The draws are exactly those of ``rng.sample``
    over the adversarial candidates, then of ``rng.sample`` over the uniform
    candidates in lexicographic ``(i, j)`` order followed by the adversarial
    candidates not chosen.  Only indices into these pools are drawn and
    mapped back to pairs, so the cost is linear in extremities times
    excluded partners (mate, adjacent, adversarial), not quadratic.
    ``target_surfeit`` must be finite and at least 0, and
    ``adversarial_fraction`` must lie in [0, 1].
    """
    if not 0 <= target_surfeit < math.inf:
        raise ValueError("target surfeit %r is not a finite number >= 0"
                         % (target_surfeit,))
    if not 0.0 <= adversarial_fraction <= 1.0:
        raise ValueError("adversarial fraction %r is not in [0, 1]"
                         % (adversarial_fraction,))
    families = FamilyAssignment()
    extremities = genome.non_telomeric_extremities()
    goal = math.ceil(target_surfeit * len(extremities) / 2.0)
    need = goal - len(genome.adjacencies)
    if need <= 0:
        return genome, NoiseReport(0, 0, 0, 0)

    # (family, kind) keys paired by some adjacency of the genome
    partner_keys: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    for adj in genome.adjacencies:
        a, b = adj.ends
        if a.is_telomere or b.is_telomere:
            continue
        key_a, key_b = (families.of(a), a.kind), (families.of(b), b.kind)
        partner_keys.setdefault(key_a, set()).add(key_b)
        partner_keys.setdefault(key_b, set()).add(key_a)

    n = len(extremities)
    index = {ext: i for i, ext in enumerate(extremities)}
    keys = [(families.of(ext), ext.kind) for ext in extremities]
    by_key: Dict[Tuple[str, str], List[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    # per row i, the columns j > i never drawn: the mate, existing partners
    excluded: List[Set[int]] = [set() for _ in extremities]
    for i, ext in enumerate(extremities):
        mate = index[ext.mate()]
        if mate > i:
            excluded[i].add(mate)
    for adj in genome.adjacencies:
        a, b = adj.ends
        if a.is_telomere or b.is_telomere:
            continue
        i, j = sorted((index[a], index[b]))
        excluded[i].add(j)

    adversarial_pool: List[Tuple[int, int]] = []
    skips: List[List[int]] = []  # per row, sorted columns j > i not uniform
    uniform_ends: List[int] = []  # uniform candidates in rows 0..i
    n_uniform = 0
    for i in range(n):
        adversarial = sorted({j for key in partner_keys.get(keys[i], ())
                              for j in by_key.get(key, ()) if j > i}
                             - excluded[i])
        adversarial_pool.extend((i, j) for j in adversarial)
        skips.append(sorted(excluded[i].union(adversarial)))
        n_uniform += n - 1 - i - len(skips[i])
        uniform_ends.append(n_uniform)

    def uniform_pair(u: int) -> Tuple[int, int]:
        i = bisect_right(uniform_ends, u)
        j = i + 1 + u - (uniform_ends[i - 1] if i else 0)
        for skip in skips[i]:
            if skip > j:
                break
            j += 1
        return i, j

    def adjacency(pair: Tuple[int, int]) -> Adjacency:
        return Adjacency((extremities[pair[0]], extremities[pair[1]]), 1.0)

    want_adv = round(need * adversarial_fraction)
    take_adv = min(want_adv, len(adversarial_pool))
    fallback = want_adv - take_adv
    picked = rng.sample(range(len(adversarial_pool)), take_adv)
    taken = set(picked)
    leftover = [pair for k, pair in enumerate(adversarial_pool)
                if k not in taken]
    remaining = n_uniform + len(leftover)
    drawn = rng.sample(range(remaining), min(need - take_adv, remaining))
    chosen = [adjacency(adversarial_pool[k]) for k in picked]
    extra = [adjacency(uniform_pair(u) if u < n_uniform
                       else leftover[u - n_uniform]) for u in drawn]
    noisy = DegenerateGenome(genome.species,
                             list(genome.adjacencies) + chosen + extra)
    report = NoiseReport(len(chosen) + len(extra), take_adv, len(extra),
                         fallback)
    return noisy, report


def event_rows(events: Sequence[EventRecord]):
    return [(a, b, ev.kind, ev.detail) for ev in events for a, b in [ev.branch]]


EVENT_HEADER = ("parent", "child", "event", "detail")
