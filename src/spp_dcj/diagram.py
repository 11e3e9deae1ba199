"""Relational diagrams for pairs of degenerate genomes.

For a pair of (augmented) degenerate genomes the multi-relational diagram
superposes the capped relational diagrams of all their derived genomes:
adjacency edges per genome, extremity edges between same-family same-kind
copies (and telomere pairs) across genomes, and indel edges on copies of
families that are overrepresented on one side.  Telomere counts are balanced
with capping telomeres paired by artificial adjacencies.

This module also houses the indel-run count, circular singleton candidate
enumeration, the telomeric extremity-edge reduction, and an exhaustive
distance oracle used to validate the integer program on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .genomes import (Adjacency, DegenerateGenome, Extremity, FamilyAssignment,
                      HEAD, TAIL, TELO, check_family_consistency,
                      connected_components, enumerate_derived)

ADJ = "adj"
EXT = "ext"
ID = "id"


class DiagramError(ValueError):
    pass


class SingletonExplosion(DiagramError):
    pass


def count_runs(edge_kinds: Sequence[Tuple[str, Optional[str]]]) -> int:
    """Number of maximal same-side indel runs around a cycle.

    ``edge_kinds`` is the ordered (kind, side) sequence of the cycle's
    edges; the first and last runs join when they are of one side.
    """
    sides = [s for kind, s in edge_kinds if kind == ID]
    if not sides:
        return 0
    blocks = [sides[0]]
    for s in sides[1:]:
        if s != blocks[-1]:
            blocks.append(s)
    if len(blocks) > 1 and blocks[0] == blocks[-1]:
        blocks.pop()
    return len(blocks)


@dataclass(frozen=True)
class DiagramEdge:
    index: int
    kind: str  # ADJ, EXT or ID
    side: Optional[str]  # 'A'/'B' for adjacency and indel edges, None for ext
    u: Extremity
    v: Extremity
    adjacency: Optional[Adjacency] = None  # genome adjacency, None for caps
    cap: bool = False
    sibling_key: Optional[Tuple[str, str]] = None  # (marker_a, marker_b)

    def other(self, node: Extremity) -> Extremity:
        return self.v if node == self.u else self.u

    @property
    def is_telomeric_ext(self) -> bool:
        return self.kind == EXT and self.u.is_telomere


@dataclass(frozen=True)
class CircularSingletonCandidate:
    side: str
    edges: Tuple[int, ...]  # edge indices, canonical key

    def __len__(self):
        return len(self.edges)


@dataclass
class DistanceBreakdown:
    n_prime: float
    indel_free_cycles: int
    transitions: int
    circular_singletons: int

    @property
    def distance(self) -> int:
        value = (self.n_prime - self.indel_free_cycles
                 + self.transitions / 2 + self.circular_singletons)
        rounded = int(round(value))
        assert abs(value - rounded) < 1e-9, "non-integral distance %r" % value
        return rounded


class MultiRelationalDiagram:
    """Capped multi-relational diagram of one phylogeny edge."""

    def __init__(self, genome_a: DegenerateGenome, genome_b: DegenerateGenome,
                 families: FamilyAssignment, reduce_telomeres: bool = False):
        if genome_a.species == genome_b.species:
            raise DiagramError("diagram requires two distinct species")
        self.genome_a = genome_a
        self.genome_b = genome_b
        self.families = families
        counts_a = check_family_consistency(genome_a, families)
        counts_b = check_family_consistency(genome_b, families)
        fams = {fam for fam, _ in counts_a} | {fam for fam, _ in counts_b}
        self.n = sum(min(counts_a.get((fam, TAIL), 0), counts_b.get((fam, TAIL), 0))
                     for fam in fams)

        telo_a = genome_a.telomeres()
        telo_b = genome_b.telomeres()
        l = len(telo_b) - len(telo_a)
        self.caps_a = [Extremity(genome_a.species, "cap.%d" % i, TELO)
                       for i in range(1, max(0, 2 * (l // 2)) + 1)] if l > 0 else []
        self.caps_b = [Extremity(genome_b.species, "cap.%d" % i, TELO)
                       for i in range(1, max(0, 2 * (-l // 2)) + 1)] if l < 0 else []

        non_telo = sorted(genome_a.non_telomeric_extremities()
                          + genome_b.non_telomeric_extremities())
        telo = sorted(telo_a + telo_b) + self.caps_a + self.caps_b
        self.nodes: List[Extremity] = non_telo + telo
        self.num_non_telomeric = len(non_telo)
        self.node_index: Dict[Extremity, int] = {
            node: i for i, node in enumerate(self.nodes, start=1)}

        self.edges: List[DiagramEdge] = []
        self._edges_at: Dict[Extremity, List[DiagramEdge]] = {}
        self._build_edges(counts_a, counts_b, reduce_telomeres)

    # -- construction -----------------------------------------------------

    def _add_edge(self, kind, side, u, v, adjacency=None, cap=False,
                  sibling_key=None):
        edge = DiagramEdge(len(self.edges) + 1, kind, side, u, v,
                           adjacency, cap, sibling_key)
        self.edges.append(edge)
        self._edges_at.setdefault(u, []).append(edge)
        self._edges_at.setdefault(v, []).append(edge)
        return edge

    def _build_edges(self, counts_a, counts_b, reduce_telomeres):
        """Adjacency, marker extremity, telomeric extremity and indel
        edges, in that order.  With ``reduce_telomeres`` only the telomere
        pairs ``classify_interior_components`` keeps become edges."""
        fam = self.families
        indels = []  # (side, tail, head) of copies that may be deleted
        for side, genome, own, other in (("A", self.genome_a, counts_a, counts_b),
                                         ("B", self.genome_b, counts_b, counts_a)):
            for marker in genome.markers():
                family = fam.family(marker)
                if own.get((family, TAIL), 0) > other.get((family, TAIL), 0):
                    indels.append((side,
                                   Extremity(genome.species, marker, TAIL),
                                   Extremity(genome.species, marker, HEAD)))

        for side, genome, caps in (("A", self.genome_a, self.caps_a),
                                   ("B", self.genome_b, self.caps_b)):
            for adj in genome.adjacencies:
                self._add_edge(ADJ, side, adj.ends[0], adj.ends[1], adjacency=adj)
            for i in range(0, len(caps), 2):
                self._add_edge(ADJ, side, caps[i], caps[i + 1], cap=True)

        by_family_a = self._markers_by_family(self.genome_a)
        by_family_b = self._markers_by_family(self.genome_b)
        for family in sorted(set(by_family_a) & set(by_family_b)):
            for ma in by_family_a[family]:
                for mb in by_family_b[family]:
                    key = (ma, mb)
                    for kind in (TAIL, HEAD):
                        self._add_edge(
                            EXT, None,
                            Extremity(self.genome_a.species, ma, kind),
                            Extremity(self.genome_b.species, mb, kind),
                            sibling_key=key)
        telo_pairs = [(ta, tb) for ta in self.telomeres_side("A")
                      for tb in self.telomeres_side("B")]
        if reduce_telomeres and telo_pairs:
            direct, group2 = classify_interior_components(
                self, [(u, v) for _, u, v in indels])
            telo_pairs = [(ta, tb) for ta, tb in telo_pairs
                          if frozenset((ta, tb)) in direct
                          or (ta in group2 and tb in group2)]
        for ta, tb in telo_pairs:
            self._add_edge(EXT, None, ta, tb)

        for side, u, v in indels:
            self._add_edge(ID, side, u, v)

    def _markers_by_family(self, genome: DegenerateGenome) -> Dict[str, List[str]]:
        result: Dict[str, List[str]] = {}
        for marker in genome.markers():
            result.setdefault(self.families.family(marker), []).append(marker)
        return result

    # -- queries ----------------------------------------------------------

    def side_of(self, node: Extremity) -> str:
        return "A" if node.species == self.genome_a.species else "B"

    def telomeres_side(self, side: str) -> List[Extremity]:
        genome = self.genome_a if side == "A" else self.genome_b
        caps = self.caps_a if side == "A" else self.caps_b
        return genome.telomeres() + caps

    def edges_at(self, node: Extremity) -> List[DiagramEdge]:
        return self._edges_at.get(node, [])

    def telomeric_nodes(self) -> List[Extremity]:
        return [node for node in self.nodes if node.is_telomere]


# -- telomeric extremity-edge reduction (search-space pruning) -------------

def classify_interior_components(diagram: MultiRelationalDiagram,
                                 indels: Sequence[Tuple[Extremity, Extremity]]):
    """Group telomeres by the interior component (diagram minus telomeric
    extremity edges) they live in, flagging indel-free components.

    ``indels`` are the indel pairs that are not yet edges of the diagram;
    the diagram's own indel edges count too.  Returns (direct_pairs, group2) where
    direct_pairs are cross-genome pairs of indel-free components and group2
    is the all-vs-all pool (members of indel-enclosing components, plus
    same-genome fellows of indel-free ones).
    """
    pairs = [(e.u, e.v) for e in diagram.edges if not e.is_telomeric_ext]
    pairs += indels
    indel_ends = {node for e in diagram.edges if e.kind == ID
                  for node in (e.u, e.v)}
    indel_ends.update(node for pair in indels for node in pair)

    direct: Set[FrozenSet[Extremity]] = set()
    group2: Set[Extremity] = set()
    for nodes in connected_components(diagram.nodes, pairs):
        telos = [node for node in nodes if node.is_telomere]
        if not telos:
            continue
        if any(node in indel_ends for node in nodes):
            group2.update(telos)
            continue
        sides = {}
        for telo in telos:
            sides.setdefault(diagram.side_of(telo), []).append(telo)
        for ta in sides.get("A", ()):
            for tb in sides.get("B", ()):
                direct.add(frozenset((ta, tb)))
        for side_telos in sides.values():
            if len(side_telos) > 1:
                group2.update(side_telos)
    return direct, group2


# -- circular singleton candidates ----------------------------------------

def enumerate_circular_singletons(diagram: MultiRelationalDiagram,
                                  cap: int = 100000
                                  ) -> List[CircularSingletonCandidate]:
    """All alternating adjacency/indel cycles within one genome side."""
    result: List[CircularSingletonCandidate] = []
    for side in ("A", "B"):
        id_edges = [e for e in diagram.edges if e.kind == ID and e.side == side]
        if not id_edges:
            continue
        adj_at: Dict[Extremity, List[DiagramEdge]] = {}
        id_at: Dict[Extremity, List[DiagramEdge]] = {}
        for e in diagram.edges:
            if e.side != side:
                continue
            target = adj_at if e.kind == ADJ else id_at
            for node in (e.u, e.v):
                target.setdefault(node, []).append(e)
        seen: Set[Tuple[int, ...]] = set()

        def walk(start, node, want, path, visited):
            if len(result) + len(seen) > cap:
                raise SingletonExplosion(
                    "singleton explosion on genome side %s" % side)
            pool = adj_at if want == ADJ else id_at
            for e in pool.get(node, ()):
                nxt = e.other(node)
                if nxt == start:
                    if want == ADJ:  # closing edge completes alternation
                        key = tuple(sorted(p.index for p in path + [e]))
                        seen.add(key)
                    continue
                if nxt in visited or nxt < start:
                    continue
                visited.add(nxt)
                walk(start, nxt, ADJ if want == ID else ID, path + [e], visited)
                visited.discard(nxt)

        for first in id_edges:
            for start, nxt in ((first.u, first.v), (first.v, first.u)):
                if nxt < start:
                    continue
                walk(start, nxt, ADJ, [first], {start, nxt})
        for key in sorted(seen):
            result.append(CircularSingletonCandidate(side, key))
    return result


# -- component decomposition of a concrete (selected) diagram ---------------

@dataclass
class Component:
    """One cycle of a selected edge set."""
    edges: List[DiagramEdge]  # in traversal order
    nodes: List[Extremity]  # nodes[k] is where edges[k] starts

    @property
    def has_ext(self) -> bool:
        return any(e.kind == EXT for e in self.edges)

    @property
    def has_indel(self) -> bool:
        return any(e.kind == ID for e in self.edges)

    def runs(self) -> int:
        return count_runs([(e.kind, e.side) for e in self.edges])


def decompose(selected: Sequence[DiagramEdge]) -> List[Component]:
    """Split a selected edge set whose nodes all have degree 2 into cycles.

    Each cycle starts at its lowest-indexed edge; cycles come in the order
    of those edges."""
    at: Dict[Extremity, List[DiagramEdge]] = {}
    for edge in selected:
        at.setdefault(edge.u, []).append(edge)
        at.setdefault(edge.v, []).append(edge)
    for node, incident in at.items():
        if len(incident) != 2:
            raise DiagramError("node %s has degree %d in solution"
                               % (node, len(incident)))
    used: Set[int] = set()
    components = []
    for start_edge in sorted(selected, key=lambda e: e.index):
        if start_edge.index in used:
            continue
        ordered = [start_edge]
        used.add(start_edge.index)
        head = start_edge.v
        origin = start_edge.u
        nodes = [origin]
        while head != origin:
            nodes.append(head)
            nxt = next(e for e in at[head] if e.index not in used)
            ordered.append(nxt)
            used.add(nxt.index)
            head = nxt.other(head)
        components.append(Component(ordered, nodes))
    return components


def breakdown_from_components(n: int, components: List[Component],
                              used_telomeres: int) -> DistanceBreakdown:
    cycles_if = sum(1 for c in components if not c.has_indel)
    singles = sum(1 for c in components if not c.has_ext)
    transitions = 0
    for comp in components:
        runs = comp.runs()
        if runs >= 2:
            transitions += runs
    return DistanceBreakdown(n + used_telomeres / 4.0, cycles_if,
                             transitions, singles)


# -- exhaustive oracle ------------------------------------------------------

@dataclass
class OracleResult:
    value: float  # maximized objective on the integer program's scale
    distance: int  # DCJ-indel distance of the optimal derived pair
    genome_a: DegenerateGenome
    genome_b: DegenerateGenome
    matching: Tuple[Tuple[str, str], ...]  # resolved marker pairing
    breakdown: DistanceBreakdown


def _family_matchings(diagram: MultiRelationalDiagram):
    """All resolved marker pairings under the maximum matching model."""
    by_a = diagram._markers_by_family(diagram.genome_a)
    by_b = diagram._markers_by_family(diagram.genome_b)
    per_family = []
    for family in sorted(set(by_a) | set(by_b)):
        ma = by_a.get(family, [])
        mb = by_b.get(family, [])
        m = min(len(ma), len(mb))
        options = []
        if m == 0:
            options.append(())
        elif len(ma) <= len(mb):
            for perm in itertools.permutations(mb, m):
                options.append(tuple(zip(ma, perm)))
        else:
            for perm in itertools.permutations(ma, m):
                options.append(tuple(zip(perm, mb)))
        per_family.append(options)
    for combo in itertools.product(*per_family):
        yield tuple(pair for fam_pairs in combo for pair in fam_pairs)


def _cap_partner(cap: Extremity) -> Extremity:
    """The capping telomere sharing a capping adjacency with this one."""
    k = int(cap.marker.split(".", 1)[1])
    partner = k + 1 if k % 2 == 1 else k - 1
    return Extremity(cap.species, "cap.%d" % partner, TELO)


def _telomere_matchings(ta: List[Extremity], tb: List[Extremity],
                        matched: Optional[Set[Extremity]] = None):
    """Perfect matchings between equally sized telomere lists.

    Capping telomere pairs are interchangeable, so caps whose partner is
    still unmatched are deduplicated; a cap whose partner is already matched
    is structurally distinct and kept apart.
    """
    if len(ta) != len(tb):
        return
    if not ta:
        yield ()
        return
    if matched is None:
        matched = set()
    seen_reprs = set()
    first = ta[0]
    for i, cand in enumerate(tb):
        if cand.marker.startswith("cap.") and _cap_partner(cand) not in matched:
            key = "free-cap"
        else:
            key = cand.name
        if key in seen_reprs:
            continue
        seen_reprs.add(key)
        rest_b = tb[:i] + tb[i + 1:]
        matched.add(first)
        matched.add(cand)
        for sub in _telomere_matchings(ta[1:], rest_b, matched):
            yield ((first, cand),) + sub
        matched.discard(first)
        matched.discard(cand)


def brute_force_distance(genome_a: DegenerateGenome, genome_b: DegenerateGenome,
                         families: FamilyAssignment,
                         alpha: float = 1.0, beta: float = 0.0,
                         max_extremities: int = 24) -> OracleResult:
    """Exhaustive optimum of the weighted degenerate DCJ-indel objective.

    Enumerates all derived genome pairs, resolved family pairings, capping
    telomere usages and telomere matchings, scoring each candidate on the
    same scale the integer program maximizes:

        (1-a-b) * sum of selected adjacency weights
        + a * (indel-free cycles - transitions/2 - circular singletons)
        - b * used telomeric extremities (capping ones included)

    The reported distance is the DCJ-indel distance of the best candidate.
    """
    total_ext = (len(genome_a.extremities()) + len(genome_b.extremities()))
    if total_ext > max_extremities:
        raise DiagramError("oracle scale: %d extremities > %d"
                           % (total_ext, max_extremities))
    diagram = MultiRelationalDiagram(genome_a, genome_b, families)

    caps_a, caps_b = diagram.caps_a, diagram.caps_b
    best: Optional[OracleResult] = None

    lookup = {(edge.kind, frozenset((edge.u, edge.v))): edge
              for edge in diagram.edges}
    derived_b_all = list(enumerate_derived(genome_b))
    matchings = list(_family_matchings(diagram))
    for sel_a in enumerate_derived(genome_a):
        telos_a = sorted({e for adj in sel_a for e in adj.ends if e.is_telomere})
        for sel_b in derived_b_all:
            telos_b = sorted({e for adj in sel_b for e in adj.ends
                              if e.is_telomere})
            deficit = len(telos_b) - len(telos_a)
            use_caps_a = use_caps_b = 0
            if deficit > 0:
                if deficit > len(caps_a):
                    continue  # not representable with available caps
                use_caps_a = deficit
            elif deficit < 0:
                if -deficit > len(caps_b):
                    continue
                use_caps_b = -deficit
            ta = telos_a + caps_a[:use_caps_a]
            tb = telos_b + caps_b[:use_caps_b]
            weight_sum = (sum(adj.weight for adj in sel_a)
                          + sum(adj.weight for adj in sel_b))
            for marker_pairs in matchings:
                base_edges = _oracle_edges(diagram, lookup, sel_a, sel_b,
                                           marker_pairs, use_caps_a,
                                           use_caps_b)
                if base_edges is None:
                    continue
                for telo_pairs in _telomere_matchings(ta, tb):
                    edges = list(base_edges)
                    for pa, pb in telo_pairs:
                        edges.append(lookup[(EXT, frozenset((pa, pb)))])
                    components = decompose(edges)
                    bd = breakdown_from_components(diagram.n, components,
                                                   len(ta) + len(tb))
                    value = ((1 - alpha - beta) * weight_sum
                             + alpha * (bd.indel_free_cycles
                                        - bd.transitions / 2
                                        - bd.circular_singletons)
                             - beta * (len(ta) + len(tb)))
                    if best is None or value > best.value + 1e-12:
                        best = OracleResult(
                            value, bd.distance,
                            DegenerateGenome(genome_a.species, sel_a),
                            DegenerateGenome(genome_b.species, sel_b),
                            marker_pairs, bd)
    if best is None:
        raise DiagramError("no derived genome pair exists; augment the inputs")
    return best


def _oracle_edges(diagram, lookup, sel_a, sel_b, marker_pairs, use_caps_a,
                  use_caps_b):
    """Adjacency, extremity and indel edges of one oracle candidate;
    ``lookup`` maps ``(kind, frozenset of ends)`` to the diagram edge."""
    edges = []
    for sel in (sel_a, sel_b):
        for adj in sel:
            edges.append(lookup[(ADJ, frozenset(adj.ends))])
    for caps, count in ((diagram.caps_a, use_caps_a),
                        (diagram.caps_b, use_caps_b)):
        for i in range(0, count, 2):
            edges.append(lookup[(ADJ, frozenset((caps[i], caps[i + 1])))])
    matched_a = {ma for ma, _ in marker_pairs}
    matched_b = {mb for _, mb in marker_pairs}
    for ma, mb in marker_pairs:
        for kind in (TAIL, HEAD):
            pair = frozenset((Extremity(diagram.genome_a.species, ma, kind),
                              Extremity(diagram.genome_b.species, mb, kind)))
            edges.append(lookup[(EXT, pair)])
    for genome, matched in ((diagram.genome_a, matched_a),
                            (diagram.genome_b, matched_b)):
        for marker in genome.markers():
            if marker in matched:
                continue
            pair = frozenset((Extremity(genome.species, marker, TAIL),
                              Extremity(genome.species, marker, HEAD)))
            edge = lookup.get((ID, pair))
            if edge is None:
                return None  # copy can neither match nor be deleted
            edges.append(edge)
    return edges

