"""Augment degenerate genomes with telomeric adjacencies to guarantee that a
derived genome exists.

Connected components of the adjacency graph that are even-sized cycles,
paths, or cliques always admit a derived sub-genome and are left untouched.
Every other component gets a private weight-0 telomere for each of its
non-telomeric extremities that is not already next to a telomere; afterwards
matching every extremity to its telomere is a witness derived genome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .genomes import (Adjacency, DegenerateGenome, Extremity, TELO,
                      TELOMERE_PREFIX, connected_components,
                      enumerate_derived)

EVEN_CYCLE = "even-cycle"
EVEN_PATH = "even-path"
EVEN_CLIQUE = "even-clique"
NEEDS_AUGMENTATION = "needs-augmentation"


@dataclass
class ComponentClass:
    component: Tuple[Extremity, ...]
    kind: str

    @property
    def exempt(self) -> bool:
        return self.kind != NEEDS_AUGMENTATION


def _classify(g: DegenerateGenome, comp: List[Extremity]) -> str:
    edges = {adj for node in comp for adj in g.incident(node)}
    if len(comp) % 2 != 0:
        return NEEDS_AUGMENTATION
    degrees = [len(g.incident(node)) for node in comp]
    n, m = len(comp), len(edges)
    if all(d == 2 for d in degrees) and m == n:
        return EVEN_CYCLE
    if m == n - 1 and max(degrees) <= 2:
        return EVEN_PATH
    if m == n * (n - 1) // 2 and all(d == n - 1 for d in degrees):
        return EVEN_CLIQUE
    return NEEDS_AUGMENTATION


def classify_components(g: DegenerateGenome) -> List[ComponentClass]:
    """Partition the extremities of g into connected components and label each."""
    pairs = (adj.ends for adj in g.adjacencies)
    return [ComponentClass(tuple(comp), _classify(g, comp))
            for comp in connected_components(g.extremities(), pairs)]


def augment(g: DegenerateGenome) -> DegenerateGenome:
    """Return g plus weight-0 telomeric adjacencies making it linearizable."""
    needy: List[Extremity] = []
    for cls in classify_components(g):
        if cls.exempt:
            continue
        for ext in cls.component:
            if ext.is_telomere:
                continue
            if any(adj.other(ext).is_telomere for adj in g.incident(ext)):
                continue
            needy.append(ext)
    if not needy:
        return g
    next_index = g.max_telomere_index() + 1
    extra = []
    for ext in sorted(needy):
        telo = Extremity(g.species, "%s%d" % (TELOMERE_PREFIX, next_index), TELO)
        next_index += 1
        extra.append(Adjacency((ext, telo), 0.0))
    return DegenerateGenome(g.species, list(g.adjacencies) + extra)


def _component_coverable(g: DegenerateGenome,
                         comp: Tuple[Extremity, ...]) -> bool:
    """Matching check: can the component's non-telomeric extremities be
    covered by disjoint adjacencies?

    Telomeric adjacencies let an extremity be covered alone, modelled as a
    weight-1 pendant edge; adjacencies between two non-telomeric extremities
    cover both ends, weight 2.  The component is coverable iff a maximum
    weight matching reaches the number of non-telomeric extremities.
    """
    import networkx as nx

    targets = [e for e in comp if not e.is_telomere]
    graph = nx.Graph()
    graph.add_nodes_from(targets)
    for ext in targets:
        for adj in g.incident(ext):
            other = adj.other(ext)
            if other.is_telomere:
                graph.add_edge(ext, ("pendant", ext), weight=1)
            elif ext < other:
                graph.add_edge(ext, other, weight=2)
    matching = nx.max_weight_matching(graph, maxcardinality=False)
    covered = sum(graph[u][v]["weight"] for u, v in matching)
    return covered == len(targets)


def find_nonlinearizable_component(g: DegenerateGenome
                                   ) -> "ComponentClass | None":
    """First component admitting no derived sub-genome, or None.

    Exempt component classes are accepted outright; the rest are checked by
    a maximum matching (derived genomes decompose per component).
    """
    for cls in classify_components(g):
        if cls.exempt:
            continue
        if not _component_coverable(g, cls.component):
            return cls
    return None


def is_linearizable_bruteforce(g: DegenerateGenome, limit: int = 16) -> bool:
    """Exhaustively search for a derived genome; only for small instances."""
    if len(g.non_telomeric_extremities()) > limit:
        raise ValueError("brute-force linearizability limited to %d extremities" % limit)
    return next(enumerate_derived(g), None) is not None
