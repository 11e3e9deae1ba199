"""Core data model: markers, extremities, adjacencies, genomes, phylogenies.

A genome is modelled purely as a set of adjacencies between marker
extremities.  Degenerate genomes relax the "each extremity used once"
condition for non-telomeric extremities and therefore represent a
superposition of candidate gene orders.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

TAIL = "t"
HEAD = "h"
TELO = "o"

KINDS = (TAIL, HEAD, TELO)

TELOMERE_PREFIX = "t."


class GenomeError(ValueError):
    """Raised on malformed genomes, adjacencies, or family assignments."""


class Extremity(namedtuple("Extremity", "species marker kind")):
    """Immutable ``(species, marker, kind)`` tuple, kind TAIL, HEAD or TELO.

    Equality, hashing and order are the tuple's own, so sets, dict keys and
    sorted lists of extremities run at C speed, and an extremity equals its
    plain tuple.  Build one through the constructor: ``_make`` and
    ``_replace`` skip its checks.
    """

    __slots__ = ()

    def __new__(cls, species: str, marker: str, kind: str):
        if kind not in KINDS:
            raise GenomeError("invalid extremity kind %r" % (kind,))
        is_telomere = (marker.startswith(TELOMERE_PREFIX)
                       or marker.startswith("cap."))
        if is_telomere != (kind == TELO):
            raise GenomeError(
                "telomere naming mismatch for %s_%s" % (marker, kind))
        return tuple.__new__(cls, (species, marker, kind))

    @property
    def is_telomere(self) -> bool:
        return self.kind == TELO

    @property
    def name(self) -> str:
        return "%s_%s" % (self.marker, self.kind)

    def mate(self) -> "Extremity":
        """The other extremity of the same marker."""
        if self.kind == TELO:
            raise GenomeError("telomere %s has a single extremity" % self.name)
        return Extremity(self.species, self.marker, HEAD if self.kind == TAIL else TAIL)

    def __repr__(self):
        return "%s:%s" % (self.species, self.name)


def parse_extremity(species: str, text: str) -> Extremity:
    """Parse an extremity token of the form ``<marker>_h``/``_t``/``t.<n>_o``."""
    if "_" not in text:
        raise GenomeError("malformed extremity %r" % (text,))
    marker, _, kind = text.rpartition("_")
    if kind not in KINDS or not marker:
        raise GenomeError("malformed extremity %r" % (text,))
    return Extremity(species, marker, kind)


class FamilyAssignment:
    """Maps non-telomeric markers to family identifiers.

    By default the family of marker ``F.k`` is the prefix before the first
    ``'.'``; an explicit mapping overrides this convention.  Telomeres are
    never assigned families.
    """

    def __init__(self, explicit: Optional[Mapping[str, str]] = None):
        self.explicit: Dict[str, str] = dict(explicit or {})

    def family(self, marker: str) -> str:
        if marker.startswith(TELOMERE_PREFIX) or marker.startswith("cap."):
            raise GenomeError("telomere %s has no family" % marker)
        if marker in self.explicit:
            return self.explicit[marker]
        return marker.split(".", 1)[0]

    def of(self, ext: Extremity) -> str:
        return self.family(ext.marker)


@dataclass(frozen=True)
class Adjacency:
    """Unordered pair of distinct extremities of the same species.

    Equality and hashing ignore the weight: a degenerate genome holds at most
    one adjacency per extremity pair.
    """

    ends: Tuple[Extremity, Extremity]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))
        a, b = self.ends
        if a == b:
            raise GenomeError("adjacency between an extremity and itself: %s" % (a,))
        if a.species != b.species:
            raise GenomeError("adjacency spans species %s and %s" % (a.species, b.species))
        if a.is_telomere and b.is_telomere:
            raise GenomeError("adjacency joins two telomeres: %s %s" % (a, b))
        if b < a:
            object.__setattr__(self, "ends", (b, a))
        if not math.isfinite(self.weight):
            raise GenomeError("adjacency %r has weight %r: need a finite "
                              "number" % (self, self.weight))

    @property
    def species(self) -> str:
        return self.ends[0].species

    def other(self, ext: Extremity) -> Extremity:
        a, b = self.ends
        return b if ext == a else a

    def sort_key(self):
        a, b = self.ends
        return (a.species, a.name, b.name)

    def __eq__(self, other):
        return isinstance(other, Adjacency) and self.ends == other.ends

    def __hash__(self):
        return hash(self.ends)

    def __repr__(self):
        a, b = self.ends
        return "{%s,%s}" % (a.name, b.name)


class DegenerateGenome:
    """A set of unique weighted adjacencies of one species.

    Invariants checked on construction: head/tail closure, telomeric
    extremities used at most once, no duplicate adjacencies.
    """

    def __init__(self, species: str, adjacencies: Iterable[Adjacency]):
        self.species = species
        adjs = sorted(set(adjacencies), key=Adjacency.sort_key)
        self.adjacencies: Tuple[Adjacency, ...] = tuple(adjs)
        self._index: Dict[Extremity, List[Adjacency]] = {}
        for adj in self.adjacencies:
            if adj.species != species:
                raise GenomeError(
                    "adjacency %r does not belong to species %s" % (adj, species))
            for ext in adj.ends:
                self._index.setdefault(ext, []).append(adj)
        self._validate()

    def _validate(self):
        for ext, incident in self._index.items():
            if ext.is_telomere and len(incident) > 1:
                raise GenomeError(
                    "telomere %s used in %d adjacencies" % (ext.name, len(incident)))
            if not ext.is_telomere and ext.mate() not in self._index:
                raise GenomeError("missing mate of extremity %s" % ext.name)

    # -- queries ----------------------------------------------------------

    @cached_property
    def _ordered(self) -> Tuple[Tuple[Extremity, ...], ...]:
        """All, non-telomeric and telomeric extremities, each sorted once:
        the genome does not change after ``__init__``."""
        ordered = sorted(self._index)
        return (tuple(ordered),
                tuple(e for e in ordered if not e.is_telomere),
                tuple(e for e in ordered if e.is_telomere))

    def extremities(self) -> List[Extremity]:
        return list(self._ordered[0])

    def non_telomeric_extremities(self) -> List[Extremity]:
        return list(self._ordered[1])

    def telomeres(self) -> List[Extremity]:
        return list(self._ordered[2])

    def markers(self) -> List[str]:
        return sorted({e.marker for e in self._index if not e.is_telomere})

    def incident(self, ext: Extremity) -> List[Adjacency]:
        return list(self._index.get(ext, ()))

    def __contains__(self, adj: Adjacency) -> bool:
        return any(cand == adj for cand in self._index.get(adj.ends[0], ()))

    def __len__(self) -> int:
        return len(self.adjacencies)

    def __eq__(self, other):
        return (isinstance(other, DegenerateGenome)
                and self.species == other.species
                and self.adjacencies == other.adjacencies)

    def __repr__(self):
        return "DegenerateGenome(%s, %d adjacencies)" % (self.species, len(self))

    def max_telomere_index(self) -> int:
        best = 0
        for ext in self._index:
            if ext.marker.startswith(TELOMERE_PREFIX):
                tail = ext.marker[len(TELOMERE_PREFIX):]
                if tail.isdigit():
                    best = max(best, int(tail))
        return best


def family_multiplicities(genome: DegenerateGenome,
                          f: FamilyAssignment) -> Dict[Tuple[str, str], int]:
    """Per (family, kind) extremity counts of a genome."""
    counts: Dict[Tuple[str, str], int] = {}
    for ext in genome.non_telomeric_extremities():
        key = (f.family(ext.marker), ext.kind)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_family_consistency(genome: DegenerateGenome, f: FamilyAssignment
                             ) -> Dict[Tuple[str, str], int]:
    """Tail and head counts of every family must agree; returns the
    ``family_multiplicities`` of the genome."""
    counts = family_multiplicities(genome, f)
    fams = {fam for fam, _ in counts}
    for fam in fams:
        if counts.get((fam, TAIL), 0) != counts.get((fam, HEAD), 0):
            raise GenomeError("inconsistent family %s in genome %s"
                              % (fam, genome.species))
    return counts


def format_number(value: float) -> str:
    """An integral value without a decimal point, any other as ``repr``:
    the weights of adjacency files and the numbers of LP files."""
    if value == int(value):
        return "%d" % int(value)
    return repr(value)


def connected_components(nodes: Sequence[Hashable],
                         pairs: Iterable[Tuple[Hashable, Hashable]]
                         ) -> List[List[Hashable]]:
    """Connected components of the graph on the distinct ``nodes`` whose
    edges are ``pairs``.

    Each component lists its nodes in ``nodes`` order, and the components
    come in the order of their first node.  Pair ends are matched to nodes
    by equality, so they need not be the same objects.
    """
    index = {node: i for i, node in enumerate(nodes)}
    parent = list(range(len(index)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            parent[ra] = rb
    components: Dict[int, List[Hashable]] = {}
    for node, i in index.items():
        components.setdefault(find(i), []).append(node)
    return list(components.values())


def surfeit(genome: DegenerateGenome) -> float:
    """2*|adjacencies| / |non-telomeric extremities|."""
    n_ext = len(genome.non_telomeric_extremities())
    if n_ext == 0:
        raise GenomeError("empty genome")
    return 2.0 * len(genome.adjacencies) / n_ext


def is_genome(g: DegenerateGenome) -> bool:
    """True iff every extremity occurs in exactly one adjacency."""
    return all(len(g.incident(ext)) == 1 for ext in g.extremities())


def is_derived(child: DegenerateGenome, parent: DegenerateGenome) -> bool:
    """True iff child is a genome, a subset of parent, and covers exactly
    parent's non-telomeric extremities."""
    if not is_genome(child):
        return False
    for adj in child.adjacencies:
        if adj not in parent:
            return False
    return child.non_telomeric_extremities() == parent.non_telomeric_extremities()


def enumerate_derived(genome: DegenerateGenome):
    """Yield all derived genomes as frozensets of adjacencies."""
    targets = genome.non_telomeric_extremities()

    def search(pos: int, used: Set[Extremity], chosen: List[Adjacency]):
        while pos < len(targets) and targets[pos] in used:
            pos += 1
        if pos == len(targets):
            yield frozenset(chosen)
            return
        ext = targets[pos]
        for adj in genome.incident(ext):
            other = adj.other(ext)
            if other in used:
                continue
            used.add(ext)
            used.add(other)
            chosen.append(adj)
            yield from search(pos + 1, used, chosen)
            chosen.pop()
            used.discard(ext)
            used.discard(other)

    yield from search(0, set(), [])


class Phylogeny:
    """Connected graph over species, each node carrying a degenerate genome."""

    def __init__(self, edges: Iterable[Tuple[str, str]]):
        norm = sorted({tuple(sorted(e)) for e in edges})
        for a, b in norm:
            if a == b:
                raise GenomeError("self-loop in phylogeny at %s" % a)
        self.edges: Tuple[Tuple[str, str], ...] = tuple(norm)
        nodes: Set[str] = set()
        for a, b in self.edges:
            nodes.update((a, b))
        self.nodes: Tuple[str, ...] = tuple(sorted(nodes))
        if len(connected_components(self.nodes, self.edges)) > 1:
            raise GenomeError("phylogeny is not connected")

    def leaves(self) -> List[str]:
        deg: Dict[str, int] = {n: 0 for n in self.nodes}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return [n for n in self.nodes if deg[n] == 1]
