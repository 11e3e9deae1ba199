"""File formats: adjacency TSV, phylogeny edge lists, family maps, reports.

Adjacency file: ``species<TAB>ext1<TAB>ext2<TAB>weight`` with extremity
syntax ``<marker>_h``, ``<marker>_t``, ``t.<n>_o`` and a finite weight
(default 1), which ``Adjacency`` checks.  Every ``GenomeError`` is
reported as a ``ParseError`` with its line.  Lines starting with ``#`` are
comments.  Canonical sort is lexicographic by ``(species, ext1, ext2)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from .genomes import (Adjacency, DegenerateGenome, FamilyAssignment,
                      GenomeError, Phylogeny, format_number, parse_extremity)


class ParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path = path
        self.lineno = lineno


def _rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def read_adjacencies(path) -> Dict[str, DegenerateGenome]:
    """Read an adjacency TSV into one degenerate genome per species.

    An adjacency listed twice, in either orientation, is a ``ParseError``.
    """
    per_species: Dict[str, List[Adjacency]] = {}
    first_line: Dict[Adjacency, int] = {}
    for lineno, cols in _rows(path):
        if len(cols) not in (3, 4):
            raise ParseError(path, lineno, "expected 3 or 4 columns, got %d" % len(cols))
        species, e1, e2 = cols[0], cols[1], cols[2]
        weight = 1.0
        if len(cols) == 4:
            try:
                weight = float(cols[3])
            except ValueError:
                raise ParseError(path, lineno, "bad weight %r: need a finite "
                                 "number" % cols[3])
        try:
            adj = Adjacency((parse_extremity(species, e1),
                             parse_extremity(species, e2)), weight)
        except GenomeError as exc:
            raise ParseError(path, lineno, str(exc))
        first = first_line.setdefault(adj, lineno)
        if first != lineno:
            raise ParseError(path, lineno, "adjacency %s %r repeats line %d"
                             % (species, adj, first))
        per_species.setdefault(species, []).append(adj)
    genomes = {}
    for species, adjs in per_species.items():
        try:
            genomes[species] = DegenerateGenome(species, adjs)
        except GenomeError as exc:
            raise ParseError(path, 0, "genome %s: %s" % (species, exc))
    return genomes


def write_adjacencies(genomes: Mapping[str, DegenerateGenome], path):
    """Write genomes in canonical order: by species, then in each genome's
    own (canonical) adjacency order."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for species in sorted(genomes):
            for adj in genomes[species].adjacencies:
                a, b = adj.ends
                handle.write("%s\t%s\t%s\t%s\n" % (
                    species, a.name, b.name, format_number(adj.weight)))


def read_tree(path) -> Phylogeny:
    """Read a TSV edge list ``nodeA<TAB>nodeB``."""
    edges = []
    for lineno, cols in _rows(path):
        if len(cols) != 2:
            raise ParseError(path, lineno, "expected 2 columns, got %d" % len(cols))
        edges.append((cols[0], cols[1]))
    try:
        return Phylogeny(edges)
    except GenomeError as exc:
        raise ParseError(path, 0, str(exc))


def write_tree(tree: Phylogeny, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for a, b in tree.edges:
            handle.write("%s\t%s\n" % (a, b))


def read_family_map(path) -> FamilyAssignment:
    """Read an optional ``marker<TAB>family`` map."""
    mapping = {}
    for lineno, cols in _rows(path):
        if len(cols) != 2:
            raise ParseError(path, lineno, "expected 2 columns, got %d" % len(cols))
        mapping[cols[0]] = cols[1]
    return FamilyAssignment(mapping)


def write_tsv(path, header: Iterable[str], rows: Iterable[Tuple]):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("#" + "\t".join(header) + "\n")
        for row in rows:
            handle.write("\t".join(str(col) for col in row) + "\n")
