"""From genome pair to integer program.
======================================

Each phylogeny edge contributes a multi-relational diagram: adjacency edges
per genome, extremity edges between same-family copies across genomes, and
indel edges for surplus copies.  The ILP selects one derived genome per node
and one cycle decomposition per edge; its objective mixes adjacency weights,
the (negated) DCJ-indel distances, and a telomere penalty.
"""

import os
import tempfile

from spp_dcj.diagram import ADJ, EXT, ID, MultiRelationalDiagram
from spp_dcj.extract import decode
from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity,
                             FamilyAssignment, HEAD, Phylogeny, TAIL)
from spp_dcj.ilp import build_model, write_lp
from spp_dcj.solver import solve_internal

FAM = FamilyAssignment()


def ext(species, marker, kind):
    return Extremity(species, marker, kind)


# genome A: circular [1, 2] with a conflicting extra adjacency
a = DegenerateGenome("A", [
    Adjacency((ext("A", "1.1", HEAD), ext("A", "2.1", TAIL)), 1.0),
    Adjacency((ext("A", "2.1", HEAD), ext("A", "1.1", TAIL)), 1.0),
    Adjacency((ext("A", "1.1", TAIL), ext("A", "2.1", TAIL)), 0.3),
])
# genome B: circular [1, -2]
b = DegenerateGenome("B", [
    Adjacency((ext("B", "1.1", HEAD), ext("B", "2.1", HEAD)), 1.0),
    Adjacency((ext("B", "2.1", TAIL), ext("B", "1.1", TAIL)), 1.0),
])

diagram = MultiRelationalDiagram(a, b, FAM)
counts = {ADJ: 0, EXT: 0, ID: 0}
for edge in diagram.edges:
    counts[edge.kind] += 1
print("diagram: %d nodes, %d adjacency / %d extremity / %d indel edges"
      % (len(diagram.nodes), counts[ADJ], counts[EXT], counts[ID]))
print("shared marker count n =", diagram.n)

tree = Phylogeny([("A", "B")])
model = build_model(tree, {"A": a, "B": b}, FAM, alpha=0.5, beta=0.25)
print("\nILP: %d variables, %d constraints"
      % (len(model.kinds), len(model.rows)))
tmp = tempfile.gettempdir()
write_lp(model, os.path.join(tmp, "demo_model.lp"),
         os.path.join(tmp, "demo_idmap.tsv"))
print("LP written to %s" % os.path.join(tmp, "demo_model.lp"))

result = solve_internal(model)
print("\nsolved: %s, objective %.4f" % (result.status, result.objective))
decoded = decode(model, result.assignment)
for species, genome in sorted(decoded.genomes.items()):
    print("  %s keeps %s" % (species,
                             sorted(str(adj) for adj in genome.adjacencies)))
pd = decoded.distances[0]
print("  DCJ-indel distance along the edge: %d" % pd.distance)
