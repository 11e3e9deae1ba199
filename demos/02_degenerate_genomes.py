"""Degenerate genomes, surfeit, and linearization.
=================================================

A degenerate genome allows non-telomeric extremities to take part in several
adjacencies at once; it is a superposition of candidate gene orders.  The
"surfeit" measures how over-specified it is, and `linearize.augment` adds
weight-0 telomeres so that at least one concrete genome can be carved out of
every component.
"""

from spp_dcj.genomes import (Adjacency, DegenerateGenome, Extremity, HEAD,
                             TAIL, enumerate_derived, is_derived, is_genome,
                             surfeit)
from spp_dcj.linearize import (augment, classify_components,
                               find_nonlinearizable_component)


def ext(marker, kind):
    return Extremity("A", marker, kind)


# two markers, circular order, plus one conflicting extra adjacency
g = DegenerateGenome("A", [
    Adjacency((ext("1.1", HEAD), ext("2.1", TAIL)), 1.0),
    Adjacency((ext("2.1", HEAD), ext("1.1", TAIL)), 1.0),
    Adjacency((ext("1.1", HEAD), ext("2.1", HEAD)), 0.4),   # conflict
])
print("adjacencies:", list(g.adjacencies))
print("surfeit: %.2f" % surfeit(g))

print("\nderived genomes (conflict-free selections):")
for selection in enumerate_derived(g):
    derived = DegenerateGenome("A", selection)
    assert is_genome(derived) and is_derived(derived, g)
    print(" ", sorted(str(adj) for adj in selection))

# a component that admits no derived genome: a triangle uses an odd number
# of extremities, so one of them is always left uncovered
triangle = DegenerateGenome("A", [
    Adjacency((ext("1.1", TAIL), ext("1.1", HEAD)), 1.0),
    Adjacency((ext("1.1", HEAD), ext("2.1", TAIL)), 1.0),
    Adjacency((ext("1.1", TAIL), ext("2.1", TAIL)), 1.0),
    Adjacency((ext("2.1", HEAD), ext("3.1", TAIL)), 1.0),
    Adjacency((ext("3.1", TAIL), ext("3.1", HEAD)), 1.0),
])
bad = find_nonlinearizable_component(triangle)
print("\nnon-linearizable component:",
      [e.name for e in bad.component] if bad else None)

fixed = augment(triangle)
print("after augmentation: %d -> %d adjacencies, linearizable: %s"
      % (len(triangle), len(fixed),
         find_nonlinearizable_component(fixed) is None))
print("component classes after augmentation:")
for cls in classify_components(fixed):
    print("  %-20s %d extremities" % (cls.kind, len(cls.component)))
