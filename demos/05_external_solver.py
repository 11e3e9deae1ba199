"""Plugging in an external MILP solver.
======================================

Models serialize to LP files, so any MILP solver can do the heavy lifting.
The bridge runs a command template with {lp}/{sol} placeholders and reads a
solution file of "<variable> <value>" lines; the template comes from the
SPP_DCJ_SOLVER environment variable.  Unset, it is `solver.DEFAULT_COMMAND`:
`spp-dcj solve --internal {lp} -o {sol}`, the bundled HiGHS, run by this
interpreter in a child process.
"""

from spp_dcj.diagram import brute_force_distance
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import build_model
from spp_dcj.sim import SimConfig, evolve
from spp_dcj.solver import solve_external, solve_internal

FAM = FamilyAssignment()

truth = evolve(SimConfig(families=5, leaves=2, scale=1.0, seed=3))
# single phylogeny edge between the two leaves
a, b = (truth.genomes[leaf] for leaf in truth.tree.leaves())
tree = Phylogeny([(a.species, b.species)])
genomes = {a.species: a, b.species: b}
model = build_model(tree, genomes, FAM, alpha=0.5, beta=0.25)

# internal: exact branch-and-bound over the structural binaries
internal = solve_internal(model)
print("internal : %-8s objective %.4f (%.3fs)"
      % (internal.status, internal.objective, internal.wall_time))

# external: the bundled HiGHS adapter, invoked like any third-party solver.
# A Gurobi user would set e.g.
#   SPP_DCJ_SOLVER="gurobi_cl ResultFile={sol} {lp}"
external = solve_external(build_model(tree, genomes, FAM,
                                      alpha=0.5, beta=0.25))
print("external : %-8s objective %.4f (%.3fs)"
      % (external.status, external.objective, external.wall_time))

assert abs(internal.objective - external.objective) < 1e-6
print("\nboth backends agree to 1e-6")

# tiny instances can also be checked against the exhaustive oracle
(a, b), = [tuple(genomes[n] for n in tree.nodes[:2])]
oracle = brute_force_distance(a, b, FAM, alpha=0.5, beta=0.25)
print("oracle   : objective %.4f, distance %d"
      % (oracle.value, oracle.distance))
