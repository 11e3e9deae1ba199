"""End-to-end ancestral reconstruction on simulated data.
========================================================

Simulate genome evolution along a random phylogeny, blur the ancestors with
random candidate adjacencies, reconstruct every ancestral gene order by
solving the small parsimony ILP, and score the result against the simulated
truth.  Mirrors the command-line pipeline
simulate -> linearize -> build -> solve -> extract -> evaluate, using the
library API directly.
"""

import random

from spp_dcj.extract import decode, evaluate, validate
from spp_dcj.genomes import FamilyAssignment
from spp_dcj.ilp import build_model
from spp_dcj.linearize import augment
from spp_dcj.sim import SimConfig, add_noise, evolve
from spp_dcj.solver import solve

FAM = FamilyAssignment()

# 1. simulate: 4 leaves, 20 families, about one event per branch
config = SimConfig(families=20, leaves=4, scale=1.0, seed=7)
truth = evolve(config)
print("tree edges:", truth.tree.edges)
print("events simulated:", len(truth.events))

# 2. degrade the ancestors: leaves stay exact, internal nodes get random
#    extra adjacencies up to surfeit 1.5, then are augmented so a concrete
#    genome can always be selected
rng = random.Random(99)
leaves = set(truth.tree.leaves())
inputs = {}
for node, genome in sorted(truth.genomes.items()):
    if node in leaves:
        inputs[node] = genome
    else:
        noisy, report = add_noise(genome, 1.5, rng)
        inputs[node] = augment(noisy)
        print("  %s: +%d noise adjacencies" % (node, report.added))

# 3. build and solve the joint ILP; at this size the structural
#    branch-and-bound runs out of its work budget, and solve hands the
#    model to the bundled HiGHS backend (leaves 0: HiGHS answered)
model = build_model(truth.tree, inputs, FAM, alpha=0.5, beta=0.25)
print("\nILP: %d variables, %d constraints"
      % (len(model.kinds), len(model.rows)))
result = solve(model)
print("status %s, objective %.4f, branch-and-bound leaves %d"
      % (result.status, result.objective, result.leaves))

# 4. decode and score
decoded = decode(model, result.assignment)
validate(decoded, inputs)
total = sum(pd.distance for pd in decoded.distances)
print("summed DCJ-indel distance over the tree: %d" % total)

metrics = evaluate(decoded.genomes, truth.genomes, FAM)
print("\n%-10s %9s %9s" % ("node", "precision", "recall"))
for species in sorted(metrics):
    m = metrics[species]
    print("%-10s %9.4f %9.4f" % (species, m.precision, m.recall))
