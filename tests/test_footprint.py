"""Memory guards: the size of a built model, the peak of building and
solving it, of writing its LP and of the bundled solve, and the modules
that importing the library loads."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from spp_dcj import milp_cli
from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import build_model, write_lp
from spp_dcj.sim import SimConfig, add_noise, evolve
from spp_dcj.solver import solve_internal

from util import build_genome, invert_segment, random_structure, seeded

ROOT = Path(__file__).resolve().parent.parent

# tracemalloc's current size after build_model on the pair below, measured
# with Python 3.11.7: 4,854,215 bytes with no name strings and no variable
# records (7,262,462 with them), plus 10%
MODEL_BYTES_LIMIT = 5_340_000
# tracemalloc's peak over build_model and solve_internal on the same pair,
# the phase that sets the benchmark's peak on its large pairs: 8,262,323
# bytes (10,670,626 with name strings and variable records), plus 10%
SOLVE_PEAK_BYTES_LIMIT = 9_089_000
# tracemalloc's peak over write_lp, LP and idmap, on the pair's model,
# measured with Python 3.11.7: 3,350,597 bytes with both files streamed in
# chunks of 1024 lines (11,013,479 with every line held, then joined into
# the file's text), plus 10%
WRITE_PEAK_BYTES_LIMIT = 3_686_000
# tracemalloc's peak over milp_cli.parse_lp and milp_cli.solve on the
# simulated tree model below, with Python 3.11.7 and numpy 2.4: 1,393,496
# bytes with the problem in typed arrays and the full matrix freed before
# HiGHS runs (3,859,615 with Python lists and the full matrix kept), plus
# 10%
BUNDLED_PEAK_BYTES_LIMIT = 1_533_000


def _resolved_pair():
    """Two circular 500-marker genomes, 20 inversions apart."""
    rng = seeded(500)
    markers = random_structure(rng, 500, linear_chance=0.0)[0][0]
    a = b = [(markers, False)]
    for _ in range(20):
        b = invert_segment(b, rng)
    return build_genome("A", a), build_genome("B", b)


def _builder():
    a, b = _resolved_pair()

    def build():
        return build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                           FamilyAssignment(), 0.5, 0.25)

    solve_internal(build())  # any lazy set-up happens outside the measure
    return build


def test_built_model_size():
    build = _builder()
    tracemalloc.start()
    try:
        model = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(model.kinds), len(model.rows)) == (12022, 18029)
    assert size < MODEL_BYTES_LIMIT, size


def test_build_and_solve_peak():
    build = _builder()
    tracemalloc.start()
    try:
        result = solve_internal(build())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "optimal"
    assert peak < SOLVE_PEAK_BYTES_LIMIT, peak


def test_write_lp_peak(tmp_path):
    model = _builder()()
    lp, idmap = tmp_path / "m.lp", tmp_path / "m.tsv"
    write_lp(model, lp, idmap)  # any lazy set-up happens outside the measure
    tracemalloc.start()
    try:
        write_lp(model, lp, idmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WRITE_PEAK_BYTES_LIMIT, peak


def _tree_lp(tmp_path):
    """The LP of a simulated 30-family, 4-leaf tree, its ancestors noisy at
    surfeit 1.2, as ``spp-dcj simulate`` and ``build`` make it."""
    sim = evolve(SimConfig(families=30, leaves=4, seed=11))
    rng = random.Random(12)
    leaves = set(sim.tree.leaves())
    genomes = {species: sim.genomes[species] if species in leaves
               else add_noise(sim.genomes[species], 1.2, rng)[0]
               for species in sorted(sim.genomes)}
    lp = tmp_path / "model.lp"
    write_lp(build_model(sim.tree, genomes, FamilyAssignment(), 0.5, 0.25),
             lp)
    return lp


def test_bundled_parse_and_solve_peak(tmp_path):
    lp = _tree_lp(tmp_path)
    milp_cli.solve(milp_cli.parse_lp(lp))  # scipy loads outside the measure
    tracemalloc.start()
    try:
        # solve holds the only reference to the parsed problem, as in
        # milp_cli.solve_file
        result = milp_cli.solve(milp_cli.parse_lp(lp))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.success
    assert len(result.x) == 4088
    assert peak < BUNDLED_PEAK_BYTES_LIMIT, peak


def test_library_import_leaves_numpy_out():
    # importing numpy alone adds about 11 MB of resident memory; only the
    # bundled HiGHS backend (milp_cli) needs it
    code = ("import sys\n"
            "import spp_dcj.cli, spp_dcj.extract, spp_dcj.ilp, spp_dcj.solver\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
