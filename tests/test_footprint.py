"""Memory guards: the size of a built model, and the modules that importing
the library loads."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from spp_dcj.genomes import FamilyAssignment, Phylogeny
from spp_dcj.ilp import build_model

from util import build_genome, invert_segment, random_structure, seeded

ROOT = Path(__file__).resolve().parent.parent

# tracemalloc's current size after build_model on the pair below, measured
# with Python 3.11.7: 6,842,294 bytes with the row store (12,202,521 with a
# record and a term list per row), plus 10%
MODEL_BYTES_LIMIT = 7_526_000


def _resolved_pair():
    """Two circular 500-marker genomes, 20 inversions apart."""
    rng = seeded(500)
    markers = random_structure(rng, 500, linear_chance=0.0)[0][0]
    a = b = [(markers, False)]
    for _ in range(20):
        b = invert_segment(b, rng)
    return build_genome("A", a), build_genome("B", b)


def test_built_model_size():
    a, b = _resolved_pair()

    def build():
        return build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                           FamilyAssignment(), 0.5, 0.25)

    build()  # any lazy set-up happens outside the measurement
    tracemalloc.start()
    try:
        model = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(model.variables), len(model.rows)) == (12022, 18029)
    assert size < MODEL_BYTES_LIMIT, size


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
