"""Shared helpers of the benchmark: paths, digests, the solver shim and the
genome builders used by the corpus generator and the runner."""

from __future__ import annotations

import hashlib
import json
import os
import random
import stat
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(HERE, "corpus")
MANIFEST = "MANIFEST.json"
# scratch space of runs and traces; ignored by git
WORK = os.path.join(ROOT, ".perfbench_work")

# alpha/beta mixtures of the criterion-3 oracle pairs, cycled per pair
MIXTURES = ((1.0, 0.0), (0.5, 0.0), (0.5, 0.25))
# mixture of the simulated edges (the CLI default) and of the resolved pairs
EDGE_MIXTURE = (0.5, 0.25)
DISTANCE_MIXTURE = (1.0, 0.0)

TOL = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot run: missing sources or a corrupt corpus."""


class CommandFailed(RuntimeError):
    """An ``spp-dcj`` subcommand exited non-zero or left no usable output."""


def use_sources():
    """Put the repository's ``src`` first on ``sys.path``."""
    if not os.path.isdir(os.path.join(SRC, "spp_dcj")):
        raise BenchError("no spp_dcj sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def load_manifest(corpus_dir):
    """Read a corpus manifest and refuse it unless every digest matches."""
    path = os.path.join(corpus_dir, MANIFEST)
    if not os.path.isfile(path):
        raise BenchError("no corpus manifest at %s" % path)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for rel, expected in sorted(manifest["files"].items()):
        full = os.path.join(corpus_dir, rel)
        if not os.path.isfile(full):
            raise BenchError("corpus file %s is missing" % rel)
        if sha256(full) != expected:
            raise BenchError("corpus file %s does not match its sha256 digest"
                             % rel)
    return manifest


def confine_temp(workdir):
    """Keep temporary files of this process and its children in workdir."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp
    os.environ["TMPDIR"] = tmp


def install_solver_shim(workdir):
    """Make ``spp-dcj-milp`` resolvable for this process and its children.

    ``solver.solve`` dispatches large models to the default command
    ``spp-dcj-milp {lp} {sol}``; the console script is not installed when
    the package runs from ``src``, so a shim on ``PATH`` runs the bundled
    backend with this interpreter.  ``SPP_DCJ_SOLVER`` is removed because
    ``solve`` would otherwise send every model to the external path.
    """
    bindir = os.path.join(workdir, "bin")
    os.makedirs(bindir, exist_ok=True)
    shim = os.path.join(bindir, "spp-dcj-milp")
    with open(shim, "w", encoding="utf-8") as handle:
        handle.write('#!/bin/sh\nPYTHONPATH="%s" exec "%s" '
                     '-m spp_dcj.milp_cli "$@"\n' % (SRC, sys.executable))
    os.chmod(shim, os.stat(shim).st_mode | stat.S_IXUSR)
    os.environ["PATH"] = bindir + os.pathsep + os.environ.get("PATH", "")
    os.environ.pop("SPP_DCJ_SOLVER", None)


# -- the staged CLI pipeline ------------------------------------------------

def run_cli(*argv):
    """Run ``spp-dcj`` in-process (looked up at call time, so a traced run
    sees it)."""
    from spp_dcj import cli
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise CommandFailed("spp-dcj %s exited %d" % (argv[0], rc))


def header_objective(sol_path):
    """The objective value a solver wrote in a solution file's header."""
    with open(sol_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") and "objective" in line.lower():
                return float(line.split("=", 1)[1])
    raise CommandFailed("solution %s has no objective header" % sol_path)


def evaluation_scores(metrics_path, leaves):
    """Scores of an ``spp-dcj evaluate`` report: the mean precision and
    recall over all species (what the acceptance floors bound) and the
    lowest over the ancestors, the species not in ``leaves``."""
    rows = []
    with open(metrics_path, "r", encoding="utf-8") as handle:
        for line in handle:
            cols = line.rstrip("\n").split("\t")
            if not line.startswith("#") and cols[0] != "overall":
                rows.append((cols[0], float(cols[4]), float(cols[5])))
    inner = [row for row in rows if row[0] not in leaves]
    return {"precision_mean": sum(row[1] for row in rows) / len(rows),
            "recall_mean": sum(row[2] for row in rows) / len(rows),
            "precision_min": min(row[1] for row in inner),
            "recall_min": min(row[2] for row in inner)}


# -- genome builders --------------------------------------------------------

def _ends(species, marker, sign):
    """(left, right) extremities of a signed marker in reading direction."""
    from spp_dcj.genomes import HEAD, TAIL, Extremity
    tail = Extremity(species, marker, TAIL)
    head = Extremity(species, marker, HEAD)
    return (tail, head) if sign > 0 else (head, tail)


def chromosome_adjacencies(species, markers, circular, telomere_base=0):
    """Weight-1 adjacencies of one chromosome given as ``[(marker, sign)]``;
    a linear one gets telomeres ``t.<base+1>`` and ``t.<base+2>``."""
    from spp_dcj.genomes import TELO, Adjacency, Extremity
    ends = [_ends(species, m, s) for m, s in markers]
    adjs = [Adjacency((ends[i][1], ends[i + 1][0]), 1.0)
            for i in range(len(ends) - 1)]
    if circular:
        adjs.append(Adjacency((ends[-1][1], ends[0][0]), 1.0))
    else:
        first = Extremity(species, "t.%d" % (telomere_base + 1), TELO)
        last = Extremity(species, "t.%d" % (telomere_base + 2), TELO)
        adjs.append(Adjacency((first, ends[0][0]), 1.0))
        adjs.append(Adjacency((ends[-1][1], last), 1.0))
    return adjs


def resolved_pair(markers, inversions, seed):
    """Linear genome A of ``markers`` families and B = A after ``inversions``
    random segment inversions; the DCJ distance is at most ``inversions``."""
    from spp_dcj.genomes import DegenerateGenome
    rng = random.Random(seed)
    order = [("%d.1" % f, 1) for f in range(1, markers + 1)]
    moved = list(order)
    for _ in range(inversions):
        i, j = sorted(rng.sample(range(markers + 1), 2))
        moved[i:j] = [(m, -s) for m, s in reversed(moved[i:j])]
    return (DegenerateGenome("A", chromosome_adjacencies("A", order, False)),
            DegenerateGenome("B", chromosome_adjacencies("B", moved, False)))


def tiny_degenerate_pair(rng):
    """Degenerate pair small enough for ``diagram.brute_force_distance``.

    Each side is a random resolved genome of at most four markers from one
    or two families (at most two copies each), optionally split into a
    linear and a circular chromosome, with random weights and up to three
    extra random adjacencies kept within surfeit 2.0.
    """
    from spp_dcj.genomes import Adjacency, DegenerateGenome
    genomes = []
    for species in ("A", "B"):
        markers = ["%d.%d" % (f, c) for f in range(1, rng.randint(1, 2) + 1)
                   for c in range(1, rng.randint(1, 2) + 1)][:4]
        rng.shuffle(markers)
        signed = [(m, 1 if rng.random() < 0.5 else -1) for m in markers]
        linear = rng.random() < 0.5
        if linear and len(signed) >= 2 and rng.random() < 0.3:
            cut = rng.randrange(1, len(signed))
            chromosomes = [(signed[:cut], False), (signed[cut:], True)]
        else:
            chromosomes = [(signed, not linear)]
        adjs = []
        for i, (chrom, circular) in enumerate(chromosomes):
            adjs += chromosome_adjacencies(species, chrom, circular, 2 * i)
        adjs = [Adjacency(a.ends, round(rng.random(), 3)) for a in adjs]
        base = DegenerateGenome(species, adjs)
        inner = base.non_telomeric_extremities()
        limit = int(2.0 * len(inner) // 2)
        seen = set(adjs)
        for _ in range(rng.randint(0, 3)):
            if len(adjs) >= limit or len(inner) < 2:
                break
            a, b = rng.sample(inner, 2)
            extra = Adjacency((a, b), round(rng.random(), 3))
            if a.marker == b.marker or extra in seen:
                continue
            seen.add(extra)
            adjs.append(extra)
        genomes.append(DegenerateGenome(species, adjs))
    return genomes[0], genomes[1]
