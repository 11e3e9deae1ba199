"""The four workloads: their items, warm-up items and per-item checks.

An item is one instance, pair or simulation.  ``run`` does the timed work
and returns what ``check`` needs.  ``check`` runs untimed, raises
``Failure`` with a reason when the output is wrong and otherwise returns the
item's quality scores (lowest per-genome precision and recall against
truth), or ``None`` when the item has no truth to score against.  Program
functions are called through their modules so that a traced run sees them.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional

from spp_dcj import cli, diagram, extract, ilp, io, sim, solver
from spp_dcj.genomes import FamilyAssignment, Phylogeny, is_derived

from common import (DISTANCE_MIXTURE, EDGE_MIXTURE, MIXTURES, TOL,
                    evaluation_scores, header_objective, run_cli,
                    tiny_degenerate_pair)

FAMILIES = FamilyAssignment()

TINY_PAIRS = 264
SIM_PARAMS = dict(leaves=10, scale=3, surfeit=2.0, adversarial=1.0)
# (families, simulations) of the simulate workload: two sizes 2x apart show
# add_noise's quadratic growth, and several items of each keep one slow
# item from deciding the run's times.  The simulation seeds are fixed
# (1, 2, ...): add_noise's cost tracks the number of extremities, so
# seed-to-seed size differences would dominate the run-to-run spread.
SIM_SIZES = ((100, 4), (200, 2))
QUICK_SIM_SIZES = ((60, 2),)


class Failure(Exception):
    """An item produced a wrong or incomplete result."""


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[dict]]


def _expect(value, reference, what):
    if abs(value - reference) > TOL:
        raise Failure("%s objective %r differs from %r" % (what, value,
                                                           reference))


def _scores(predicted, truth, species):
    metrics = extract.evaluate(predicted, truth, FAMILIES)
    return {"precision": min(metrics[sp].precision for sp in species),
            "recall": min(metrics[sp].recall for sp in species)}


# -- reconstruct and hard: the staged CLI pipeline ---------------------------

def pipeline_item(corpus_dir, entry, workdir):
    """build -> solve --internal -> extract (with idmap) -> evaluate."""
    src = os.path.join(corpus_dir, entry["dir"])
    tree = os.path.join(src, "tree.tsv")
    adjs = os.path.join(src, "degenerate.tsv")
    truth = os.path.join(src, "truth.tsv")
    out = os.path.join(workdir, entry["name"])
    os.makedirs(out, exist_ok=True)
    lp, sol = os.path.join(out, "model.lp"), os.path.join(out, "model.sol")
    idmap = os.path.join(out, "idmap.tsv")
    genomes = os.path.join(out, "genomes.tsv")
    metrics = os.path.join(out, "metrics.tsv")

    def run():
        run_cli("build", tree, adjs, "-o", lp, "--idmap", idmap)
        run_cli("solve", lp, "-o", sol, "--internal")
        # extract audits the structural objective against the header
        run_cli("extract", sol, tree, adjs, "--idmap", idmap,
                "--genomes-out", genomes,
                "--distances-out", os.path.join(out, "distances.tsv"))
        run_cli("evaluate", genomes, truth, "-o", metrics)

    def check(_):
        _expect(header_objective(sol), entry["optimum"], "solution")
        scores = evaluation_scores(metrics, set(io.read_tree(tree).leaves()))
        for label in ("precision", "recall"):
            mean = scores[label + "_mean"]
            if mean < entry["floor"]:
                raise Failure("mean %s %.4f below floor %.2f"
                              % (label, mean, entry["floor"]))
        return {"precision": scores["precision_min"],
                "recall": scores["recall_min"]}

    return Item(entry["name"], run, check)


# -- pairs: the library path -------------------------------------------------

def library_item(name, a, b, mixture, reference, truth=None,
                 max_distance=None):
    """build_model -> solver.solve (unmodified dispatch) -> decode -> audit.

    ``reference`` is the expected optimum, or a callable computing it
    (the exhaustive oracle), evaluated once in the first check."""
    tree = Phylogeny([(a.species, b.species)])
    genomes = {a.species: a, b.species: b}
    expected = [reference]

    def run():
        model = ilp.build_model(tree, genomes, FAMILIES, *mixture)
        result = solver.solve(model)
        decoded = extract.decode(model, result.assignment)
        extract.audit(model, decoded, result.objective)
        return result, decoded

    def check(output):
        result, decoded = output
        if callable(expected[0]):
            expected[0] = expected[0]()
        _expect(result.objective, expected[0], "pair")
        if max_distance is not None \
                and decoded.distances[0].distance > max_distance:
            raise Failure("distance %d exceeds the %d inversions applied"
                          % (decoded.distances[0].distance, max_distance))
        if truth is None:
            return None
        return _scores(decoded.genomes, truth, sorted(genomes))

    return Item(name, run, check)


def _oracle(a, b, mixture):
    return lambda: diagram.brute_force_distance(
        a, b, FAMILIES, alpha=mixture[0], beta=mixture[1]).value


def tiny_items(seed, count):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        a, b = tiny_degenerate_pair(rng)
        mixture = MIXTURES[i % len(MIXTURES)]
        items.append(library_item("tiny%03d" % i, a, b, mixture,
                                  _oracle(a, b, mixture)))
    return items


def edge_item(corpus_dir, entry):
    genomes = io.read_adjacencies(os.path.join(corpus_dir, entry["file"]))
    truth = io.read_adjacencies(os.path.join(corpus_dir, entry["truth"]))
    a, b = entry["species"]
    return library_item(entry["name"], genomes[a], genomes[b], EDGE_MIXTURE,
                        entry["optimum"], truth=truth)


def large_item(corpus_dir, entry):
    genomes = io.read_adjacencies(os.path.join(corpus_dir, entry["file"]))
    return library_item(entry["name"], genomes["A"], genomes["B"],
                        DISTANCE_MIXTURE, entry["optimum"], truth=genomes,
                        max_distance=entry["inversions"])


def external_warmup(corpus_dir, entry):
    """One solve through the external bridge, so the first timed external
    solve does not pay the solver process's cold start."""
    genomes = io.read_adjacencies(os.path.join(corpus_dir, entry["file"]))
    a, b = entry["species"]
    model = ilp.build_model(Phylogeny([(a, b)]),
                            {a: genomes[a], b: genomes[b]}, FAMILIES,
                            *EDGE_MIXTURE)

    def run():
        return solver.solve_external(model).objective

    def check(objective):
        _expect(objective, entry["optimum"], "external")

    return Item("external-" + entry["name"], run, check)


# -- simulate ----------------------------------------------------------------

class NoiseRecorder:
    """Keeps the ``NoiseReport`` that ``cmd_simulate`` discards.

    ``cli.add_noise`` is replaced by a pass-through that calls whatever
    ``sim.add_noise`` is at call time, so a traced run still sees its span.
    """

    def __init__(self):
        self.reports = {}
        self._original = cli.add_noise

        def recorder(genome, *args, **kwargs):
            noisy, report = sim.add_noise(genome, *args, **kwargs)
            self.reports[genome.species] = report
            return noisy, report

        cli.add_noise = recorder

    def close(self):
        cli.add_noise = self._original


def _check_noise(species, truth, noisy, report):
    """The noisy genome is the truth plus exactly as many new adjacencies as
    its surfeit target asks for (fewer only when every candidate is used),
    each joining two extremities of different markers, and the report
    counts them.  ``report.fallback`` counts adversarial requests served
    from the uniform pool; those adjacencies are still added, so it excuses
    no shortfall."""
    inner = truth.non_telomeric_extremities()
    goal = math.ceil(SIM_PARAMS["surfeit"] * len(inner) / 2.0)
    same_marker = sum(k * (k - 1) // 2
                      for k in Counter(e.marker for e in inner).values())
    taken = sum(1 for adj in truth.adjacencies
                if not any(e.is_telomere for e in adj.ends)
                and adj.ends[0].marker != adj.ends[1].marker)
    pool = len(inner) * (len(inner) - 1) // 2 - same_marker - taken
    expected = min(max(goal - len(truth.adjacencies), 0), pool)
    added = set(noisy.adjacencies) - set(truth.adjacencies)
    if len(added) != len(noisy.adjacencies) - len(truth.adjacencies):
        raise Failure("%s: noisy genome repeats or drops adjacencies"
                      % species)
    if len(added) != expected:
        raise Failure("%s: %d adjacencies added, its surfeit target needs %d"
                      % (species, len(added), expected))
    if report.added != len(added) \
            or report.adversarial + report.uniform != report.added:
        raise Failure("%s: noise report %r does not count the %d added "
                      "adjacencies" % (species, report, len(added)))
    for adj in added:
        a, b = adj.ends
        if a.is_telomere or b.is_telomere or a.marker == b.marker \
                or adj.weight != 1.0:
            raise Failure("%s: added adjacency %r is not a weight-1 join of "
                          "two markers" % (species, adj))


def simulate_item(recorder, workdir, families, seed):
    name = "sim%d-seed%d" % (families, seed)
    out = os.path.join(workdir, name)

    def run():
        recorder.reports = {}
        run_cli("simulate", out, "--seed", seed, "--families", families,
                "--leaves", SIM_PARAMS["leaves"],
                "--scale", SIM_PARAMS["scale"],
                "--surfeit", SIM_PARAMS["surfeit"],
                "--adversarial", SIM_PARAMS["adversarial"])
        return dict(recorder.reports)

    def check(reports):
        tree = io.read_tree(os.path.join(out, "tree.tsv"))
        truth = io.read_adjacencies(os.path.join(out, "truth.tsv"))
        noisy = io.read_adjacencies(os.path.join(out, "degenerate.tsv"))
        ancestors = sorted(set(tree.nodes) - set(tree.leaves()))
        if sorted(reports) != ancestors:
            raise Failure("noise reports for %s, expected %s"
                          % (sorted(reports), ancestors))
        for species in sorted(tree.nodes):
            if not is_derived(truth[species], noisy[species]):
                raise Failure("truth of %s is not derived from its "
                              "degenerate genome" % species)
        for species in ancestors:
            _check_noise(species, truth[species], noisy[species],
                         reports[species])
        return _scores(noisy, truth, ancestors)

    return Item(name, run, check)


# -- assembly -----------------------------------------------------------------

@dataclass
class Workload:
    items: List[Item]
    warmups: List[Item]
    recorder: Optional[NoiseRecorder] = None

    def close(self):
        if self.recorder is not None:
            self.recorder.close()


def make(name, manifest, corpus_dir, workdir, quick=False):
    """Items of one workload in a fixed order; ``quick`` is the reduced
    self-check size."""
    if name in ("reconstruct", "hard"):
        entries = manifest[name][:1] if quick else manifest[name]
        if quick and name == "hard":
            entries = [dict(manifest["warmup"],
                            floor=manifest["hard"][0]["floor"])]
        items = [pipeline_item(corpus_dir, e, workdir) for e in entries]
        warm = pipeline_item(corpus_dir, manifest["warmup"], workdir)
        return Workload(items, [warm])
    if name == "pairs":
        edges, large = manifest["edges"], manifest["large"]
        if quick:
            edges, large = edges[:2], large[:1]
        items = (tiny_items(manifest["tiny_seed"],
                            12 if quick else TINY_PAIRS)
                 + [edge_item(corpus_dir, e) for e in edges]
                 + [large_item(corpus_dir, e) for e in large])
        warmups = tiny_items(-1, 3) + [external_warmup(corpus_dir, edges[0])]
        return Workload(items, warmups)
    if name == "simulate":
        recorder = NoiseRecorder()
        sizes = QUICK_SIM_SIZES if quick else SIM_SIZES
        items, k = [], 0
        for families, count in sizes:
            for _ in range(count):
                k += 1
                items.append(simulate_item(recorder, workdir, families, k))
        warmups = [simulate_item(recorder, workdir, 30, 0)]
        return Workload(items, warmups, recorder)
    raise KeyError(name)
