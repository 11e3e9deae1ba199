"""Decode solver assignments into genomes, distances and reports.

The decoded quantities are recomputed *structurally*: selected edges of each
pairwise diagram are decomposed into cycles and the distance formula is
evaluated on that decomposition, rather than trusting the solver's counting
variables.  An audit then cross-checks the structural objective against the
solver's reported objective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from .diagram import (ADJ, DistanceBreakdown, breakdown_from_components,
                      decompose)
from .genomes import DegenerateGenome, FamilyAssignment, is_derived
from .ilp import EdgeContext, IlpModel, _gc_paused
from .solver import TOL


class DecodeError(ValueError):
    pass


@dataclass
class PairDistance:
    species_a: str
    species_b: str
    breakdown: DistanceBreakdown
    used_telomeres: int
    weight_sum: float

    @property
    def distance(self) -> int:
        return self.breakdown.distance


@dataclass
class DecodedSolution:
    genomes: Dict[str, DegenerateGenome]
    distances: List[PairDistance]
    objective: float  # structural recomputation


@_gc_paused()
def decode(model: IlpModel, assignment: Mapping[str, float]) -> DecodedSolution:
    """Derive one genome per species and per-edge distances from a solution."""
    genomes: Dict[str, DegenerateGenome] = {}
    for species in sorted(model.adjacency_vars):
        chosen = [adj for adj, name in model.adjacency_vars[species].items()
                  if assignment.get(name, 0) > 0.5]
        try:
            genome = DegenerateGenome(species, chosen)
        except ValueError as exc:
            raise DecodeError("infeasible decode for %s: %s" % (species, exc))
        genomes[species] = genome

    distances = []
    for ctx in model.contexts:
        distances.append(_decode_context(ctx, assignment))

    objective = _structural_objective(model, genomes, distances)
    return DecodedSolution(genomes, distances, objective)


def validate(decoded: DecodedSolution,
             inputs: Mapping[str, DegenerateGenome]):
    """Check that every decoded genome is derived from its input."""
    for species, genome in decoded.genomes.items():
        if not is_derived(genome, inputs[species]):
            raise DecodeError(
                "infeasible decode: %s is not derived from its input" % species)


def _decode_context(ctx: EdgeContext, assignment) -> PairDistance:
    d = ctx.diagram
    selected = [e for e in d.edges
                if assignment.get(ctx.edge_vars[e.index], 0) > 0.5]
    try:
        components = decompose(selected)
    except ValueError as exc:
        raise DecodeError("infeasible decode for %s-%s: %s"
                          % (ctx.species_a, ctx.species_b, exc))
    used = sum(1 for node in d.telomeric_nodes()
               if assignment.get(ctx.o_vars[node], 0) > 0.5)
    breakdown = breakdown_from_components(d.n, components, used)
    weight_sum = sum(e.adjacency.weight for e in selected
                     if e.kind == ADJ and e.adjacency is not None)
    return PairDistance(ctx.species_a, ctx.species_b, breakdown, used,
                        weight_sum)


def _structural_objective(model: IlpModel, genomes, distances) -> float:
    alpha, beta = model.alpha, model.beta
    value = 0.0
    for genome in genomes.values():
        value += (1 - alpha - beta) * sum(adj.weight
                                          for adj in genome.adjacencies)
    for pd in distances:
        bd = pd.breakdown
        value += alpha * (bd.indel_free_cycles - bd.transitions / 2.0
                          - bd.circular_singletons)
        value -= beta * pd.used_telomeres
    return value


def audit(_model: IlpModel, decoded: DecodedSolution, reported: float):
    """Compare the structural objective with the solver-reported one, to
    within ``TOL``.  The model argument is not read."""
    if abs(decoded.objective - reported) > TOL:
        raise DecodeError(
            "objective audit failed: structural %r vs reported %r"
            % (decoded.objective, reported))


# -- evaluation against a known truth ---------------------------------------

@dataclass
class Metrics:
    true_positives: int
    predicted: int
    actual: int

    @property
    def precision(self) -> float:
        if self.predicted == 0:
            return 1.0
        return self.true_positives / self.predicted

    @property
    def recall(self) -> float:
        if self.actual == 0:
            return 1.0
        return self.true_positives / self.actual


def _adjacency_keys(genome: DegenerateGenome, families) -> "Counter":
    """Adjacencies as a multiset of comparison keys.

    Copy numbers and telomere numbering are arbitrary labels, so extremities
    are keyed by (family, kind) and telomeres are erased; the multiset keeps
    distinct copies countable."""
    keys = Counter()
    for adj in genome.adjacencies:
        key = tuple(sorted(
            ("*telomere*", "") if e.is_telomere else (families.of(e), e.kind)
            for e in adj.ends))
        keys[key] += 1
    return keys


def evaluate(predicted: Mapping[str, DegenerateGenome],
             truth: Mapping[str, DegenerateGenome],
             families: Optional[FamilyAssignment] = None) -> Dict[str, Metrics]:
    """Per-species precision/recall of predicted adjacencies, plus 'overall'."""
    if families is None:
        families = FamilyAssignment()
    result: Dict[str, Metrics] = {}
    total_tp = total_pred = total_act = 0
    for species in sorted(truth):
        actual = _adjacency_keys(truth[species], families)
        pred = (_adjacency_keys(predicted[species], families)
                if species in predicted else Counter())
        tp = sum(min(count, pred[key]) for key, count in actual.items())
        result[species] = Metrics(tp, sum(pred.values()), sum(actual.values()))
        total_tp += tp
        total_pred += sum(pred.values())
        total_act += sum(actual.values())
    result["overall"] = Metrics(total_tp, total_pred, total_act)
    return result


def distance_rows(decoded: DecodedSolution):
    """Rows for the distances report TSV."""
    rows = []
    for pd in decoded.distances:
        bd = pd.breakdown
        rows.append((pd.species_a, pd.species_b, pd.distance,
                     "%g" % bd.n_prime, bd.indel_free_cycles, bd.transitions,
                     bd.circular_singletons, pd.used_telomeres,
                     "%g" % pd.weight_sum))
    return rows


DISTANCE_HEADER = ("species_a", "species_b", "distance", "n_prime",
                   "indel_free_cycles", "transitions", "circular_singletons",
                   "used_telomeres", "weight_sum")


def metrics_rows(metrics: Dict[str, Metrics]):
    rows = []
    for species in sorted(metrics):
        m = metrics[species]
        rows.append((species, m.true_positives, m.predicted, m.actual,
                     "%.6f" % m.precision, "%.6f" % m.recall))
    return rows


METRICS_HEADER = ("species", "true_positives", "predicted", "actual",
                  "precision", "recall")
