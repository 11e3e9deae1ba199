"""Exact integer linear program for joint ancestral genome selection.

One block of constraints per phylogeny edge, over the edge's
multi-relational diagram.  Adjacency presence variables are shared between
all blocks that involve the same genome, which is what couples the pairwise
comparisons into a single small-parsimony model.

The maximized objective is

    (1 - a - b) * sum(weight * adjacency presence)
    + a * sum(indel-free cycle indicators - transition indicators / 2
              - circular singleton indicators)
    - b * sum(telomeric presence indicators)

so that, per edge, the alpha block scores the negated DCJ-indel distance up
to the constant number of shared markers.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .diagram import (ADJ, EXT, ID, DiagramEdge, MultiRelationalDiagram,
                      enumerate_circular_singletons)
from .genomes import (Adjacency, DegenerateGenome, Extremity,
                      FamilyAssignment, Phylogeny, format_number)

BINARY = "B"
CONTINUOUS = "C"
INTEGER = "I"


class ModelError(ValueError):
    pass


@dataclass(slots=True)
class Variable:
    name: str
    kind: str  # BINARY, CONTINUOUS or INTEGER
    lb: float
    ub: float
    meaning: Tuple
    description: str


@dataclass(slots=True)
class Constraint:
    name: str
    terms: List[Tuple[float, str]]  # (coefficient, variable name)
    sense: str  # '<=', '>=' or '='
    rhs: float
    tag: str  # C.01 .. C.11


@dataclass
class EdgeContext:
    """Per-phylogeny-edge bookkeeping linking diagram objects to variables."""
    key: str
    species_a: str
    species_b: str
    diagram: MultiRelationalDiagram
    edge_vars: Dict[int, str] = field(default_factory=dict)  # diagram edge -> var
    o_vars: Dict[Extremity, str] = field(default_factory=dict)
    y_vars: Dict[int, str] = field(default_factory=dict)  # node index -> var
    r_vars: Dict[int, str] = field(default_factory=dict)
    z_vars: Dict[int, str] = field(default_factory=dict)
    t_vars: Dict[int, str] = field(default_factory=dict)  # edge index -> var
    s_vars: List[str] = field(default_factory=list)
    a_vars: Dict[str, str] = field(default_factory=dict)  # side -> var
    singletons: List = field(default_factory=list)


class IlpModel:
    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.variables: Dict[str, Variable] = {}
        self.objective: Dict[str, float] = {}
        self.constraints: List[Constraint] = []
        self.contexts: List[EdgeContext] = []
        self.species_index: Dict[str, int] = {}
        self.adjacency_vars: Dict[str, Dict[Adjacency, str]] = {}
        self.extremity_o_vars: Dict[str, Dict[Extremity, str]] = {}

    def add_variable(self, name, kind, lb, ub, meaning, description) -> str:
        if name in self.variables:
            raise ModelError("duplicate variable %s" % name)
        self.variables[name] = Variable(name, kind, lb, ub, meaning, description)
        return name

    def add_constraint(self, name, terms, sense, rhs, tag):
        for _, var in terms:
            if var not in self.variables:
                raise ModelError("constraint %s references unknown %s" % (name, var))
        self.constraints.append(Constraint(name, terms, sense, rhs, tag))

    def add_objective(self, var: str, coef: float):
        self.objective[var] = self.objective.get(var, 0.0) + coef


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state; also
    usable as a decorator.

    The model builders allocate hundreds of thousands of acyclic records
    (variables, rows, terms, extremities) that stay alive; every automatic
    collection would rescan all of them and free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def build_model(tree: Phylogeny, genomes: Dict[str, DegenerateGenome],
                families: FamilyAssignment, alpha: float, beta: float,
                reduce_telomeres: bool = True) -> IlpModel:
    """Assemble the full model over all phylogeny edges: every variable,
    then the objective, then the rows."""
    if not (alpha >= 0 and beta >= 0 and alpha + beta <= 1):  # NaN fails
        raise ModelError("invalid mixture: need 0 <= alpha, beta and alpha+beta <= 1")
    missing = [node for node in tree.nodes if node not in genomes]
    if missing:
        raise ModelError("no genome for phylogeny node(s): %s" % ", ".join(missing))

    model = IlpModel(alpha, beta)
    model.species_index = {sp: i for i, sp in enumerate(sorted(tree.nodes))}

    for species in sorted(tree.nodes):
        _declare_genome_vars(model, genomes[species])

    for a, b in tree.edges:
        diagram = MultiRelationalDiagram(genomes[a], genomes[b], families,
                                         reduce_telomeres=reduce_telomeres)
        model.contexts.append(_declare_edge_vars(model, a, b, diagram))
    for ctx in model.contexts:
        _declare_counter_vars(model, ctx)

    build_objective(model)
    for ctx in model.contexts:
        emit_constraints(model, ctx)
    return model


def _declare_genome_vars(model: IlpModel, genome: DegenerateGenome):
    si = model.species_index[genome.species]
    adj_vars: Dict[Adjacency, str] = {}
    for i, adj in enumerate(genome.adjacencies, start=1):
        name = "x_s%d_%d" % (si, i)
        model.add_variable(name, BINARY, 0, 1, ("adj", genome.species, adj),
                           "adjacency %r of %s" % (adj, genome.species))
        adj_vars[adj] = name
    model.adjacency_vars[genome.species] = adj_vars

    o_vars: Dict[Extremity, str] = {}
    for i, ext in enumerate(genome.extremities(), start=1):
        name = "o_s%d_%d" % (si, i)
        model.add_variable(name, BINARY, 0, 1, ("o", genome.species, ext),
                           "presence of extremity %s in %s" % (ext.name, genome.species))
        o_vars[ext] = name
    model.extremity_o_vars[genome.species] = o_vars


def _edge_key(model: IlpModel, a: str, b: str) -> str:
    i, j = sorted((model.species_index[a], model.species_index[b]))
    return "e%d_%d" % (i, j)


def _declare_edge_vars(model: IlpModel, a: str, b: str,
                       diagram: MultiRelationalDiagram) -> EdgeContext:
    key = _edge_key(model, a, b)
    ctx = EdgeContext(key, a, b, diagram)

    cap_counter = 0
    for edge in diagram.edges:
        if edge.kind == ADJ and not edge.cap:
            ctx.edge_vars[edge.index] = model.adjacency_vars[
                edge.u.species][edge.adjacency]
        elif edge.kind == ADJ and edge.cap:
            cap_counter += 1
            name = "x_%s_cap%d" % (key, cap_counter)
            model.add_variable(name, BINARY, 0, 1, ("capadj", key, edge.index),
                               "capping adjacency %s-%s (%s)"
                               % (edge.u.name, edge.v.name, key))
            ctx.edge_vars[edge.index] = name
        else:
            name = "xe_%s_%d" % (key, edge.index)
            kind = {EXT: "extremity", ID: "indel"}[edge.kind]
            model.add_variable(name, BINARY, 0, 1, ("edge", key, edge.index),
                               "%s edge %s-%s (%s)" % (kind, edge.u.name,
                                                       edge.v.name, key))
            ctx.edge_vars[edge.index] = name

    for node in diagram.nodes:
        if node.marker.startswith("cap."):
            name = "o_%s_%s" % (key, node.marker.replace(".", ""))
            model.add_variable(name, BINARY, 0, 1, ("capo", key, node),
                               "presence of capping telomere %s (%s)"
                               % (node.name, key))
            ctx.o_vars[node] = name
        else:
            ctx.o_vars[node] = model.extremity_o_vars[node.species][node]

    for node, i in sorted(diagram.node_index.items(), key=lambda kv: kv[1]):
        yname = "y_%s_%d" % (key, i)
        model.add_variable(yname, CONTINUOUS, 0, i, ("y", key, i),
                           "cycle label of node %d=%s (%s)" % (i, node.name, key))
        ctx.y_vars[i] = yname
        rname = "r_%s_%d" % (key, i)
        model.add_variable(rname, BINARY, 0, 1, ("r", key, i),
                           "run label of node %d=%s (%s)" % (i, node.name, key))
        ctx.r_vars[i] = rname
        if i <= diagram.num_non_telomeric:
            zname = "z_%s_%d" % (key, i)
            model.add_variable(zname, BINARY, 0, 1, ("z", key, i),
                               "indel-free cycle counter at node %d (%s)" % (i, key))
            ctx.z_vars[i] = zname

    for edge in diagram.edges:
        tname = "t_%s_%d" % (key, edge.index)
        model.add_variable(tname, BINARY, 0, 1, ("t", key, edge.index),
                           "transition indicator of edge %s-%s (%s)"
                           % (edge.u.name, edge.v.name, key))
        ctx.t_vars[edge.index] = tname

    ctx.singletons = enumerate_circular_singletons(diagram)
    for ci, cand in enumerate(ctx.singletons, start=1):
        name = "s_%s_%d" % (key, ci)
        model.add_variable(name, BINARY, 0, 1, ("s", key, ci - 1),
                           "circular singleton of %d edges, side %s (%s)"
                           % (len(cand), cand.side, key))
        ctx.s_vars.append(name)
    return ctx


def _declare_counter_vars(model: IlpModel, ctx: EdgeContext):
    """C.11's linear chromosome counter of each side that has telomeres."""
    for side in ("A", "B"):
        telos = ctx.diagram.telomeres_side(side)
        if telos:
            ctx.a_vars[side] = model.add_variable(
                "a_%s_%s" % (ctx.key, side), INTEGER, 0, len(telos) // 2,
                ("a", ctx.key, side),
                "linear chromosome count, side %s (%s)" % (side, ctx.key))


def build_objective(model: IlpModel):
    """Populate the objective from the declared variables."""
    alpha, beta = model.alpha, model.beta
    wcoef = 1 - alpha - beta
    for _, adj_vars in sorted(model.adjacency_vars.items()):
        for adj, name in adj_vars.items():
            if wcoef != 0 and adj.weight != 0:
                model.add_objective(name, wcoef * adj.weight)
    for ctx in model.contexts:
        for name in ctx.z_vars.values():
            model.add_objective(name, alpha)
        for name in ctx.t_vars.values():
            model.add_objective(name, -alpha / 2.0)
        for name in ctx.s_vars:
            model.add_objective(name, -alpha)
        if beta != 0:
            for node, name in ctx.o_vars.items():
                if node.is_telomere:
                    model.add_objective(name, -beta)


def emit_constraints(model: IlpModel, ctx: EdgeContext):
    """Emit the constraint block of one phylogeny edge."""
    d = ctx.diagram
    key = ctx.key
    idx = d.node_index

    # C.01: non-telomeric extremities are always present
    for node in d.nodes:
        if not node.is_telomere:
            model.add_constraint("c01_%s_%d" % (key, idx[node]),
                                 [(1, ctx.o_vars[node])], "=", 1, "C.01")

    # C.02: every present node is on exactly one adjacency edge and one
    # extremity-or-indel edge
    for node in d.nodes:
        adj_terms = [(1, ctx.edge_vars[e.index]) for e in d.edges_at(node)
                     if e.kind == ADJ]
        other_terms = [(1, ctx.edge_vars[e.index]) for e in d.edges_at(node)
                       if e.kind != ADJ]
        model.add_constraint("c02a_%s_%d" % (key, idx[node]),
                             adj_terms + [(-1, ctx.o_vars[node])], "=", 0, "C.02")
        model.add_constraint("c02b_%s_%d" % (key, idx[node]),
                             other_terms + [(-1, ctx.o_vars[node])], "=", 0, "C.02")

    # C.03: tail-tail and head-head extremity edges of a marker pair are siblings
    siblings: Dict[Tuple[str, str], List[DiagramEdge]] = {}
    for e in d.edges:
        if e.kind == EXT and e.sibling_key is not None:
            siblings.setdefault(e.sibling_key, []).append(e)
    for skey in sorted(siblings):
        pair = siblings[skey]
        assert len(pair) == 2, "sibling group %r has %d edges" % (skey, len(pair))
        model.add_constraint(
            "c03_%s_%d_%d" % (key, pair[0].index, pair[1].index),
            [(1, ctx.edge_vars[pair[0].index]), (-1, ctx.edge_vars[pair[1].index])],
            "=", 0, "C.03")

    # C.04: cycle labels are constant along selected edges
    for e in d.edges:
        xvar = ctx.edge_vars[e.index]
        i, j = idx[e.u], idx[e.v]
        yi, yj = ctx.y_vars[i], ctx.y_vars[j]
        model.add_constraint("c04_%s_%d_f" % (key, e.index),
                             [(1, yj), (-1, yi), (-i, xvar)], ">=", -i, "C.04")
        model.add_constraint("c04_%s_%d_b" % (key, e.index),
                             [(1, yi), (-1, yj), (-j, xvar)], ">=", -j, "C.04")

    # C.05: selected indel edges zero their cycle label
    for e in d.edges:
        if e.kind != ID:
            continue
        xvar = ctx.edge_vars[e.index]
        for node in (e.u, e.v):
            i = idx[node]
            model.add_constraint("c05_%s_%d_%d" % (key, e.index, i),
                                 [(-1, ctx.y_vars[i]), (-i, xvar)], ">=", -i, "C.05")

    # C.06: a node may only count a cycle labelled with its own index
    for i, zname in ctx.z_vars.items():
        model.add_constraint("c06_%s_%d" % (key, i),
                             [(i, zname), (-1, ctx.y_vars[i])], "<=", 0, "C.06")

    # C.07: selected indel edges pin run labels (A runs 0, B runs 1)
    for e in d.edges:
        if e.kind != ID:
            continue
        xvar = ctx.edge_vars[e.index]
        for node in (e.u, e.v):
            rname = ctx.r_vars[idx[node]]
            if e.side == "A":
                model.add_constraint("c07_%s_%d_%d" % (key, e.index, idx[node]),
                                     [(1, xvar), (1, rname)], "<=", 1, "C.07")
            else:
                model.add_constraint("c07_%s_%d_%d" % (key, e.index, idx[node]),
                                     [(1, xvar), (-1, rname)], "<=", 0, "C.07")

    # C.08: transition indicators catch run-label changes on selected edges
    for e in d.edges:
        xvar = ctx.edge_vars[e.index]
        tname = ctx.t_vars[e.index]
        ru, rv = ctx.r_vars[idx[e.u]], ctx.r_vars[idx[e.v]]
        model.add_constraint("c08_%s_%d_f" % (key, e.index),
                             [(1, tname), (-1, rv), (1, ru), (-1, xvar)],
                             ">=", -1, "C.08")
        model.add_constraint("c08_%s_%d_b" % (key, e.index),
                             [(1, tname), (-1, ru), (1, rv), (-1, xvar)],
                             ">=", -1, "C.08")

    # C.09: fully selected singleton candidates must be paid for
    for ci, cand in enumerate(ctx.singletons):
        terms = [(1, ctx.edge_vars[ei]) for ei in cand.edges]
        terms.append((-1, ctx.s_vars[ci]))
        model.add_constraint("c09_%s_%d" % (key, ci + 1), terms, "<=",
                             len(cand.edges) - 1, "C.09")

    # C.10: transition edges only on A-adjacency edges next to selected A-indels
    id_a_at: Dict[Extremity, List[DiagramEdge]] = {}
    for e in d.edges:
        if e.kind == ID and e.side == "A":
            id_a_at.setdefault(e.u, []).append(e)
            id_a_at.setdefault(e.v, []).append(e)
    for e in d.edges:
        if e.kind == ADJ and e.side == "A":
            incident = {ie.index for node in (e.u, e.v)
                        for ie in id_a_at.get(node, ())}
            terms = [(1, ctx.edge_vars[ei]) for ei in sorted(incident)]
            terms.append((-1, ctx.t_vars[e.index]))
            model.add_constraint("c10_%s_%d" % (key, e.index), terms, ">=", 0,
                                 "C.10")
    for e in d.edges:
        if e.kind in (ID, EXT):
            model.add_constraint("c10z_%s_%d" % (key, e.index),
                                 [(1, ctx.t_vars[e.index])], "=", 0, "C.10")

    # C.11: derived genomes use an even number of telomeres per side
    for side, aname in ctx.a_vars.items():
        terms = [(1, ctx.o_vars[node]) for node in d.telomeres_side(side)]
        terms.append((-2, aname))
        model.add_constraint("c11_%s_%s" % (key, side), terms, "=", 0, "C.11")


def write_lp(model: IlpModel, lp_path, idmap_path=None):
    """Serialize to LP text plus a variable-name map."""
    lines = ["Maximize"]
    obj_terms = [(name, coef) for name, coef in model.objective.items()
                 if coef != 0]
    if not obj_terms:
        lines.append(" obj: 0")
    else:
        lines.append(" obj: " + _expr(obj_terms))
    lines.append("Subject To")
    for con in model.constraints:
        lines.append(" %s: %s %s %s" % (
            con.name, _expr([(v, c) for c, v in con.terms]), con.sense,
            format_number(con.rhs)))
    lines.append("Bounds")
    for var in model.variables.values():
        if var.kind == BINARY:
            continue
        lines.append(" %s <= %s <= %s" % (format_number(var.lb), var.name,
                                          format_number(var.ub)))
    binaries = [v.name for v in model.variables.values() if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(" " + name for name in binaries)
    generals = [v.name for v in model.variables.values() if v.kind == INTEGER]
    if generals:
        lines.append("Generals")
        lines.extend(" " + name for name in generals)
    lines.append("End")
    with open(lp_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    if idmap_path is not None:
        with open(idmap_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("#name\tkind\tdescription\n")
            for var in model.variables.values():
                handle.write("%s\t%s\t%s\n" % (var.name, var.kind,
                                               var.description))


def read_idmap(path) -> Set[str]:
    """Variable names declared in a map written by ``write_lp``."""
    with open(path, "r", encoding="utf-8") as handle:
        return {line.split("\t", 1)[0] for line in handle
                if line.strip() and not line.startswith("#")}


def _expr(terms) -> str:
    parts = []
    for name, coef in terms:
        if coef >= 0:
            sign = "+" if parts else ""
            parts.append("%s %s %s" % (sign, format_number(coef), name)
                         if parts else "%s %s" % (format_number(coef), name))
        else:
            parts.append("- %s %s" % (format_number(-coef), name))
    return " ".join(parts)


def recompute_objective(model: IlpModel, assignment: Dict[str, float]) -> float:
    return sum(coef * assignment.get(name, 0.0)
               for name, coef in model.objective.items())
