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
import operator
from array import array
from bisect import bisect_right
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, List, Sequence, Set, Tuple

from .diagram import (ADJ, EXT, ID, DiagramEdge, MultiRelationalDiagram,
                      enumerate_circular_singletons)
from .genomes import (CAP_PREFIX, Adjacency, DegenerateGenome, Extremity,
                      FamilyAssignment, Phylogeny, format_number)

BINARY = "B"
CONTINUOUS = "C"
INTEGER = "I"


class ModelError(ValueError):
    pass


# one column as ``IlpModel.variables`` shows it
Variable = namedtuple("Variable", "name kind lb ub meaning")
# one row as ``IlpModel.constraints`` shows it; terms are (coefficient,
# variable name) pairs
Row = namedtuple("Row", "name terms sense rhs tag")


class Rows:
    """The constraint matrix, row by row in compressed form.

    A column is a variable's position in the model's per-column arrays.
    Row ``r`` has the terms ``cols[k]``, ``coefs[k]`` for ``starts[r] <= k
    < starts[r + 1]``, its sense ('<=', '>=' or '='), right-hand side and
    block tag (C.01 .. C.11), and the parts of its name: a format, an edge
    key and up to two integers, which only ``names`` joins.  ``add``
    appends to lists, the cheapest to grow; ``pack`` then holds the columns
    and the starts as int32 arrays and the coefficients and the right-hand
    sides as float64 arrays, which take a fraction of the lists' memory.
    """

    __slots__ = ("cols", "coefs", "starts", "senses", "rhs", "tags", "forms",
                 "edge_keys", "first", "second")

    def __init__(self):
        self.cols: Sequence[int] = []
        self.coefs: Sequence[float] = []
        self.starts: Sequence[int] = [0]
        self.senses: List[str] = []
        self.rhs: Sequence[float] = []
        self.tags: List[str] = []
        self.forms: List[str] = []
        self.edge_keys: List[str] = []
        self.first = array("i")
        self.second = array("i")

    def __len__(self):
        return len(self.tags)

    def add(self, cols, coefs, sense, rhs, tag, form, key="", i=0, j=0):
        """Append the row ``sum(coefs[k] * x[cols[k]]) <sense> rhs``, named
        ``form`` filled with ``key``, ``i`` and ``j`` as far as it asks."""
        self.cols.extend(cols)
        self.coefs.extend(coefs)
        self.starts.append(len(self.cols))
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.tags.append(tag)
        self.forms.append(form)
        self.edge_keys.append(key)
        self.first.append(i)
        self.second.append(j)

    def names(self) -> List[str]:
        """Every row's name, in row order: the text of the LP file and of
        errors.  A row's format takes its key, then as many of its two
        integers as it asks for."""
        arity = _TextCache(operator.methodcaller("count", "%"))
        return [form % (key, i, j)[:arity[form]] for form, key, i, j
                in zip(self.forms, self.edge_keys, self.first,
                       self.second)]

    def terms(self, r):
        """The columns and the coefficients of row ``r``."""
        start, end = self.starts[r], self.starts[r + 1]
        return self.cols[start:end], self.coefs[start:end]

    def pack(self, count: int):
        """Raise ``ModelError`` unless every column is in ``0 .. count-1``,
        then hold the numbers as arrays."""
        cols = self.cols
        if cols and (min(cols) < 0 or max(cols) >= count):
            k = next(k for k, col in enumerate(cols) if not 0 <= col < count)
            raise ModelError("row %s references column %d of a model with %d "
                             "variables" % (self.names()[bisect_right(
                                 self.starts, k) - 1], cols[k], count))
        self.cols = array("i", cols)
        self.coefs = array("d", self.coefs)
        self.starts = array("i", self.starts)
        self.rhs = array("d", self.rhs)


@dataclass
class EdgeContext:
    """Per-phylogeny-edge bookkeeping linking diagram objects to variables."""
    key: str
    species_a: str
    species_b: str
    diagram: MultiRelationalDiagram
    edge_vars: Dict[int, int] = field(default_factory=dict)  # diagram edge
    o_vars: Dict[Extremity, int] = field(default_factory=dict)
    y_vars: Dict[int, int] = field(default_factory=dict)  # node index
    r_vars: Dict[int, int] = field(default_factory=dict)
    z_vars: Dict[int, int] = field(default_factory=dict)
    t_vars: Dict[int, int] = field(default_factory=dict)  # edge index
    s_vars: List[int] = field(default_factory=list)
    a_vars: Dict[str, int] = field(default_factory=dict)  # side
    singletons: List = field(default_factory=list)


class IlpModel:
    """A variable is its column: the edge contexts, the objective, the rows
    and every assignment (one float per column) refer to it so.  Per
    column the model keeps a kind, a lower and an upper bound and a
    ``meaning`` (class, species or edge key, item); ``names`` formats the
    text the LP, the idmap and the solution files use."""

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.kinds: List[str] = []  # BINARY, CONTINUOUS or INTEGER
        self.lbs = array("d")
        self.ubs = array("d")
        self.meanings: List[Tuple] = []  # see names and _description
        self.objective: Dict[int, float] = {}  # column -> coefficient
        self.rows = Rows()
        self.contexts: List[EdgeContext] = []
        self.species_index: Dict[str, int] = {}
        self.adjacency_vars: Dict[str, Dict[Adjacency, int]] = {}
        self.extremity_o_vars: Dict[str, Dict[Extremity, int]] = {}

    def add_variable(self, kind, lb, ub, meaning) -> int:
        """Declare a variable; returns its column."""
        self.kinds.append(kind)
        self.lbs.append(lb)
        self.ubs.append(ub)
        self.meanings.append(meaning)
        return len(self.kinds) - 1

    def add_objective(self, col: int, coef: float):
        self.objective[col] = self.objective.get(col, 0.0) + coef

    def names(self) -> List[str]:
        """Every column's name, in column order, formatted from its
        ``meaning``.  Adjacencies, extremities and caps are numbered from 1
        in the order their owner declares them."""
        species = self.species_index
        count: Dict[Tuple[str, str], int] = {}
        names = []
        for what, owner, item in self.meanings:
            if what in ("adj", "o", "capadj"):
                n = count[what, owner] = count.get((what, owner), 0) + 1
                if what == "capadj":
                    name = "x_%s_cap%d" % (owner, n)
                else:
                    name = "%s_s%d_%d" % ("x" if what == "adj" else "o",
                                          species[owner], n)
            elif what == "edge":
                name = "xe_%s_%d" % (owner, item)
            elif what == "capo":
                name = "o_%s_%s" % (owner, item.marker.replace(".", ""))
            elif what == "s":
                name = "s_%s_%d" % (owner, item + 1)
            else:  # y, r, z and t by node or edge index, a by side
                name = "%s_%s_%s" % (what, owner, item)
            names.append(name)
        return names

    @property
    def variables(self) -> Dict[str, Variable]:
        """A read-only view of every column by name, built anew on each
        access."""
        return {name: Variable(name, *column) for name, *column in zip(
            self.names(), self.kinds, self.lbs, self.ubs, self.meanings)}

    @property
    def constraints(self) -> List[Row]:
        """A read-only view of every row, built anew on each access."""
        names = self.names()
        rows = self.rows
        view = []
        for r, (name, sense, rhs, tag) in enumerate(zip(
                rows.names(), rows.senses, rows.rhs, rows.tags)):
            cols, coefs = rows.terms(r)
            view.append(Row(name, [(coef, names[col]) for coef, col
                                   in zip(coefs, cols)], sense, rhs, tag))
        return view


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state; also
    usable as a decorator.

    The model builders allocate hundreds of thousands of acyclic records
    (diagram nodes and edges, extremities, column meanings) that stay
    alive; every automatic collection would rescan all of them and free
    nothing.
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
    """The model of ``declare_model`` with its rows: the C.01-C.11 blocks
    of each phylogeny edge, in edge order."""
    model = declare_model(tree, genomes, families, alpha, beta,
                          reduce_telomeres)
    for ctx in model.contexts:
        emit_constraints(model, ctx)
    model.rows.pack(len(model.kinds))
    return model


@_gc_paused()
def declare_model(tree: Phylogeny, genomes: Dict[str, DegenerateGenome],
                  families: FamilyAssignment, alpha: float, beta: float,
                  reduce_telomeres: bool = True) -> IlpModel:
    """The model over all phylogeny edges without its rows: the diagrams,
    every variable, then the objective, and the edge contexts."""
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
    return model


def _declare_genome_vars(model: IlpModel, genome: DegenerateGenome):
    model.adjacency_vars[genome.species] = {
        adj: model.add_variable(BINARY, 0, 1, ("adj", genome.species, adj))
        for adj in genome.adjacencies}
    model.extremity_o_vars[genome.species] = {
        ext: model.add_variable(BINARY, 0, 1, ("o", genome.species, ext))
        for ext in genome.extremities()}


def _edge_key(model: IlpModel, a: str, b: str) -> str:
    i, j = sorted((model.species_index[a], model.species_index[b]))
    return "e%d_%d" % (i, j)


def _declare_edge_vars(model: IlpModel, a: str, b: str,
                       diagram: MultiRelationalDiagram) -> EdgeContext:
    key = _edge_key(model, a, b)
    ctx = EdgeContext(key, a, b, diagram)

    for edge in diagram.edges:
        if edge.kind == ADJ and not edge.cap:
            ctx.edge_vars[edge.index] = model.adjacency_vars[
                edge.u.species][edge.adjacency]
        else:
            ctx.edge_vars[edge.index] = model.add_variable(
                BINARY, 0, 1, ("capadj" if edge.kind == ADJ else "edge", key,
                               edge.index))

    for node in diagram.nodes:
        if node.marker.startswith(CAP_PREFIX):
            ctx.o_vars[node] = model.add_variable(BINARY, 0, 1,
                                                  ("capo", key, node))
        else:
            ctx.o_vars[node] = model.extremity_o_vars[node.species][node]

    for i in range(1, len(diagram.nodes) + 1):
        ctx.y_vars[i] = model.add_variable(CONTINUOUS, 0, i, ("y", key, i))
        ctx.r_vars[i] = model.add_variable(BINARY, 0, 1, ("r", key, i))
        if i <= diagram.num_non_telomeric:
            ctx.z_vars[i] = model.add_variable(BINARY, 0, 1, ("z", key, i))

    for edge in diagram.edges:
        ctx.t_vars[edge.index] = model.add_variable(BINARY, 0, 1,
                                                    ("t", key, edge.index))

    ctx.singletons = enumerate_circular_singletons(diagram)
    ctx.s_vars = [model.add_variable(BINARY, 0, 1, ("s", key, ci))
                  for ci in range(len(ctx.singletons))]
    return ctx


def _declare_counter_vars(model: IlpModel, ctx: EdgeContext):
    """C.11's linear chromosome counter of each side that has telomeres."""
    for side in ("A", "B"):
        telos = ctx.diagram.telomeres_side(side)
        if telos:
            ctx.a_vars[side] = model.add_variable(
                INTEGER, 0, len(telos) // 2, ("a", ctx.key, side))


def build_objective(model: IlpModel):
    """Populate the objective from the declared variables."""
    alpha, beta = model.alpha, model.beta
    wcoef = 1 - alpha - beta
    for _, adj_vars in sorted(model.adjacency_vars.items()):
        for adj, col in adj_vars.items():
            if wcoef != 0 and adj.weight != 0:
                model.add_objective(col, wcoef * adj.weight)
    for ctx in model.contexts:
        for col in ctx.z_vars.values():
            model.add_objective(col, alpha)
        for col in ctx.t_vars.values():
            model.add_objective(col, -alpha / 2.0)
        for col in ctx.s_vars:
            model.add_objective(col, -alpha)
        if beta != 0:
            for node, col in ctx.o_vars.items():
                if node.is_telomere:
                    model.add_objective(col, -beta)


def emit_constraints(model: IlpModel, ctx: EdgeContext):
    """Emit the constraint block of one phylogeny edge."""
    d = ctx.diagram
    key = ctx.key
    idx = d.node_index
    add = model.rows.add
    x, o, t = ctx.edge_vars, ctx.o_vars, ctx.t_vars
    y, r = ctx.y_vars, ctx.r_vars

    # C.01: non-telomeric extremities are always present
    for node in d.nodes:
        if not node.is_telomere:
            add((o[node],), (1,), "=", 1, "C.01", "c01_%s_%d", key, idx[node])

    # C.02: every present node is on exactly one adjacency edge and one
    # extremity-or-indel edge
    for node in d.nodes:
        at = d.edges_at(node)
        adj = [x[e.index] for e in at if e.kind == ADJ]
        other = [x[e.index] for e in at if e.kind != ADJ]
        adj.append(o[node])
        other.append(o[node])
        add(adj, [1] * (len(adj) - 1) + [-1], "=", 0, "C.02", "c02a_%s_%d",
            key, idx[node])
        add(other, [1] * (len(other) - 1) + [-1], "=", 0, "C.02",
            "c02b_%s_%d", key, idx[node])

    # C.03: tail-tail and head-head extremity edges of a marker pair are siblings
    siblings: Dict[Tuple[str, str], List[DiagramEdge]] = {}
    for e in d.edges:
        if e.kind == EXT and e.sibling_key is not None:
            siblings.setdefault(e.sibling_key, []).append(e)
    for skey in sorted(siblings):
        pair = siblings[skey]
        assert len(pair) == 2, "sibling group %r has %d edges" % (skey, len(pair))
        first, second = pair[0].index, pair[1].index
        add((x[first], x[second]), (1, -1), "=", 0, "C.03", "c03_%s_%d_%d",
            key, first, second)

    # C.04: cycle labels are constant along selected edges
    for e in d.edges:
        xe = x[e.index]
        i, j = idx[e.u], idx[e.v]
        add((y[j], y[i], xe), (1, -1, -i), ">=", -i, "C.04", "c04_%s_%d_f",
            key, e.index)
        add((y[i], y[j], xe), (1, -1, -j), ">=", -j, "C.04", "c04_%s_%d_b",
            key, e.index)

    # C.05: selected indel edges zero their cycle label
    for e in d.edges:
        if e.kind != ID:
            continue
        for node in (e.u, e.v):
            i = idx[node]
            add((y[i], x[e.index]), (-1, -i), ">=", -i, "C.05",
                "c05_%s_%d_%d", key, e.index, i)

    # C.06: a node may only count a cycle labelled with its own index
    for i, z in ctx.z_vars.items():
        add((z, y[i]), (i, -1), "<=", 0, "C.06", "c06_%s_%d", key, i)

    # C.07: selected indel edges pin run labels (A runs 0, B runs 1)
    for e in d.edges:
        if e.kind != ID:
            continue
        for node in (e.u, e.v):
            i = idx[node]
            coef, rhs = (1, 1) if e.side == "A" else (-1, 0)
            add((x[e.index], r[i]), (1, coef), "<=", rhs, "C.07",
                "c07_%s_%d_%d", key, e.index, i)

    # C.08: transition indicators catch run-label changes on selected edges
    for e in d.edges:
        xe, te = x[e.index], t[e.index]
        ru, rv = r[idx[e.u]], r[idx[e.v]]
        add((te, rv, ru, xe), (1, -1, 1, -1), ">=", -1, "C.08",
            "c08_%s_%d_f", key, e.index)
        add((te, ru, rv, xe), (1, -1, 1, -1), ">=", -1, "C.08",
            "c08_%s_%d_b", key, e.index)

    # C.09: fully selected singleton candidates must be paid for
    for ci, cand in enumerate(ctx.singletons):
        cols = [x[ei] for ei in cand.edges]
        cols.append(ctx.s_vars[ci])
        add(cols, [1] * len(cand.edges) + [-1], "<=", len(cand.edges) - 1,
            "C.09", "c09_%s_%d", key, ci + 1)

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
            cols = [x[ei] for ei in sorted(incident)]
            cols.append(t[e.index])
            add(cols, [1] * len(incident) + [-1], ">=", 0, "C.10",
                "c10_%s_%d", key, e.index)
    for e in d.edges:
        if e.kind in (ID, EXT):
            add((t[e.index],), (1,), "=", 0, "C.10", "c10z_%s_%d", key,
                e.index)

    # C.11: derived genomes use an even number of telomeres per side
    for side, a in ctx.a_vars.items():
        cols = [o[node] for node in d.telomeres_side(side)]
        coefs = [1] * len(cols) + [-2]
        cols.append(a)
        add(cols, coefs, "=", 0, "C.11", "c11_%s_" + side, key)


# lines per write of ``write_lp``'s files, a row each under Subject To
_CHUNK_ROWS = 1024


def write_lp(model: IlpModel, lp_path, idmap_path=None):
    """Serialize to LP text plus a variable-name map.

    Both files are streamed: their lines are formatted and written in
    chunks of ``_CHUNK_ROWS``, one write per chunk, so that only one
    chunk's text is held at a time.  The bytes do not depend on the chunk
    size."""
    names = model.names()
    term = _TextCache(_term_text)  # coefficient -> "+ 2 " or "- 2 "
    number = _TextCache(format_number)
    rows = model.rows
    with open(lp_path, "w", encoding="utf-8", newline="\n") as handle:
        obj = [term[coef] + names[col]
               for col, coef in model.objective.items() if coef != 0]
        handle.write("Maximize\n obj: %s\nSubject To\n"
                     % (" ".join(obj).removeprefix("+ ") or "0"))
        del obj
        # each row joins the text of its next count of terms, in order
        terms = map(operator.add, map(term.__getitem__, rows.coefs),
                    map(names.__getitem__, rows.cols))
        counts = map(operator.sub, rows.starts[1:], rows.starts)
        exprs = map(str.removeprefix, map(" ".join, map(
            islice, repeat(terms), counts)), repeat("+ "))
        _write_chunked(handle, map(" %s: %s %s %s\n".__mod__, zip(
            rows.names(), exprs, rows.senses,
            map(number.__getitem__, rows.rhs))))
        handle.write("Bounds\n")
        _write_chunked(handle, (
            " %s <= %s <= %s\n" % (number[lb], name, number[ub])
            for name, kind, lb, ub in zip(names, model.kinds, model.lbs,
                                          model.ubs) if kind != BINARY))
        for header, of_kind in (("Binaries", BINARY), ("Generals", INTEGER)):
            if of_kind in model.kinds:
                handle.write(header + "\n")
                _write_chunked(handle, (
                    " %s\n" % name for name, kind in zip(names, model.kinds)
                    if kind == of_kind))
        handle.write("End\n")
    if idmap_path is not None:
        contexts = {ctx.key: ctx for ctx in model.contexts}
        with open(idmap_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("#name\tkind\tdescription\n")
            _write_chunked(handle, (
                "%s\t%s\t%s\n" % (name, kind, _description(meaning, contexts))
                for name, kind, meaning in zip(names, model.kinds,
                                               model.meanings)))


def _write_chunked(handle, lines):
    """Write the text ``lines``, ``_CHUNK_ROWS`` of them per write."""
    lines = iter(lines)
    while True:
        chunk = "".join(islice(lines, _CHUNK_ROWS))
        if not chunk:
            return
        handle.write(chunk)


class _TextCache(dict):
    """``cache[key]`` is ``text(key)``, computed once per key."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, key):
        value = self[key] = self.text(key)
        return value


def _term_text(coef: float) -> str:
    """The LP text of a coefficient before its variable's name, signed as
    after another term; the first term of a row drops a leading "+ "."""
    if coef >= 0:
        return "+ %s " % format_number(coef)
    return "- %s " % format_number(-coef)


def _description(meaning: Tuple, contexts: Dict[str, EdgeContext]) -> str:
    """The idmap text of a variable, formatted from its ``meaning``:
    (class, species, item) for a genome's variables, (class, edge key,
    item) for an edge context's."""
    what, owner, item = meaning
    if what == "adj":
        return "adjacency %r of %s" % (item, owner)
    if what == "o":
        return "presence of extremity %s in %s" % (item.name, owner)
    ctx = contexts[owner]
    if what == "capo":
        return "presence of capping telomere %s (%s)" % (item.name, owner)
    if what in ("y", "r"):
        node = ctx.diagram.nodes[item - 1]  # node index i is nodes[i - 1]
        return "%s label of node %d=%s (%s)" % (
            "cycle" if what == "y" else "run", item, node.name, owner)
    if what == "z":
        return "indel-free cycle counter at node %d (%s)" % (item, owner)
    if what == "s":
        cand = ctx.singletons[item]
        return "circular singleton of %d edges, side %s (%s)" % (
            len(cand), cand.side, owner)
    if what == "a":
        return "linear chromosome count, side %s (%s)" % (item, owner)
    edge = ctx.diagram.edges[item - 1]  # edge index i is edges[i - 1]
    ends = "%s-%s (%s)" % (edge.u.name, edge.v.name, owner)
    if what == "capadj":
        return "capping adjacency " + ends
    if what == "edge":
        return "%s edge %s" % ({EXT: "extremity", ID: "indel"}[edge.kind], ends)
    return "transition indicator of edge " + ends  # "t"


def model_size(model: IlpModel) -> Dict[str, Dict[str, int]]:
    """The model's columns per variable class and rows per constraint
    block (C.01 .. C.11), for a run's manifest."""
    return {"columns": dict(Counter(meaning[0]
                                    for meaning in model.meanings)),
            "rows": dict(Counter(model.rows.tags))}


def read_idmap(path) -> Set[str]:
    """Variable names declared in a map written by ``write_lp``."""
    with open(path, "r", encoding="utf-8") as handle:
        return {line.split("\t", 1)[0] for line in handle
                if line.strip() and not line.startswith("#")}


def recompute_objective(model: IlpModel, assignment: Sequence[float]) -> float:
    """The objective at ``assignment``, one value per column."""
    return sum(coef * assignment[col] for col, coef in model.objective.items())
