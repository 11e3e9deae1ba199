"""Solvers for the assembled integer program.

``solve`` runs the exact branch-and-bound of ``solve_internal`` under a
fixed work budget, and past it ``solve_external``, which writes an LP file
for ``run_solver_command``: the one runner of a MILP solver, the bundled
HiGHS in this process or a command template (``SPP_DCJ_SOLVER``, else
``DEFAULT_COMMAND``).

The solution-file format is written by ``write_solution`` and read by
``parse_solution`` and ``load_solution``.
"""

from __future__ import annotations

import contextlib
import math
import os
import shlex
import string
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagram import ID, DiagramError, decompose
from .ilp import (BINARY, INTEGER, EdgeContext, IlpModel, _gc_paused,
                  recompute_objective, write_lp)

# Work the branch-and-bound may do before ``solve`` hands the model to the
# external solver.  Each value tried at a search node costs one unit per
# branch variable, a count that does not depend on the host.  On 2 cores a
# unit took 0.12-0.22 us on the benchmark corpus edges, and the budget
# lasted 0.17-0.23 s on the tree models that exhaust it, under the
# 0.55-0.9 s fixed cost of one external solve.
WORK_BUDGET = 2_500_000
TOL = 1e-6  # feasibility, integrality and objective tolerance
BRANCH_CLASSES = ("adj", "capadj", "edge", "o", "capo")

# the bundled HiGHS run by this interpreter, in a child process so that the
# caller never holds scipy (its import adds about 60 MB of resident memory);
# the braces of the interpreter's path are doubled to stay literal
DEFAULT_COMMAND = "%s -m spp_dcj.cli solve --internal {lp} -o {sol}" % (
    shlex.quote(sys.executable).replace("{", "{{").replace("}", "}}"))
_NO_SOLUTION_IN_TIME = "time limit reached without a feasible solution"


class SolverError(RuntimeError):
    pass


class BudgetExhausted(SolverError):
    """The branch-and-bound used up ``WORK_BUDGET`` before proving an
    optimum."""


@dataclass
class SolveResult:
    status: str  # 'optimal', 'feasible', 'infeasible'
    objective: float
    assignment: List[float]  # one value per column; empty when infeasible
    gap: float = 0.0
    wall_time: float = 0.0
    leaves: int = 0  # branch-and-bound leaves evaluated; 0 for external


def check_time_limit(time_limit: Optional[float]):
    """Raise ``ValueError`` unless ``time_limit`` is None or finite and > 0."""
    if time_limit is not None and not 0 < time_limit < math.inf:
        raise ValueError("time limit %r is not finite and > 0" % (time_limit,))


# -- internal branch and bound ----------------------------------------------

# slots of _Search.tally
_TRANSITIONS, _SINGLES, _BAD, _OPEN, _ODD = range(5)


def _side_changes(near: Optional[str], side: Optional[str],
                  far: Optional[str]) -> int:
    """Indel-side changes where a path whose indel edge nearest the joint
    is of side ``near`` meets, through an edge of indel side ``side``, a
    path whose nearest one is of side ``far`` (None: no indel edge)."""
    if side is None:
        return near is not None and far is not None and near != far
    return (near is not None and near != side) + (far is not None
                                                  and far != side)


class _Search:
    """The branch-and-bound of ``solve_internal``: a depth-first search
    over a model's structural binaries, which hold every variable of the
    C.01-C.03 rows.

    Propagation: the C.01-C.03 rows are equalities with coefficients 1 or
    -1.  Each row keeps the integer range ``[lo, hi]`` its left-hand side
    can still reach, moved when one of its variables is fixed, so a row is
    scanned only when that range ends at its right-hand side; its free
    variables then take the values that keep it there.  A range that no
    longer holds the right-hand side is a conflict.

    Scoring: ``fix`` accounts for every value as it is fixed.  Each diagram
    keeps its selected edges as paths.  Both end nodes of a path hold the
    record (other end, indel side nearest this end, indel side changes
    along the path, node count, whether a node carries a z variable), so
    selecting an edge joins two paths or closes one into a cycle in
    constant time, and a cycle is counted the moment it closes.  Cycle
    labels follow ``complete_assignment``: a closed cycle with no indel
    edge adds one cycle, and one with ``c > 0`` side changes around it adds
    ``c`` transitions (its number of indel runs).  A leaf scores
    ``sum(coef * x) + alpha * (cycles - transitions / 2 - singletons)``
    over the objective's branch-variable terms, which equals
    ``complete_assignment`` on the objective ``ilp.build_objective``
    writes.  A leaf with a node of degree 1 or above 2, an indel-free cycle
    made only of telomeres (whose label has no z variable) or an odd
    telomere count on a side with a C.11 row is no solution.

    Bound: fixed terms at their value, free terms at their best and, per
    diagram, the indel-free cycles any completion can close: those already
    closed, plus a quarter of the live nodes on no closed cycle, rounded
    down.  A node is live while some edge at it is not fixed to 0.  A
    cycle still to close uses live nodes only, and none on a closed cycle,
    since a node has degree 2.  It has at least 4 nodes: a scored
    indel-free cycle holds a non-telomeric node ``n``, which C.02 puts on
    one adjacency edge, to ``a`` in its own genome, and one extremity edge,
    to ``b`` in the other genome; ``b`` is non-telomeric too (extremity
    edges join telomeres only to telomeres), so C.02 puts it on an
    adjacency edge to a fourth node ``c`` in its genome.

    Every change to the values, the row ranges and the counts goes on one
    undo log of ``(array, index, old value)`` triples, which ``restore``
    replays.
    """

    def __init__(self, model: IlpModel):
        branch = self.branch = []  # per column: its branch variable or None
        count = 0
        for kind, meaning in zip(model.kinds, model.meanings):
            structural = kind == BINARY and meaning[0] in BRANCH_CLASSES
            branch.append(count if structural else None)
            count += structural
        self.one_first = {vi for vi, meaning in zip(branch, model.meanings)
                          if meaning[0] == "adj"}  # tried at 1 first
        self.value = [-1] * count  # -1 = free
        self.log: list = []
        self.alpha = model.alpha

        # per row: its variables, v where the coefficient is 1, ~v where -1
        self.terms: List[List[int]] = []
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.rhs: List[float] = []
        # rows of each variable: r where its coefficient is 1, ~r where -1
        rows_of = self.rows_of = [[] for _ in range(count)]
        rows = model.rows
        starts, cols, coefs = rows.starts, rows.cols, rows.coefs
        for k, tag in enumerate(rows.tags):
            if tag not in ("C.01", "C.02", "C.03"):
                continue
            if rows.senses[k] != "=":
                raise SolverError("row %s of block %s is not an equality"
                                  % (rows.names()[k], tag))
            r = len(self.terms)
            neg = ~r
            terms = []
            lo = hi = 0
            for j in range(starts[k], starts[k + 1]):
                vi = branch[cols[j]]
                coef = coefs[j]
                if coef == 1.0:
                    hi += 1
                    terms.append(vi)
                    rows_of[vi].append(r)
                elif coef == -1.0:
                    lo -= 1
                    terms.append(~vi)
                    rows_of[vi].append(neg)
                else:
                    raise SolverError("row %s of block %s has a coefficient "
                                      "other than 1 or -1"
                                      % (rows.names()[k], tag))
            self.terms.append(terms)
            self.lo.append(lo)
            self.hi.append(hi)
            # an integral right-hand side is kept as an int, which the
            # integer ranges in ``assign`` compare with fastest
            rhs = rows.rhs[k]
            self.rhs.append(int(rhs) if rhs % 1 == 0 else rhs)

        z_cols = {col for ctx in model.contexts for col in ctx.z_vars.values()}
        # objective: [fixed terms at their value, free terms that may gain
        # at their coefficient]; z is bounded apart
        self.obj = [0.0, 0.0]
        self.obj_term: List[Optional[Tuple[float, bool]]] = [None] * count
        for col, coef in model.objective.items():
            gain = col not in z_cols and coef > 0
            i = branch[col]
            if i is not None:
                self.obj_term[i] = (coef, gain)
            if gain:
                self.obj[1] += coef

        none: Tuple[int, ...] = ()
        # per branch variable: its diagram edges, its C.11 parity groups
        self.edges_of = [none] * count
        self.groups_of = [none] * count
        # per node (numbered across diagrams)
        self.node_ctx: List[int] = []
        self.has_z: List[bool] = []
        self.free: List[int] = []  # edges at the node not fixed to 0
        # per edge
        self.eu: List[int] = []
        self.ev: List[int] = []
        self.eside: List[Optional[str]] = []  # indel side, None otherwise
        self.ectx: List[int] = []
        self.ecands: List[Tuple[int, ...]] = []
        self.cand_need: List[int] = []
        # per diagram
        self.live: List[int] = []
        groups = 0
        for c, ctx in enumerate(model.contexts):
            d = ctx.diagram
            base = len(self.node_ctx) - 1  # node indices start at 1
            idx = d.node_index
            for node in d.nodes:
                self.node_ctx.append(c)
                self.has_z.append(idx[node] <= len(ctx.z_vars))
                self.free.append(len(d.edges_at(node)))
            self.live.append(sum(1 for node in d.nodes if d.edges_at(node)))
            for side in ctx.a_vars:
                for node in d.telomeres_side(side):
                    self.groups_of[branch[ctx.o_vars[node]]] += (groups,)
                groups += 1
            cands: Dict[int, Tuple[int, ...]] = {}
            for cand in ctx.singletons:
                ci = len(self.cand_need)
                members = set(cand.edges)
                self.cand_need.append(len(members))
                for ei in members:
                    cands[ei] = cands.get(ei, none) + (ci,)
            for e in d.edges:
                vi = branch[ctx.edge_vars[e.index]]
                self.edges_of[vi] += (len(self.eu),)
                self.eu.append(base + idx[e.u])
                self.ev.append(base + idx[e.v])
                self.eside.append(e.side if e.kind == ID else None)
                self.ectx.append(c)
                self.ecands.append(cands.get(e.index, none))
        size = len(self.node_ctx)
        self.deg = [0] * size  # selected edges at the node
        self.ends: List[Optional[tuple]] = [None] * size  # path records
        self.cand_count = [0] * len(self.cand_need)
        self.parity = [0] * groups
        self.cycles = [0] * len(model.contexts)
        self.closed = [0] * len(model.contexts)  # nodes on closed cycles
        self.tally = [0] * 5

    def restore(self, mark: int):
        """Undo every change logged after ``len(log)`` was ``mark``,
        replaying the log backwards."""
        log = self.log
        for k in range(len(log) - 3, mark - 1, -3):
            log[k][log[k + 1]] = log[k + 2]
        del log[mark:]

    def assign(self, var: int, val: int) -> bool:
        """Fix a variable and propagate; False at the first conflict."""
        value, rows_of, row_terms = self.value, self.rows_of, self.terms
        lo, hi, rhs, log, fix = self.lo, self.hi, self.rhs, self.log, self.fix
        queue = [(var, val)]
        while queue:
            vi, v = queue.pop()
            cur = value[vi]
            if cur != -1:
                if cur != v:
                    return False
                continue
            log.extend((value, vi, -1))
            value[vi] = v
            fix(vi, v)
            for r in rows_of[vi]:
                if r < 0:
                    r, upper = ~r, not v
                else:
                    upper = v
                if upper:  # the term is at its upper value
                    log.extend((lo, r, lo[r]))
                    lo[r] += 1
                else:
                    log.extend((hi, r, hi[r]))
                    hi[r] -= 1
                target = rhs[r]
                if lo[r] > target or hi[r] < target:
                    return False
                if hi[r] == target:
                    up = 1  # every free term at its upper value
                elif lo[r] == target:
                    up = 0  # every free term at its lower value
                else:
                    continue
                for t in row_terms[r]:
                    if t < 0:
                        if value[~t] == -1:
                            queue.append((~t, 1 - up))
                    elif value[t] == -1:
                        queue.append((t, up))
        return True

    def fix(self, vi: int, v: int):
        """Account for branch variable ``vi`` fixed to ``v``."""
        log = self.log
        term = self.obj_term[vi]
        if term is not None:
            coef, gain = term
            obj = self.obj
            if v:
                log.extend((obj, 0, obj[0]))
                obj[0] += coef
            if gain:
                log.extend((obj, 1, obj[1]))
                obj[1] -= coef
        if v:
            for e in self.edges_of[vi]:
                self._select(e)
            groups = self.groups_of[vi]
            if groups:
                parity, tally = self.parity, self.tally
                for g in groups:
                    log.extend((parity, g, parity[g]))
                    log.extend((tally, _ODD, tally[_ODD]))
                    parity[g] ^= 1
                    tally[_ODD] += 1 if parity[g] else -1
            return
        free, live = self.free, self.live
        for e in self.edges_of[vi]:
            for node in (self.eu[e], self.ev[e]):
                log.extend((free, node, free[node]))
                free[node] -= 1
                if not free[node]:
                    c = self.node_ctx[node]
                    log.extend((live, c, live[c]))
                    live[c] -= 1

    def _select(self, e: int):
        log, tally = self.log, self.tally
        u, w, side = self.eu[e], self.ev[e], self.eside[e]
        for ci in self.ecands[e]:
            count = self.cand_count
            log.extend((count, ci, count[ci]))
            count[ci] += 1
            if count[ci] == self.cand_need[ci]:
                log.extend((tally, _SINGLES, tally[_SINGLES]))
                tally[_SINGLES] += 1
        deg, ends = self.deg, self.ends
        du, dw = deg[u], deg[w]
        if du == 2 or dw == 2:
            log.extend((tally, _BAD, tally[_BAD]))
            tally[_BAD] += 1
            return
        log.extend((deg, u, du))
        log.extend((deg, w, dw))
        deg[u] = du + 1
        deg[w] = dw + 1
        if du:
            a, near_u, changes_u, size_u, z_u = ends[u]
        else:
            a, near_u, changes_u, size_u, z_u = u, None, 0, 1, self.has_z[u]
        if dw:
            b, near_w, changes_w, size_w, z_w = ends[w]
        else:
            b, near_w, changes_w, size_w, z_w = w, None, 0, 1, self.has_z[w]
        changes = _side_changes(near_u, side, near_w)
        c = self.ectx[e]
        if a == w:  # u and w end one path: it closes into a cycle
            log.extend((tally, _OPEN, tally[_OPEN]))
            tally[_OPEN] -= 1
            closed = self.closed
            log.extend((closed, c, closed[c]))
            closed[c] += size_u
            if near_u is not None or side is not None:
                log.extend((tally, _TRANSITIONS, tally[_TRANSITIONS]))
                tally[_TRANSITIONS] += changes_u + changes
            elif z_u:
                cycles = self.cycles
                log.extend((cycles, c, cycles[c]))
                cycles[c] += 1
            else:
                log.extend((tally, _BAD, tally[_BAD]))
                tally[_BAD] += 1
            return
        if du and dw:
            log.extend((tally, _OPEN, tally[_OPEN]))
            tally[_OPEN] -= 1
        elif not du and not dw:
            log.extend((tally, _OPEN, tally[_OPEN]))
            tally[_OPEN] += 1
        # the indel side nearest each new end: its own path's, else the
        # new edge's, else the other path's
        near_a = ends[a][1] if du else None
        near_b = ends[b][1] if dw else None
        if side is not None:
            near_u = near_w = side
        changes += changes_u + changes_w
        size = size_u + size_w
        z = z_u or z_w
        if du:
            log.extend((ends, a, ends[a]))
        if dw:
            log.extend((ends, b, ends[b]))
        ends[a] = (b, near_w if near_a is None else near_a, changes, size, z)
        ends[b] = (a, near_u if near_b is None else near_b, changes, size, z)

    def leaf_value(self) -> Optional[float]:
        """Objective of the leaf at hand, or None where it is no
        solution."""
        tally = self.tally
        if tally[_BAD] or tally[_OPEN] or tally[_ODD]:
            return None
        return self.obj[0] + self.alpha * (
            sum(self.cycles) - tally[_TRANSITIONS] / 2 - tally[_SINGLES])

    def upper_bound(self) -> float:
        """Bound on the objective of every leaf below the node at hand."""
        live, closed = self.live, self.closed
        ub = self.obj[0] + self.obj[1]
        for c, cycles in enumerate(self.cycles):
            ub += self.alpha * (cycles + (live[c] - closed[c]) // 4)
        return ub

    def run(self, start: float, time_limit: Optional[float]):
        """Search from the root: the best leaf as ``(value, values)`` or
        None, the leaves scored, whether the time limit stopped the search,
        and the bound at the root."""
        value, log, one_first = self.value, self.log, self.one_first
        assign, restore = self.assign, self.restore
        leaf_value, upper_bound = self.leaf_value, self.upper_bound
        count = len(value)
        best: List[Optional[Tuple[float, List[int]]]] = [None]
        leaves = [0]
        timed_out = [False]
        work = [0]

        def dfs(next_var: int):
            if timed_out[0]:
                return
            if (time_limit is not None
                    and time.monotonic() - start > time_limit):
                timed_out[0] = True
                return
            while next_var < count and value[next_var] != -1:
                next_var += 1
            if next_var == count:
                leaves[0] += 1
                score = leaf_value()
                if score is not None and (best[0] is None
                                          or score > best[0][0] + 1e-9):
                    best[0] = (score, list(value))
                return
            if best[0] is not None and upper_bound() <= best[0][0] + 1e-9:
                return
            order = (1, 0) if next_var in one_first else (0, 1)
            for val in order:
                work[0] += count
                if work[0] > WORK_BUDGET:
                    raise BudgetExhausted(
                        "branch-and-bound passed its budget of %d work units "
                        "after %d leaves" % (WORK_BUDGET, leaves[0]))
                mark = len(log)
                if assign(next_var, val):
                    dfs(next_var + 1)
                restore(mark)
                if timed_out[0]:
                    return

        root_bound = upper_bound()
        try:
            dfs(0)
        finally:
            del dfs  # it refers to itself: free the search on return
        return best[0], leaves[0], timed_out[0], root_bound


def _relative_gap(incumbent: float, bound: float) -> float:
    """``|incumbent - bound| / |incumbent|``, the relative gap HiGHS
    reports: 0 when both are 0, infinite when only the incumbent is."""
    if incumbent == 0:
        return 0.0 if bound == 0 else float("inf")
    return abs(incumbent - bound) / abs(incumbent)


@_gc_paused()
def solve_internal(model: IlpModel, time_limit: Optional[float] = None
                   ) -> SolveResult:
    """Exact deterministic branch-and-bound over the structural binaries.

    Raises ``BudgetExhausted`` once the search would pass ``WORK_BUDGET``
    units of work, whatever the time limit.  A search stopped by the time
    limit returns its incumbent as "feasible", with its relative gap to
    the root bound; ``check_time_limit`` rejects a bad time limit.
    """
    check_time_limit(time_limit)
    start = time.monotonic()
    search = _Search(model)
    best, leaves, timed_out, root_bound = search.run(start, time_limit)
    branch = search.branch
    del search  # free the search state before the completion below
    wall = time.monotonic() - start
    if best is None:
        if timed_out:
            raise SolverError(_NO_SOLUTION_IN_TIME)
        return SolveResult("infeasible", float("-inf"), [], wall_time=wall,
                           leaves=leaves)
    value, values = best
    assignment = [0.0 if vi is None else float(values[vi]) for vi in branch]
    objective = complete_assignment(model, assignment)  # fill counting vars
    if abs(objective - value) > TOL:
        raise SolverError("leaf scored %r, its completion %r"
                          % (value, objective))
    verify_assignment(model, assignment)
    if timed_out:
        return SolveResult("feasible", objective, assignment,
                           gap=_relative_gap(objective, root_bound),
                           wall_time=wall, leaves=leaves)
    return SolveResult("optimal", objective, assignment, wall_time=wall,
                       leaves=leaves)


def complete_assignment(model: IlpModel, assignment: List[float]) -> float:
    """Derive all counting variables from the structural ones, in place, in
    an assignment of one value per column.

    Decomposes each diagram's selected edges into cycles and assigns cycle
    labels (y, z), run labels and transitions (r, t), singleton indicators
    (s) and chromosome counters (a) accordingly.  Returns the objective.
    """
    for ctx in model.contexts:
        _complete_context(ctx, assignment)
    return recompute_objective(model, assignment)


def _complete_context(ctx: EdgeContext, assignment: List[float]):
    d = ctx.diagram
    idx = d.node_index
    selected = [e for e in d.edges if assignment[ctx.edge_vars[e.index]] > 0.5]
    for counters in (ctx.y_vars, ctx.r_vars, ctx.z_vars, ctx.t_vars):
        for col in counters.values():
            assignment[col] = 0.0

    components = decompose(selected)  # raises DiagramError on bad degrees
    for comp in components:
        if not comp.has_indel:
            ymin = min(idx[n] for n in comp.nodes)
            for n in comp.nodes:
                assignment[ctx.y_vars[idx[n]]] = float(ymin)
            z = ctx.z_vars.get(ymin)
            if z is None:
                raise DiagramError(
                    "indel-free cycle labelled by telomeric node %d" % ymin)
            assignment[z] = 1.0
            continue
        _assign_runs(ctx, comp, assignment)

    for ci, cand in enumerate(ctx.singletons):
        full = all(assignment[ctx.edge_vars[ei]] > 0.5 for ei in cand.edges)
        assignment[ctx.s_vars[ci]] = 1.0 if full else 0.0

    for side, a in ctx.a_vars.items():
        used = sum(assignment[ctx.o_vars[n]] for n in d.telomeres_side(side))
        if used % 2:
            raise DiagramError("odd telomere usage on side %s" % side)
        assignment[a] = used / 2.0


def _assign_runs(ctx: EdgeContext, comp, assignment):
    """Run labels and transition edges for one indel-containing cycle.

    Label flips are placed on the adjacency edge next to an indel-edge
    endpoint of genome A, which keeps the optional transition-restricting
    constraints satisfiable.
    """
    nodes = comp.nodes
    length = len(nodes)
    idx = ctx.diagram.node_index
    forced: Dict[int, int] = {}
    for pos in range(length):
        for e in (comp.edges[pos - 1], comp.edges[pos]):
            if e.kind == ID:
                forced[pos] = 0 if e.side == "A" else 1
    positions = sorted(forced)
    labels = [0] * length
    for pos, lab in forced.items():
        labels[pos] = lab
    transitions = []  # edge positions carrying a label flip
    for k, p in enumerate(positions):
        q = positions[(k + 1) % len(positions)]
        gap = (q - p) % length
        if gap == 0:
            gap = length  # single forced run label: wrap the whole cycle
        if forced[p] == forced[q]:
            fill = forced[p]
        else:
            # a flip goes on the adjacency edge next to the genome-A indel
            # endpoint: edge p when leaving an A run, edge q-1 when entering
            fill = 1
            transitions.append(p if forced[p] == 0 else (q - 1) % length)
        for off in range(1, gap):
            labels[(p + off) % length] = fill
    for pos in range(length):
        assignment[ctx.r_vars[idx[nodes[pos]]]] = float(labels[pos])
    for pos in transitions:
        assignment[ctx.t_vars[comp.edges[pos].index]] = 1.0


def verify_assignment(model: IlpModel, assignment: List[float]):
    """Numerically check an assignment of one value per column: its length,
    and every constraint, bound and integrality condition to within
    ``TOL``."""
    if len(assignment) != len(model.kinds):
        raise SolverError("assignment has %d values for %d variables"
                          % (len(assignment), len(model.kinds)))
    for col, (kind, lb, ub, val) in enumerate(zip(model.kinds, model.lbs,
                                                  model.ubs, assignment)):
        if val < lb - TOL or val > ub + TOL:
            raise SolverError("variable %s=%r out of bounds [%r, %r]"
                              % (model.names()[col], val, lb, ub))
        if kind in (BINARY, INTEGER) and abs(val - round(val)) > TOL:
            raise SolverError("variable %s=%r not integral"
                              % (model.names()[col], val))
    rows = model.rows
    cols, coefs = rows.cols, rows.coefs
    start = 0
    for r, (end, sense, rhs) in enumerate(zip(rows.starts[1:], rows.senses,
                                               rows.rhs)):
        lhs = 0.0
        for k in range(start, end):
            lhs += coefs[k] * assignment[cols[k]]
        start = end
        if sense == "<=":
            ok = lhs <= rhs + TOL
        elif sense == ">=":
            ok = lhs >= rhs - TOL
        else:
            ok = abs(lhs - rhs) <= TOL
        if not ok:
            raise SolverError("constraint %s violated: %r %s %r"
                              % (rows.names()[r], lhs, sense, rhs))


# -- external solver bridge --------------------------------------------------

def solver_environment() -> Tuple[Optional[str], Dict[str, str]]:
    """The template ``SPP_DCJ_SOLVER`` names (None if unset or empty), and
    the environment a solver command runs in: this one, with ``spp_dcj``'s
    directory first on ``PYTHONPATH``.  Only it reads ``os.environ``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root,
                                                      env.get("PYTHONPATH"))))
    return env.get("SPP_DCJ_SOLVER") or None, env


def run_solver_command(command: Optional[str], lp_path, sol_path,
                       time_limit: Optional[float] = None):
    """Solve an LP file into a solution file: in this process with the
    bundled HiGHS when ``command`` is None, else with a ``str.format``
    template whose fields are ``{lp}``, ``{sol}`` and optionally
    ``{time_limit}`` (0 for no limit), with ``{{`` and ``}}`` for literal
    braces.  A stale file at ``sol_path`` is removed first.  Raises
    ``ValueError`` as ``check_time_limit`` does, and ``SolverError`` naming
    a template that breaks this rule, or when the solver fails or writes no
    solution file."""
    check_time_limit(time_limit)
    with contextlib.suppress(FileNotFoundError):
        os.remove(sol_path)
    if command is None:
        from . import milp_cli  # numpy and scipy load only when used
        milp_cli.solve_file(lp_path, sol_path, time_limit)
        return
    try:
        fields = {field for _, field, _, _ in string.Formatter().parse(command)
                  if field is not None}
        if not {"lp", "sol"} <= fields <= {"lp", "sol", "time_limit"}:
            raise ValueError("its fields are %s" % sorted(fields))
        line = command.format(lp=lp_path, sol=sol_path,
                              time_limit=time_limit or 0)
    # str.format looks up the fields nested in a format spec itself
    except (AttributeError, LookupError, ValueError) as exc:
        raise SolverError("solver command template %r: %s; it must hold "
                          "{lp} and {sol}, and may hold only {lp}, {sol} and "
                          "{time_limit}, with {{ and }} for a literal brace"
                          % (command, exc))
    proc = subprocess.run(line, shell=True, capture_output=True, text=True,
                          env=solver_environment()[1])
    if proc.returncode != 0:
        raise SolverError("external solver failed (%d): %s"
                          % (proc.returncode, proc.stderr.strip()[:500]))
    if not os.path.exists(sol_path):
        raise SolverError("external solver produced no solution file")


def solve_external(model: IlpModel, time_limit: Optional[float] = None
                   ) -> SolveResult:
    """Solve with the template ``SPP_DCJ_SOLVER`` names, else with
    ``DEFAULT_COMMAND``, run by ``run_solver_command`` on an LP file; the
    solution file is read by ``load_solution``."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        write_lp(model, lp_path)
        run_solver_command(solver_environment()[0] or DEFAULT_COMMAND,
                           lp_path, sol_path, time_limit)
        reported, assignment = load_solution(model, sol_path)
    verify_assignment(model, assignment)
    objective = recompute_objective(model, assignment)
    if reported is not None and abs(reported - objective) > TOL:
        raise SolverError("objective mismatch: solver reported %r, "
                          "recomputed %r" % (reported, objective))
    return SolveResult("optimal", objective, assignment,
                       wall_time=time.monotonic() - start)


def write_solution(path, objective: float, names, values, integer):
    """Write one ``name value`` line per column under an objective header,
    rounding the values whose ``integer`` flag is set; the format
    ``parse_solution`` reads.  ``names``, ``values`` and ``integer`` hold
    one entry per column, and the file is written in one call."""
    lines = ["# Objective value = %.12g\n" % objective]
    lines += ["%s %.12g\n" % (name, round(value) if flag else value)
              for name, value, flag in zip(names, values, integer,
                                           strict=True)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(lines))


def _finite(text: str) -> Optional[float]:
    """``float(text)`` where that is a finite number, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_solution(path) -> Tuple[Optional[float], Dict[str, float]]:
    """Read ``<variable> <value>`` lines and an optional
    ``# Objective value = <x>`` header; raises ``SolverError`` naming the
    line on a malformed line, a value or objective that is not a finite
    number, or a variable given twice."""
    reported = None
    values: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line and "objective" in line.lower():
                    reported = _finite(line.split("=", 1)[1])
                    if reported is None:
                        raise SolverError("%s:%d: malformed objective header "
                                          "%r" % (path, number, line))
                continue
            parts = line.split()
            value = _finite(parts[1]) if len(parts) == 2 else None
            if value is None:
                raise SolverError("%s:%d: malformed solution line %r: not a "
                                  "name and a finite number"
                                  % (path, number, line))
            name = parts[0]
            if name in values:
                raise SolverError("%s:%d: variable %s given twice"
                                  % (path, number, name))
            values[name] = value
    return reported, values


def load_solution(model: IlpModel, path,
                  names: Optional[List[str]] = None
                  ) -> Tuple[Optional[float], List[float]]:
    """Solution file values for every variable of ``model``.

    ``names`` is ``model.names()``, for a caller that has formatted them
    already.  Binary and integer values are rounded after a ``TOL``
    integrality check; names the model does not declare are ignored.
    Returns the reported objective (or None) and the assignment, one value
    per column; raises ``SolverError`` as ``parse_solution`` does, and on a
    missing variable or a non-integral value.
    """
    reported, raw = parse_solution(path)
    assignment = []
    if names is None:
        names = model.names()
    for name, kind in zip(names, model.kinds):
        if name not in raw:
            raise SolverError("solution file lacks variable %s" % name)
        val = raw[name]
        if kind in (BINARY, INTEGER):
            rounded = round(val)
            if abs(val - rounded) > TOL:
                raise SolverError("non-integral value %r for %s"
                                  % (val, name))
            val = float(rounded)
        assignment.append(val)
    return reported, assignment


def solve(model: IlpModel, time_limit: Optional[float] = None
          ) -> SolveResult:
    """``solve_internal``, and ``solve_external`` with what is left of
    ``time_limit`` once the search exhausts ``WORK_BUDGET`` (nothing left
    is a timeout).  Raises ``ValueError`` as ``check_time_limit`` does."""
    start = time.monotonic()
    try:
        return solve_internal(model, time_limit=time_limit)
    except BudgetExhausted:
        if time_limit is not None:
            time_limit -= time.monotonic() - start
            if time_limit <= 0:
                raise SolverError(_NO_SOLUTION_IN_TIME)
        return solve_external(model, time_limit=time_limit)
