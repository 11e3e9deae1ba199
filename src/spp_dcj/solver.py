"""Solvers for the assembled integer program.

Two interchangeable backends:

* an internal exact branch-and-bound that only branches on the structural
  binaries (adjacency, extremity/indel edge and presence variables) and
  scores each leaf from the induced cycle decomposition on integer tables
  built once per solve, under a fixed work budget, and
* a bridge that shells out to any MILP solver via a command template
  operating on an LP file (``{lp}``/``{sol}`` placeholders), configurable
  through the ``SPP_DCJ_SOLVER`` environment variable.

The solution-file format is written by ``write_solution`` and read by
``parse_solution`` and ``load_solution``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .diagram import ID, DiagramError, decompose
from .ilp import (BINARY, INTEGER, EdgeContext, IlpModel, recompute_objective,
                  write_lp)

# Work the branch-and-bound may do before ``solve`` hands the model to the
# external solver.  Each value tried at a search node costs one unit per
# branch variable, as propagation and bounding scale with the model; one
# unit takes about 0.2 us, so the budget is about 0.5 s of search, near the
# fixed cost of one external solve.
WORK_BUDGET = 2_500_000
TOL = 1e-6  # feasibility, integrality and objective tolerance
BRANCH_CLASSES = ("adj", "capadj", "edge", "o", "capo")

SOLVER_ENV = "SPP_DCJ_SOLVER"


class SolverError(RuntimeError):
    pass


class BudgetExhausted(SolverError):
    """The branch-and-bound used up ``WORK_BUDGET`` before proving an
    optimum."""


@dataclass
class SolveResult:
    status: str  # 'optimal', 'feasible', 'infeasible'
    objective: float
    assignment: Dict[str, float]
    gap: float = 0.0
    wall_time: float = 0.0
    leaves: int = 0  # branch-and-bound leaves evaluated; 0 for external


# -- internal branch and bound ----------------------------------------------

class _Propagator:
    """0/1 bound propagation over the C.01-C.03 equalities, whose variables
    are all branchable."""

    def __init__(self, model: IlpModel, branch_vars: Sequence[str]):
        self.index = {name: i for i, name in enumerate(branch_vars)}
        self.value = [-1] * len(branch_vars)  # -1 = free
        self.rows: List[Tuple[List[Tuple[float, int]], float]] = []
        self.rows_of: List[List[int]] = [[] for _ in branch_vars]
        for con in model.constraints:
            if con.tag not in ("C.01", "C.02", "C.03"):
                continue
            if con.sense != "=":
                raise SolverError("row %s of block %s is not an equality"
                                  % (con.name, con.tag))
            terms = [(coef, self.index[var]) for coef, var in con.terms]
            ri = len(self.rows)
            self.rows.append((terms, con.rhs))
            for _, vi in terms:
                self.rows_of[vi].append(ri)

    def assign(self, var: int, val: int, trail: List[int]) -> bool:
        """Fix a variable and propagate; False on conflict."""
        queue = [(var, val)]
        while queue:
            vi, v = queue.pop()
            cur = self.value[vi]
            if cur != -1:
                if cur != v:
                    return False
                continue
            self.value[vi] = v
            trail.append(vi)
            for ri in self.rows_of[vi]:
                if not self._examine(ri, queue):
                    return False
        return True

    def _examine(self, ri: int, queue) -> bool:
        """False if the row cannot hold; where its reachable range ends at
        the right-hand side, queue every free term at that end."""
        terms, rhs = self.rows[ri]
        lo = hi = 0.0
        free = []
        for coef, vi in terms:
            val = self.value[vi]
            if val == -1:
                free.append((coef, vi))
                if coef > 0:
                    hi += coef
                else:
                    lo += coef
            else:
                lo += coef * val
                hi += coef * val
        if lo > rhs + 1e-9 or hi < rhs - 1e-9:
            return False
        if hi < rhs + 1e-9:  # every free term at its upper value
            for coef, vi in free:
                queue.append((vi, 1 if coef > 0 else 0))
        elif lo > rhs - 1e-9:  # every free term at its lower value
            for coef, vi in free:
                queue.append((vi, 0 if coef > 0 else 1))
        return True

    def undo(self, trail: List[int]):
        while trail:
            self.value[trail.pop()] = -1


def _branch_variables(model: IlpModel) -> List[str]:
    """The structural binaries the branch-and-bound branches on."""
    return [name for name, var in model.variables.items()
            if var.kind == BINARY and var.meaning[0] in BRANCH_CLASSES]


class _ContextTables:
    """Integer view of one edge context, indexed by branch variable."""

    def __init__(self, ctx: EdgeContext, var_index: Dict[str, int]):
        d = ctx.diagram
        idx = d.node_index
        self.size = len(d.nodes) + 1  # node indices start at 1
        self.num_z = len(ctx.z_vars)  # nodes 1..num_z carry a z variable
        self.us = [idx[e.u] for e in d.edges]
        self.vs = [idx[e.v] for e in d.edges]
        self.bis = [var_index[ctx.edge_vars[e.index]] for e in d.edges]
        # genome side of each indel edge, None for the other kinds
        self.indel = [e.side if e.kind == ID else None for e in d.edges]
        self.singletons = [[var_index[ctx.edge_vars[ei]] for ei in cand.edges]
                           for cand in ctx.singletons]
        # telomere presence per side that has a C.11 row
        self.telomere_groups = [
            [var_index[ctx.o_vars[n]] for n in d.telomeres_side(side)]
            for side in ctx.a_vars]
        # z-count bound: the indel-edge variables at each non-telomeric
        # node and the presence variable of each telomere, per side
        self.bound_sides = []
        for side in ("A", "B"):
            id_vars: Dict[int, List[int]] = {}
            for e in d.edges:
                if e.kind == ID and e.side == side:
                    for node in (e.u, e.v):
                        id_vars.setdefault(idx[node], []).append(
                            var_index[ctx.edge_vars[e.index]])
            non_telo = [id_vars.get(idx[n], []) for n in d.nodes
                        if not n.is_telomere and d.side_of(n) == side]
            telo = [var_index[ctx.o_vars[n]] for n in d.telomeres_side(side)]
            self.bound_sides.append((non_telo, telo))

    def counts(self, value: List[int]) -> Optional[Tuple[int, int, int]]:
        """(indel-free cycles, transitions, full singletons) of a leaf, or
        None where ``complete_assignment`` raises ``DiagramError``."""
        us, vs, bis, indel = self.us, self.vs, self.bis, self.indel
        first = [-1] * self.size  # incident selected edges per node
        second = [-1] * self.size
        selected = [k for k, bi in enumerate(bis) if value[bi] == 1]
        for k in selected:
            for node in (us[k], vs[k]):
                if first[node] < 0:
                    first[node] = k
                elif second[node] < 0:
                    second[node] = k
                else:
                    return None  # degree above 2
        for k in selected:
            if second[us[k]] < 0 or second[vs[k]] < 0:
                return None  # degree 1

        cycles = transitions = 0
        used = [False] * len(bis)
        for k in selected:
            if used[k]:
                continue
            used[k] = True
            origin, head = us[k], vs[k]
            low = min(origin, head)
            start_side = last_side = indel[k]
            changes = 0
            cur = k
            while head != origin:
                cur = first[head] if first[head] != cur else second[head]
                used[cur] = True
                head = vs[cur] if us[cur] == head else us[cur]
                if head < low:
                    low = head
                side = indel[cur]
                if side is not None:
                    if last_side is None:
                        start_side = side
                    elif side != last_side:
                        changes += 1
                    last_side = side
            if last_side is None:
                if low > self.num_z:
                    return None  # indel-free cycle labelled by a telomere
                cycles += 1
                continue
            runs = changes + 1
            if runs > 1 and start_side == last_side:
                runs -= 1
            if runs >= 2:
                transitions += runs

        for group in self.telomere_groups:
            if sum(value[i] for i in group) % 2:
                return None  # odd telomere usage
        singles = sum(1 for cand in self.singletons
                      if all(value[i] == 1 for i in cand))
        return cycles, transitions, singles

    def z_bound(self, value: List[int]) -> int:
        """Upper bound on the indel-free cycles any completion can close."""
        alive = []
        for non_telo, telo in self.bound_sides:
            count = 0
            for ids in non_telo:
                if not any(value[v] == 1 for v in ids):
                    count += 1
            for ov in telo:
                if value[ov] != 0:
                    count += 1
            alive.append(count)
        return min(min(alive) // 2, self.num_z)


class _Scorer:
    """Leaf values and node bounds of the branch-and-bound, read from the
    propagator's 0/1/-1 values through tables built once per solve.

    A leaf scores ``sum(coef * x) + alpha * (cycles - transitions / 2 -
    singletons)`` over the objective's branch-variable terms, which equals
    ``complete_assignment`` on the objective ``ilp.build_objective`` writes.
    """

    def __init__(self, model: IlpModel, var_index: Dict[str, int]):
        self.alpha = model.alpha
        self.contexts = [_ContextTables(ctx, var_index)
                         for ctx in model.contexts]
        z_names = set()
        for ctx in model.contexts:
            z_names.update(ctx.z_vars.values())
        # objective terms in model order: (branch index or None, coef,
        # whether an unfixed term may gain coef); z is bounded apart
        self.terms = []
        for name, coef in model.objective.items():
            gain = name not in z_names and coef > 0
            i = var_index.get(name)
            if i is not None or gain:
                self.terms.append((i, coef, gain))
        self.branch_terms = [(i, coef) for i, coef, _ in self.terms
                             if i is not None]

    def leaf_value(self, value: List[int]) -> Optional[float]:
        """Objective of a leaf, or None for a leaf that is no solution."""
        cycles = transitions = singles = 0
        for tables in self.contexts:
            counts = tables.counts(value)
            if counts is None:
                return None
            cycles += counts[0]
            transitions += counts[1]
            singles += counts[2]
        return (sum(coef for i, coef in self.branch_terms if value[i] == 1)
                + self.alpha * (cycles - transitions / 2 - singles))

    def upper_bound(self, value: List[int]) -> float:
        """Bound on the objective of every leaf below a node: fixed terms
        at their value, free terms at their best, z by ``z_bound``."""
        ub = 0.0
        for i, coef, gain in self.terms:
            if i is not None and value[i] != -1:
                ub += coef * value[i]
            elif gain:
                ub += coef
        for tables in self.contexts:
            ub += self.alpha * tables.z_bound(value)
        return ub


def solve_internal(model: IlpModel, time_limit: Optional[float] = None
                   ) -> SolveResult:
    """Exact deterministic branch-and-bound over the structural binaries.

    Raises ``BudgetExhausted`` once the search would pass ``WORK_BUDGET``
    units of work, whatever the time limit.
    """
    start = time.monotonic()
    branch_vars = _branch_variables(model)
    prop = _Propagator(model, branch_vars)
    one_first = {i for name, i in prop.index.items()
                 if model.variables[name].meaning[0] == "adj"}
    scorer = _Scorer(model, prop.index)

    best: List[Optional[Tuple[float, List[int]]]] = [None]
    leaves = [0]
    timed_out = [False]
    work = [0]

    def leaf():
        leaves[0] += 1
        value = scorer.leaf_value(prop.value)
        if value is None:
            return
        if best[0] is None or value > best[0][0] + 1e-9:
            best[0] = (value, list(prop.value))

    def dfs(next_var: int):
        if timed_out[0]:
            return
        if time_limit is not None and time.monotonic() - start > time_limit:
            timed_out[0] = True
            return
        while next_var < len(branch_vars) and prop.value[next_var] != -1:
            next_var += 1
        if next_var == len(branch_vars):
            leaf()
            return
        if (best[0] is not None
                and scorer.upper_bound(prop.value) <= best[0][0] + 1e-9):
            return
        order = (1, 0) if next_var in one_first else (0, 1)
        for val in order:
            work[0] += len(branch_vars)
            if work[0] > WORK_BUDGET:
                raise BudgetExhausted(
                    "branch-and-bound passed its budget of %d work units "
                    "after %d leaves" % (WORK_BUDGET, leaves[0]))
            trail: List[int] = []
            if prop.assign(next_var, val, trail):
                dfs(next_var + 1)
            prop.undo(trail)
            if timed_out[0]:
                return

    dfs(0)
    wall = time.monotonic() - start
    if best[0] is None:
        if timed_out[0]:
            raise SolverError("time limit reached without a feasible solution")
        return SolveResult("infeasible", float("-inf"), {}, wall_time=wall,
                           leaves=leaves[0])
    value, values = best[0]
    assignment = {name: float(v) for name, v in zip(branch_vars, values)}
    objective = complete_assignment(model, assignment)  # fill counting vars
    if abs(objective - value) > TOL:
        raise SolverError("leaf scored %r, its completion %r"
                          % (value, objective))
    verify_assignment(model, assignment)
    status = "feasible" if timed_out[0] else "optimal"
    return SolveResult(status, objective, assignment, wall_time=wall,
                       leaves=leaves[0])


def complete_assignment(model: IlpModel, assignment: Dict[str, float]) -> float:
    """Derive all counting variables from the structural ones, in place.

    Decomposes each diagram's selected edges into cycles and assigns cycle
    labels (y, z), run labels and transitions (r, t), singleton indicators
    (s) and chromosome counters (a) accordingly.  Returns the objective.
    """
    for ctx in model.contexts:
        _complete_context(ctx, assignment)
    return recompute_objective(model, assignment)


def _complete_context(ctx: EdgeContext, assignment: Dict[str, float]):
    d = ctx.diagram
    idx = d.node_index
    selected = [e for e in d.edges
                if assignment.get(ctx.edge_vars[e.index], 0) > 0.5]
    for name in ctx.y_vars.values():
        assignment[name] = 0.0
    for name in ctx.r_vars.values():
        assignment[name] = 0.0
    for name in ctx.z_vars.values():
        assignment[name] = 0.0
    for name in ctx.t_vars.values():
        assignment[name] = 0.0

    components = decompose(selected)  # raises DiagramError on bad degrees
    for comp in components:
        if not comp.has_indel:
            ymin = min(idx[n] for n in comp.nodes)
            for n in comp.nodes:
                assignment[ctx.y_vars[idx[n]]] = float(ymin)
            zname = ctx.z_vars.get(ymin)
            if zname is None:
                raise DiagramError(
                    "indel-free cycle labelled by telomeric node %d" % ymin)
            assignment[zname] = 1.0
            continue
        _assign_runs(ctx, comp, assignment)

    for ci, cand in enumerate(ctx.singletons):
        full = all(assignment.get(ctx.edge_vars[ei], 0) > 0.5
                   for ei in cand.edges)
        assignment[ctx.s_vars[ci]] = 1.0 if full else 0.0

    for side, aname in ctx.a_vars.items():
        used = sum(assignment.get(ctx.o_vars[n], 0)
                   for n in d.telomeres_side(side))
        if used % 2:
            raise DiagramError("odd telomere usage on side %s" % side)
        assignment[aname] = used / 2.0


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


def verify_assignment(model: IlpModel, assignment: Dict[str, float]):
    """Numerically check every constraint, bound and integrality condition
    to within ``TOL``."""
    for var in model.variables.values():
        val = assignment.get(var.name, 0.0)
        if val < var.lb - TOL or val > var.ub + TOL:
            raise SolverError("variable %s=%r out of bounds [%r, %r]"
                              % (var.name, val, var.lb, var.ub))
        if var.kind in (BINARY, INTEGER) and abs(val - round(val)) > TOL:
            raise SolverError("variable %s=%r not integral" % (var.name, val))
    for con in model.constraints:
        lhs = sum(coef * assignment.get(name, 0.0) for coef, name in con.terms)
        ok = {"<=": lhs <= con.rhs + TOL,
              ">=": lhs >= con.rhs - TOL,
              "=": abs(lhs - con.rhs) <= TOL}[con.sense]
        if not ok:
            raise SolverError("constraint %s violated: %r %s %r"
                              % (con.name, lhs, con.sense, con.rhs))


# -- external solver bridge --------------------------------------------------

def default_solver_command() -> str:
    return os.environ.get(SOLVER_ENV, "spp-dcj-milp {lp} {sol}")


def run_solver_command(command: str, lp_path, sol_path,
                       time_limit: Optional[float] = None):
    """Run a MILP solver from a command template on an LP file.

    The template must contain ``{lp}`` and ``{sol}`` placeholders and may
    contain ``{time_limit}`` (0 when no limit is set).  Any existing file
    at ``sol_path`` is removed first, so a stale solution is never taken
    for a fresh one.  Raises ``SolverError`` when the command fails or
    writes no solution file.
    """
    if "{lp}" not in command or "{sol}" not in command:
        raise SolverError("solver command must contain {lp} and {sol}: %r"
                          % command)
    fields = {"lp": lp_path, "sol": sol_path}
    if "{time_limit}" in command:
        fields["time_limit"] = time_limit or 0
    with contextlib.suppress(FileNotFoundError):
        os.remove(sol_path)
    proc = subprocess.run(command.format(**fields), shell=True,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SolverError("external solver failed (%d): %s"
                          % (proc.returncode, proc.stderr.strip()[:500]))
    if not os.path.exists(sol_path):
        raise SolverError("external solver produced no solution file")


def solve_external(model: IlpModel, command: Optional[str] = None,
                   time_limit: Optional[float] = None) -> SolveResult:
    """Solve via an external MILP solver invoked from a command template.

    The template (default: ``default_solver_command()``) is run by
    ``run_solver_command``; the solution file is read by ``load_solution``.
    """
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        lp_path = os.path.join(tmp, "model.lp")
        sol_path = os.path.join(tmp, "model.sol")
        write_lp(model, lp_path)
        run_solver_command(command or default_solver_command(), lp_path,
                           sol_path, time_limit)
        reported, assignment = load_solution(model, sol_path)
    verify_assignment(model, assignment)
    objective = recompute_objective(model, assignment)
    if reported is not None and abs(reported - objective) > TOL:
        raise SolverError("objective mismatch: solver reported %r, "
                          "recomputed %r" % (reported, objective))
    return SolveResult("optimal", objective, assignment,
                       wall_time=time.monotonic() - start)


def write_solution(path, objective: float, values, integer):
    """Write ``(name, value)`` pairs under an objective header, rounding
    the values of the names in ``integer``; the format ``parse_solution``
    reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# Objective value = %.12g\n" % objective)
        for name, value in values:
            if name in integer:
                value = round(value)
            handle.write("%s %.12g\n" % (name, value))


def parse_solution(path) -> Tuple[Optional[float], Dict[str, float]]:
    """Read ``<variable> <value>`` lines and an optional
    ``# Objective value = <x>`` header; raises ``SolverError`` on a
    malformed line or objective header."""
    reported = None
    values: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line and "objective" in line.lower():
                    try:
                        reported = float(line.split("=", 1)[1])
                    except ValueError:
                        raise SolverError("malformed objective header %r"
                                          % line)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SolverError("malformed solution line %r" % line)
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                raise SolverError("malformed solution line %r" % line)
    return reported, values


def load_solution(model: IlpModel, path
                  ) -> Tuple[Optional[float], Dict[str, float]]:
    """Solution file values for every variable of ``model``.

    Binary and integer values are rounded after a ``TOL`` integrality check;
    names the model does not declare are ignored.  Returns the reported
    objective (or None) and the assignment; raises ``SolverError`` on a
    missing variable or a non-integral value.
    """
    reported, raw = parse_solution(path)
    assignment = {}
    for name, var in model.variables.items():
        if name not in raw:
            raise SolverError("solution file lacks variable %s" % name)
        val = raw[name]
        if var.kind in (BINARY, INTEGER):
            rounded = round(val)
            if abs(val - rounded) > TOL:
                raise SolverError("non-integral value %r for %s"
                                  % (val, name))
            val = float(rounded)
        assignment[name] = val
    return reported, assignment


def solve(model: IlpModel, time_limit: Optional[float] = None
          ) -> SolveResult:
    """The internal branch-and-bound, or the external solver when the
    branch-and-bound exhausts ``WORK_BUDGET``; a set ``SPP_DCJ_SOLVER``
    sends every model to the external solver.

    The external solver gets what is left of ``time_limit``.
    """
    if SOLVER_ENV in os.environ:
        return solve_external(model, time_limit=time_limit)
    start = time.monotonic()
    try:
        return solve_internal(model, time_limit=time_limit)
    except BudgetExhausted:
        if time_limit is not None:
            # a floor keeps the limit set: a template reads 0 as no limit
            time_limit = max(time_limit - (time.monotonic() - start), 1e-3)
        return solve_external(model, time_limit=time_limit)
