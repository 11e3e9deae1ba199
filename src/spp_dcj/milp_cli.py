"""Bundled MILP backend: solve an LP-format model with scipy's HiGHS.

Reads exactly the LP dialect ``ilp.write_lp`` writes (README, File formats):
the six section headers as written, one labelled objective line (``obj: 0``
when empty), named one-line rows, ``lb <= name <= ub`` bounds and one name
per line under Binaries and Generals, with finite numbers and a
coefficient after every sign, and the ``End`` line last; any other line,
and a file that ends before ``End``, is an ``LpFormatError``.
The solution is written with ``solver.write_solution``, the format the
external-solver bridge reads.  ``spp-dcj solve --internal`` is this
module's command line, with ``spp-dcj``'s exit codes.

``parse_lp`` reads the text straight into the typed arrays HiGHS takes
(``LpProblem``), its rows in ``ilp.Rows``' compressed form.

HiGHS sees only the free columns.  ``solve`` first fixes every column that
the bounds and the equality rows over integer columns imply (C.01's
``o = 1``, the 0/1 sums of C.02, the C.03 siblings and C.10's ``t = 0``
fix about a third of the model's columns), folds the fixed columns into
the row bounds and an objective constant, and hands HiGHS the rest.  Its
result still holds a value for every parsed column and the objective of
the whole model.  The LP file, the idmap and external solvers see the
whole model.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional

import numpy as np

from .io import ParseError
from .solver import (SolverError, _finite, _relative_gap, check_time_limit,
                     write_solution)


class LpFormatError(ParseError):
    pass


class LpProblem:
    """An LP model in the form the HiGHS call takes, in typed arrays:
    columns numbered in order of first appearance, with one float64
    objective coefficient and one [lower, upper] range each, and the int32
    indices of the integer columns; the rows in ``ilp.Rows``' compressed
    form, row ``r`` holding the terms ``cols[k]``, ``values[k]`` for
    ``starts[r] <= k < starts[r + 1]`` (int32 ``starts`` and ``cols``,
    float64 ``values``), and one float64 [lower, upper] range per row."""

    def __init__(self):
        self.names: List[str] = []
        self.objective = array("d")
        self.lower = array("d")
        self.upper = array("d")
        self.integer = array("i")
        self.starts = array("i", [0])
        self.cols = array("i")
        self.values = array("d")
        self.row_lower = array("d")
        self.row_upper = array("d")


def _column(problem: LpProblem, index: Dict[str, int], name: str) -> int:
    """The column of ``name``, a new one at its first appearance."""
    vi = index.get(name)
    if vi is None:
        vi = index[name] = len(problem.names)
        problem.names.append(name)
        problem.objective.append(0.0)
        problem.lower.append(0.0)
        problem.upper.append(math.inf)
    return vi


_SENSES = frozenset(("<=", ">=", "="))
_HEADERS = frozenset(("Maximize", "Subject To", "Bounds", "Binaries",
                      "Generals", "End"))


def _parse_terms(problem: LpProblem, index: Dict[str, int],
                 tokens: List[str], cols, values):
    """Append the column and signed coefficient of every ``[+|-] coef name``
    term to ``cols`` and ``values``: each sign is followed by a coefficient,
    and each coefficient is a finite number."""
    sign = 0.0  # the factor of a sign read before a coefficient, else 0
    tokens = iter(tokens)
    for tok in tokens:
        if tok == "+" or tok == "-":
            if sign:
                raise ValueError("sign %r follows a sign" % tok)
            sign = 1.0 if tok == "+" else -1.0
            continue
        try:
            coef = float(tok)
        except ValueError:
            raise ValueError("expected coefficient, got %r" % tok)
        if coef - coef:  # NaN for an infinite or NaN coefficient
            raise ValueError("coefficient %r is not a finite number" % tok)
        name = next(tokens, None)
        if name is None:
            raise ValueError("dangling coefficient %r" % tok)
        vi = index.get(name)
        cols.append(_column(problem, index, name) if vi is None else vi)
        values.append(-coef if sign < 0 else coef)
        sign = 0.0
    if sign:
        raise ValueError("a sign is not followed by a coefficient")


def parse_lp(path) -> LpProblem:
    """Read an LP file; raises ``LpFormatError`` with the path and line
    number of the first malformed line, or of the last line when the file
    ends without its ``End`` line (a truncated file, which would otherwise
    be solved without its missing rows or integrality)."""
    problem = LpProblem()
    index: Dict[str, int] = {}  # name -> column, for the parse only
    section = None
    lineno = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line in _HEADERS:
                section = line
                continue
            try:
                _parse_line(problem, index, section, line)
            except ValueError as exc:
                raise LpFormatError(path, lineno, str(exc))
            if section == "Maximize":
                section = None  # the objective is a single line
    if section != "End":
        raise LpFormatError(path, max(lineno, 1),
                            "the file ends without an End line")
    return problem


def _parse_line(problem: LpProblem, index: Dict[str, int],
                section: Optional[str], line: str):
    if section == "Subject To":
        name, colon, body = line.partition(":")
        if not colon or not name:
            raise ValueError("unnamed constraint: %r" % line)
        tokens = body.split()
        if (len(tokens) < 2 or tokens[-2] not in _SENSES
                or not _SENSES.isdisjoint(tokens[:-2])):
            raise ValueError("malformed constraint: %r" % line)
        _parse_terms(problem, index, tokens[:-2], problem.cols,
                     problem.values)
        problem.starts.append(len(problem.cols))
        sense, rhs = tokens[-2], _finite(tokens[-1])
        if rhs is None:
            raise ValueError("right-hand side %r is not a finite number"
                             % tokens[-1])
        problem.row_lower.append(-math.inf if sense == "<=" else rhs)
        problem.row_upper.append(math.inf if sense == ">=" else rhs)
    elif section == "Maximize":
        label, colon, body = line.partition(":")
        if not colon or not label:
            raise ValueError("unlabelled objective: %r" % line)
        tokens = body.split()
        if tokens == ["0"]:
            return  # the empty objective
        cols: List[int] = []
        values: List[float] = []
        _parse_terms(problem, index, tokens, cols, values)
        for vi, coef in zip(cols, values):
            problem.objective[vi] += coef
    elif section == "Bounds":
        parts = line.split()
        if len(parts) != 5 or parts[1] != "<=" or parts[3] != "<=":
            raise ValueError("malformed bound: %r" % line)
        lower, upper = _finite(parts[0]), _finite(parts[4])
        if lower is None or upper is None:
            raise ValueError("bound that is not a finite number: %r" % line)
        vi = _column(problem, index, parts[2])
        problem.lower[vi] = lower
        problem.upper[vi] = upper
    elif section in ("Binaries", "Generals"):
        if len(line.split()) != 1:
            raise ValueError("expected one variable name: %r" % line)
        vi = _column(problem, index, line)
        problem.integer.append(vi)
        if section == "Binaries" and problem.upper[vi] == math.inf:
            problem.upper[vi] = 1.0  # [0, 1] unless Bounds set a finite range
    elif section == "End":
        raise ValueError("content after End: %r" % line)
    else:
        raise ValueError("line outside any section: %r" % line)


def solve(problem: LpProblem, time_limit: Optional[float] = None):
    """Solve ``problem`` with HiGHS to a zero gap, within ``time_limit``
    unless it is None; raises ``ValueError`` as ``check_time_limit`` does.

    HiGHS gets only the columns that ``_implied_fixings`` leaves free, in
    their parsed order.  The fixed columns are folded into the row bounds
    and into an objective constant, and a row left with no free column is
    checked and dropped.  Every fixing is implied by the rows and the
    bounds, so the feasible set and the optimum are those of the whole
    problem, and a conflict is the infeasibility HiGHS would report.  The
    result holds one ``x`` per parsed column, and ``fun``,
    ``mip_dual_bound`` and ``mip_gap`` on the whole problem's scale.

    ``problem`` is read and never changed; its ``integer`` may be any
    iterable of column indices.  ``solve`` copies what it needs, then
    drops its reference to ``problem``, the full matrix and the matrix of
    the free columns before HiGHS runs, keeping only what HiGHS is given.
    """
    check_time_limit(time_limit)
    from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
    from scipy.sparse import csr_matrix

    nvar = len(problem.names)
    c = -np.asarray(problem.objective, dtype=float)  # HiGHS minimizes
    lb = np.array(problem.lower, dtype=float)
    ub = np.array(problem.upper, dtype=float)
    integer = np.zeros(nvar, dtype=bool)
    integer[np.fromiter(problem.integer, np.intp)] = True
    # copies of the row buffers, which the two calls below rewrite in place
    matrix = csr_matrix((np.array(problem.values, dtype=float),
                         np.array(problem.cols, dtype=np.int32),
                         np.array(problem.starts, dtype=np.int32)),
                        shape=(len(problem.row_lower), nvar))
    matrix.sum_duplicates()  # one entry per column of a row, in column order
    matrix.eliminate_zeros()  # 0 * inf would make an activity NaN
    row_lower = np.array(problem.row_lower, dtype=float)
    row_upper = np.array(problem.row_upper, dtype=float)
    del problem  # solve reads only its own copies from here on

    fixed = _implied_fixings(matrix, row_lower, row_upper, lb, ub, integer)
    if fixed is None:
        return _unsolved("the equality rows admit no value of a column")
    free = np.isnan(fixed)
    value = np.where(free, 0.0, fixed)
    shift = matrix @ value
    reduced = matrix[:, free]
    del matrix
    row_lower -= shift
    row_upper -= shift
    empty = np.diff(reduced.indptr) == 0
    if (np.any(row_lower[empty] > _FEASIBILITY_TOL)
            or np.any(row_upper[empty] < -_FEASIBILITY_TOL)):
        return _unsolved("a row's fixed columns violate its bounds")
    offset = float(c @ value)
    if not free.any():
        return OptimizeResult(
            x=value, fun=offset, success=True, status=0,
            message="Optimization terminated successfully. "
                    "(the rows and bounds fix every column)",
            mip_node_count=0, mip_dual_bound=offset, mip_gap=0.0)

    kept = ~empty
    constraints = LinearConstraint(reduced[kept], row_lower[kept],
                                   row_upper[kept])
    del reduced
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(c[free], constraints=constraints,
                  integrality=integer[free], bounds=Bounds(lb[free], ub[free]),
                  options=options)
    if result.x is not None:
        value[free] = result.x
        result.x = value
        result.fun += offset
    if result.mip_dual_bound is not None:
        result.mip_dual_bound += offset
        if result.fun is not None:
            result.mip_gap = _relative_gap(result.fun, result.mip_dual_bound)
    return result


# HiGHS's default primal feasibility tolerance, for the rows whose every
# column is fixed
_FEASIBILITY_TOL = 1e-7


def _unsolved(reason: str):
    """The result HiGHS gives an infeasible problem."""
    from scipy.optimize import OptimizeResult
    return OptimizeResult(x=None, fun=None, success=False, status=2,
                          message="The problem is infeasible: " + reason,
                          mip_node_count=None, mip_dual_bound=None,
                          mip_gap=None)


def _implied_fixings(matrix, row_lower, row_upper, lb, ub, integer):
    """Per column the value the rows and bounds fix it to, NaN where it
    stays free; None when they admit no value.

    A column is fixed by equal bounds, or by an equality row whose columns
    are all integer with integral bounds and whose coefficients are
    integral, so that its activities are summed exactly.  Such a row at its
    least activity holds only if each of its columns sits at the bound that
    gives that activity (the lower one under a positive coefficient, the
    upper one under a negative one); at its greatest activity, at the other
    bound.  Every fixing is thus implied by the rows and the bounds, and
    removes no feasible point.  Fixings tighten the activities of other
    rows, so the rounds repeat until one fixes nothing.  A row whose least
    activity is above its right-hand side, or greatest below, and a column
    that two rows fix to different bounds admit no feasible point.
    """
    nrow = matrix.shape[0]
    rows = np.repeat(np.arange(nrow), np.diff(matrix.indptr))
    cols, coefs = matrix.indices, matrix.data
    integral = integer & (np.floor(lb) == lb) & (np.floor(ub) == ub)
    foldable = integral | ~integer  # an integer column only at an integer
    inexact = ~integral[cols] | (np.floor(coefs) != coefs)
    exact_rows = ((row_lower == row_upper) & np.isfinite(row_lower)
                  & (np.bincount(rows, inexact, nrow) == 0))
    take = exact_rows[rows]
    rows, cols, coefs = rows[take], cols[take], coefs[take]
    positive = coefs > 0
    rhs = row_lower
    lo, hi = lb.copy(), ub.copy()
    nfixed = -1
    while True:
        if np.any(lo > hi):
            return None
        fixed = (lo == hi) & foldable
        if fixed.sum() == nfixed:
            return np.where(fixed, lo, np.nan)
        nfixed = fixed.sum()
        at_lo, at_hi = coefs * lo[cols], coefs * hi[cols]
        least = np.bincount(rows, np.where(positive, at_lo, at_hi), nrow)
        most = np.bincount(rows, np.where(positive, at_hi, at_lo), nrow)
        if np.any(least[exact_rows] > rhs[exact_rows]) or np.any(
                most[exact_rows] < rhs[exact_rows]):
            return None
        tight_least, tight_most = (least == rhs)[rows], (most == rhs)[rows]
        to_lower = cols[np.where(positive, tight_least, tight_most)]
        to_upper = cols[np.where(positive, tight_most, tight_least)]
        lo_next = lo.copy()
        lo_next[to_upper] = hi[to_upper]
        hi[to_lower] = lo[to_lower]
        lo = lo_next


def solve_file(lp_path, sol_path, time_limit: Optional[float] = None):
    """Parse an LP file, solve it with HiGHS and write the solution file.

    Raises ``OSError`` or ``LpFormatError`` on an unreadable or malformed
    LP and ``SolverError`` when HiGHS ends without an optimal solution.
    """
    problem = parse_lp(lp_path)
    names = problem.names
    integer = np.zeros(len(names), dtype=bool)
    integer[np.asarray(problem.integer, dtype=np.intp)] = True
    # solve gets the only reference to the parsed arrays, and drops it
    # before HiGHS runs (CPython 3.11 and later hand a callee its
    # arguments' references)
    handover = [problem]
    del problem
    result = solve(handover.pop(), time_limit=time_limit)
    if not result.success:
        raise SolverError("solver status %s: %s"
                          % (result.status, result.message))
    write_solution(sol_path, -result.fun, names, result.x.tolist(),
                   integer.tolist())
