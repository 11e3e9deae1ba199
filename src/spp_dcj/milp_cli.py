"""Bundled MILP backend: solve an LP-format model with scipy's HiGHS.

Reads exactly the LP dialect ``ilp.write_lp`` writes (README, File formats):
the six section headers as written, one labelled objective line (``obj: 0``
when empty), named one-line rows, ``lb <= name <= ub`` bounds and one name
per line under Binaries and Generals; any other line is an
``LpFormatError``.  The solution is written with ``solver.write_solution``,
the format the external-solver bridge reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from .io import ParseError
from .solver import SolverError, check_time_limit, write_solution


class LpFormatError(ParseError):
    pass


class LpProblem:
    """An LP model in the form the HiGHS call takes: columns numbered in
    order of first appearance, the constraint matrix as parallel
    (row, column, value) lists and one [lower, upper] range per row."""

    def __init__(self):
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.objective: Dict[int, float] = {}
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.values: List[float] = []
        self.row_lower: List[float] = []
        self.row_upper: List[float] = []
        self.lower: Dict[int, float] = {}
        self.upper: Dict[int, float] = {}
        self.integer: set = set()

    def var(self, name: str) -> int:
        vi = self.index.get(name)
        if vi is None:
            vi = self.index[name] = len(self.names)
            self.names.append(name)
        return vi


_SENSES = frozenset(("<=", ">=", "="))
_HEADERS = frozenset(("Maximize", "Subject To", "Bounds", "Binaries",
                      "Generals", "End"))


def _parse_terms(problem: LpProblem, tokens: List[str], cols: List[int],
                 values: List[float]):
    """Append the column and signed coefficient of every ``[+|-] coef name``
    term to ``cols`` and ``values``."""
    sign = 1.0
    tokens = iter(tokens)
    for tok in tokens:
        if tok == "+":
            sign = 1.0
            continue
        if tok == "-":
            sign = -1.0
            continue
        try:
            coef = float(tok)
        except ValueError:
            raise ValueError("expected coefficient, got %r" % tok)
        name = next(tokens, None)
        if name is None:
            raise ValueError("dangling coefficient %r" % tok)
        cols.append(problem.var(name))
        values.append(sign * coef)
        sign = 1.0


def parse_lp(path) -> LpProblem:
    """Read an LP file; raises ``LpFormatError`` with the path and line
    number of the first malformed line."""
    problem = LpProblem()
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if line in _HEADERS:
                section = line
                continue
            try:
                _parse_line(problem, section, line)
            except ValueError as exc:
                raise LpFormatError(path, lineno, str(exc))
            if section == "Maximize":
                section = None  # the objective is a single line
    return problem


def _parse_line(problem: LpProblem, section: Optional[str], line: str):
    if section == "Subject To":
        name, colon, body = line.partition(":")
        if not colon or not name:
            raise ValueError("unnamed constraint: %r" % line)
        tokens = body.split()
        if (len(tokens) < 2 or tokens[-2] not in _SENSES
                or not _SENSES.isdisjoint(tokens[:-2])):
            raise ValueError("malformed constraint: %r" % line)
        start = len(problem.cols)
        _parse_terms(problem, tokens[:-2], problem.cols, problem.values)
        sense, rhs = tokens[-2], float(tokens[-1])
        problem.rows.extend([len(problem.row_lower)]
                            * (len(problem.cols) - start))
        problem.row_lower.append(-np.inf if sense == "<=" else rhs)
        problem.row_upper.append(np.inf if sense == ">=" else rhs)
    elif section == "Maximize":
        label, colon, body = line.partition(":")
        if not colon or not label:
            raise ValueError("unlabelled objective: %r" % line)
        tokens = body.split()
        if tokens == ["0"]:
            return  # the empty objective
        cols: List[int] = []
        values: List[float] = []
        _parse_terms(problem, tokens, cols, values)
        for vi, coef in zip(cols, values):
            problem.objective[vi] = problem.objective.get(vi, 0.0) + coef
    elif section == "Bounds":
        parts = line.split()
        if len(parts) != 5 or parts[1] != "<=" or parts[3] != "<=":
            raise ValueError("malformed bound: %r" % line)
        vi = problem.var(parts[2])
        problem.lower[vi] = float(parts[0])
        problem.upper[vi] = float(parts[4])
    elif section in ("Binaries", "Generals"):
        if len(line.split()) != 1:
            raise ValueError("expected one variable name: %r" % line)
        vi = problem.var(line)
        problem.integer.add(vi)
        if section == "Binaries":
            problem.lower.setdefault(vi, 0.0)
            problem.upper.setdefault(vi, 1.0)
    elif section == "End":
        raise ValueError("content after End: %r" % line)
    else:
        raise ValueError("line outside any section: %r" % line)


def solve(problem: LpProblem, time_limit: Optional[float] = None):
    """Solve ``problem`` with HiGHS to a zero gap, within ``time_limit``
    unless it is None; raises ``ValueError`` as ``check_time_limit`` does."""
    check_time_limit(time_limit)
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    nvar = len(problem.names)
    c = np.zeros(nvar)
    for vi, coef in problem.objective.items():
        c[vi] = -coef  # HiGHS minimizes
    lb = np.zeros(nvar)
    ub = np.full(nvar, np.inf)
    for vi, val in problem.lower.items():
        lb[vi] = val
    for vi, val in problem.upper.items():
        ub[vi] = val
    integrality = np.zeros(nvar)
    for vi in problem.integer:
        integrality[vi] = 1

    matrix = csr_matrix((problem.values, (problem.rows, problem.cols)),
                        shape=(len(problem.row_lower), nvar))
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(c, constraints=LinearConstraint(matrix, problem.row_lower,
                                                  problem.row_upper),
                  integrality=integrality, bounds=Bounds(lb, ub),
                  options=options)
    return result


def solve_file(lp_path, sol_path, time_limit: Optional[float] = None):
    """Parse an LP file, solve it with HiGHS and write the solution file.

    Raises ``OSError`` or ``LpFormatError`` on an unreadable or malformed
    LP and ``SolverError`` when HiGHS ends without an optimal solution.
    """
    problem = parse_lp(lp_path)
    result = solve(problem, time_limit=time_limit)
    if not result.success:
        raise SolverError("solver status %s: %s"
                          % (result.status, result.message))
    integer = {problem.names[vi] for vi in problem.integer}
    write_solution(sol_path, -result.fun, zip(problem.names, result.x),
                   integer)


def main(argv=None) -> int:
    """``spp-dcj-milp``: exit 0 solved, 1 no optimal solution, 2 bad input."""
    parser = argparse.ArgumentParser(
        description="Solve an LP-format MILP with HiGHS (via scipy)")
    parser.add_argument("lp", help="input model in LP format")
    parser.add_argument("sol", help="output solution file")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="solver time limit in seconds, 0 for none")
    args = parser.parse_args(argv)
    try:
        solve_file(args.lp, args.sol, time_limit=args.time_limit or None)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
