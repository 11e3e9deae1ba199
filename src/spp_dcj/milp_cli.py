"""Bundled MILP backend: solve an LP-format model with scipy's HiGHS.

Understands the LP dialect this package writes (single-line constraints,
explicit coefficients, Maximize objective) and writes the solution with
``solver.write_solution``, the format the external-solver bridge reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from .io import ParseError
from .solver import SolverError, write_solution


class LpFormatError(ParseError):
    pass


class LpProblem:
    def __init__(self):
        self.variables: List[str] = []
        self.index: Dict[str, int] = {}
        self.objective: Dict[int, float] = {}
        self.constraints: List[Tuple[Dict[int, float], str, float]] = []
        self.lower: Dict[int, float] = {}
        self.upper: Dict[int, float] = {}
        self.integer: set = set()

    def var(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.variables)
            self.variables.append(name)
        return self.index[name]


def _parse_expr(problem: LpProblem, tokens: List[str]) -> Dict[int, float]:
    terms: Dict[int, float] = {}
    sign = 1.0
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "+":
            sign = 1.0
            pos += 1
            continue
        if tok == "-":
            sign = -1.0
            pos += 1
            continue
        try:
            coef = float(tok)
        except ValueError:
            raise ValueError("expected coefficient, got %r" % tok)
        if pos + 1 >= len(tokens):
            raise ValueError("dangling coefficient %r" % tok)
        name = tokens[pos + 1]
        vi = problem.var(name)
        terms[vi] = terms.get(vi, 0.0) + sign * coef
        sign = 1.0
        pos += 2
    return terms


def parse_lp(path) -> LpProblem:
    """Read an LP file; raises ``LpFormatError`` with the path and line
    number of the first malformed line."""
    problem = LpProblem()
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("\\"):
                continue
            lowered = line.lower()
            if lowered in ("maximize", "minimize", "subject to", "bounds",
                           "binaries", "binary", "generals", "general", "end"):
                section = lowered
                continue
            try:
                _parse_line(problem, section, line)
            except ValueError as exc:
                raise LpFormatError(path, lineno, str(exc))
    return problem


def _parse_line(problem: LpProblem, section: Optional[str], line: str):
    if section in ("maximize", "minimize"):
        body = line.split(":", 1)[1] if ":" in line else line
        terms = _parse_expr(problem, body.split())
        scale = 1.0 if section == "maximize" else -1.0
        for vi, coef in terms.items():
            problem.objective[vi] = (problem.objective.get(vi, 0.0)
                                     + scale * coef)
    elif section == "subject to":
        if ":" not in line:
            raise ValueError("unnamed constraint: %r" % line)
        body = line.split(":", 1)[1].split()
        sense_pos = next((i for i, tok in enumerate(body)
                          if tok in ("<=", ">=", "=")), None)
        if sense_pos is None or sense_pos != len(body) - 2:
            raise ValueError("malformed constraint: %r" % line)
        terms = _parse_expr(problem, body[:sense_pos])
        problem.constraints.append((terms, body[sense_pos], float(body[-1])))
    elif section == "bounds":
        parts = line.split()
        if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
            vi = problem.var(parts[2])
            problem.lower[vi] = float(parts[0])
            problem.upper[vi] = float(parts[4])
        elif len(parts) == 3 and parts[1] in ("<=", ">=", "="):
            vi = problem.var(parts[0])
            val = float(parts[2])
            if parts[1] in ("<=",):
                problem.upper[vi] = val
            elif parts[1] == ">=":
                problem.lower[vi] = val
            else:
                problem.lower[vi] = problem.upper[vi] = val
        else:
            raise ValueError("malformed bound: %r" % line)
    elif section in ("binaries", "binary"):
        for name in line.split():
            vi = problem.var(name)
            problem.integer.add(vi)
            problem.lower.setdefault(vi, 0.0)
            problem.upper.setdefault(vi, 1.0)
    elif section in ("generals", "general"):
        for name in line.split():
            problem.integer.add(problem.var(name))
    elif section == "end":
        raise ValueError("content after End: %r" % line)
    else:
        raise ValueError("line outside any section: %r" % line)


def solve(problem: LpProblem, time_limit: Optional[float] = None):
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import csr_matrix

    nvar = len(problem.variables)
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

    rows, cols, data, clo, cup = [], [], [], [], []
    for ri, (terms, sense, rhs) in enumerate(problem.constraints):
        for vi, coef in terms.items():
            rows.append(ri)
            cols.append(vi)
            data.append(coef)
        clo.append(rhs if sense in (">=", "=") else -np.inf)
        cup.append(rhs if sense in ("<=", "=") else np.inf)
    matrix = csr_matrix((data, (rows, cols)),
                        shape=(len(problem.constraints), nvar))
    options = {"mip_rel_gap": 0.0}
    if time_limit:
        options["time_limit"] = time_limit
    from scipy.optimize import Bounds
    result = milp(c, constraints=LinearConstraint(matrix, clo, cup),
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
    integer = {problem.variables[vi] for vi in problem.integer}
    write_solution(sol_path, -result.fun, zip(problem.variables, result.x),
                   integer)


def main(argv=None) -> int:
    """``spp-dcj-milp``: exit 0 solved, 1 no optimal solution, 2 bad input."""
    parser = argparse.ArgumentParser(
        description="Solve an LP-format MILP with HiGHS (via scipy)")
    parser.add_argument("lp", help="input model in LP format")
    parser.add_argument("sol", help="output solution file")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="solver time limit in seconds")
    args = parser.parse_args(argv)
    try:
        solve_file(args.lp, args.sol, time_limit=args.time_limit)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
