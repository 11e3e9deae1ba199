"""Spans around the public functions of the ``spp_dcj`` modules.

The tracer replaces each public function both in the module that defines it
and in every ``spp_dcj`` module that imported it by name, so a call is seen
however it is looked up (``spp_dcj.cli.build_model`` and
``spp_dcj.ilp.build_model`` are one span name, ``ilp.build_model``).  The
``MultiRelationalDiagram`` constructor is wrapped on the class.  ``genomes``
is the data model and is not wrapped: its cost stays in its callers' self
time.

Spans are kept in memory as ``[name, start, end, parent, item]`` and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Hooks see a call's arguments and result
after its span has closed, so counts are gathered where the work happens;
heavier counts are deferred to ``drain``, which runs outside every span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "io", "linearize", "diagram", "ilp", "solver", "milp_cli",
           "extract", "sim")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.active = False
        self.counts = Counter()
        self.deferred = []  # (kind, object) handled by drain()
        self._patched = []  # (owner, attribute, original)
        self._hooks = {
            "io.read_adjacencies": self._count_read,
            "io.read_tree": self._count_read,
            "io.read_family_map": self._count_read,
            "ilp.write_lp": self._count_lp,
            "ilp.build_model": self._defer_model,
            "diagram.enumerate_circular_singletons": self._count_singletons,
            "diagram.MultiRelationalDiagram": self._count_diagram,
            "milp_cli.parse_lp": self._defer_problem,
            "milp_cli.solve": self._count_milp,
            "sim.add_noise": self._count_noise,
        }

    # -- installation ---------------------------------------------------------

    def install(self):
        import importlib
        modules = {name: importlib.import_module("spp_dcj." + name)
                   for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap("%s.%s" % (short, attr), obj)
        # every binding of a wrapped function, in any spp_dcj module
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("spp_dcj"):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(module, attr, wrapper)
        cls = modules["diagram"].MultiRelationalDiagram
        self._patch(cls, "__init__", self._wrap(
            "diagram.MultiRelationalDiagram", cls.__init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counting hooks -----------------------------------------------------

    def _count_read(self, args, result):
        self.counts["io.bytes_read"] += os.path.getsize(args[0])

    def _count_lp(self, args, result):
        self.counts["ilp.lp_bytes"] += os.path.getsize(args[1])

    def _defer_model(self, args, result):
        self.deferred.append(("model", result))

    def _count_singletons(self, args, result):
        self.counts["diagram.singleton_candidates"] += len(result)

    def _count_diagram(self, args, result):
        self.counts["diagram.edges"] += len(args[0].edges)

    def _defer_problem(self, args, result):
        self.deferred.append(("problem", result))

    def _count_milp(self, args, result):
        self.counts["milp_cli.nodes"] += result.mip_node_count or 0
        self.counts["milp_cli.dual_bound"] += -result.mip_dual_bound
        self.counts["milp_cli.gap"] = max(self.counts["milp_cli.gap"],
                                          result.mip_gap)

    def _count_noise(self, args, result):
        report = result[1]
        self.counts["sim.added"] += report.added
        self.counts["sim.adversarial"] += report.adversarial
        self.counts["sim.fallback"] += report.fallback

    def drain(self):
        """Counts that cost too much to take inside a span: model sizes,
        reduced telomeric edges and the root LP bound of each MILP."""
        for kind, obj in self.deferred:
            if kind == "model":
                for var in obj.variables.values():
                    self.counts["ilp.vars.%s" % var.meaning[0]] += 1
                for con in obj.constraints:
                    self.counts["ilp.rows.%s" % con.tag] += 1
                for ctx in obj.contexts:
                    self.counts["diagram.telomeric_edges_removed"] += \
                        telomeric_edges_removed(ctx.diagram)
            else:
                self.counts["milp_cli.root_bound"] += root_bound(obj)
        self.deferred = []

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Summed self time and call count per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds, calls = defaultdict(float), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += end - start - child_time[index]
            calls[name] += 1
        return seconds, calls

    def leaves(self):
        """Calls to complete_assignment made inside solve_internal: one per
        branch-and-bound leaf plus the final fill-in of each solve."""
        inside = set()
        count = 0
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            if name == "solver.solve_internal" or parent in inside:
                inside.add(index)
                if name == "solver.complete_assignment" and parent in inside:
                    count += 1
        return count

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "item": item}) + "\n")


def telomeric_edges_removed(diagram):
    """Telomeric extremity edges dropped by the telomere reduction: the
    unreduced diagram joins every telomere of one side to every telomere of
    the other."""
    kept = sum(1 for e in diagram.edges if e.is_telomeric_ext)
    full = len(diagram.telomeres_side("A")) * len(diagram.telomeres_side("B"))
    return full - kept


def root_bound(problem):
    """Objective bound of the LP relaxation, on the maximization scale."""
    import copy
    from spp_dcj import milp_cli
    relaxed = copy.copy(problem)
    relaxed.integer = set()
    return -milp_cli.solve(relaxed).fun
