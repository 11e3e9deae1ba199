"""Benchmark of spp_dcj: time to a checked optimum, end to end and per layer.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 5
    python3 perfbench/run.py --workload pairs --seed 1 --seconds 5 --trace 1

Workloads (see BENCHMARK.json for why each exists):

* ``reconstruct``: four criterion-5 instances through the staged CLI pipeline
  ``build -> solve --internal -> extract -> evaluate``, in-process.
* ``hard``: one criterion-6 style instance through the same pipeline, where
  HiGHS proving optimality dominates.
* ``pairs``: pairwise distances through the library path ``build_model ->
  solver.solve -> decode -> audit``: tiny degenerate pairs drawn from the
  corpus's tiny-pair seed (checked against the exhaustive oracle), single
  edges of 20-family simulations (internal branch-and-bound) and resolved
  1000- and 3000-marker pairs (external HiGHS bridge).
* ``simulate``: ``spp-dcj simulate`` at 100 (four seeds) and 200 families
  (two seeds), with fixed simulation seeds.

Inputs come from the committed corpus (``corpus.py`` makes a held-out one,
used with ``--corpus``); they and the order of the items are fixed, so
``--seed`` is accepted but changes nothing.  The run is a closed loop with
one client: items run one at a time in that order,
and whole passes over the items repeat until ``--seconds`` have passed (at
least one pass).  Every output is checked; a failed item is
counted with its reason and the run goes on.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of one extra traced pass (spans written to
``.perfbench_work/traces/<workload>-seed<n>.jsonl``).

``setup_s`` is this process's set-up: imports, corpus load and digest
check, and the untimed warm-up items.  At most one solver process runs at a
time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from common import (CORPUS, WORK, BenchError, confine_temp,  # noqa: E402
                    install_solver_shim, load_manifest, use_sources)

NAMES = ("reconstruct", "hard", "pairs", "simulate")

END_TO_END = (("wall_s", "s"), ("item_s.p50", "s"), ("item_s.p90", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("recall.min", "ratio"), ("precision.min", "ratio"))

LAYERS = ("cli", "io", "linearize", "diagram", "ilp", "milp_cli", "solver",
          "extract", "sim")
VAR_CLASSES = ("adj", "capadj", "edge", "o", "capo", "y", "r", "z", "t", "s",
               "a")
PER_LAYER = (
    tuple(("layer.%s.s" % layer, "s") for layer in LAYERS)
    + (("cli.cmd_build.s", "s"), ("cli.cmd_solve.s", "s"),
       ("cli.cmd_extract.s", "s"), ("cli.cmd_evaluate.s", "s"),
       ("cli.cmd_simulate.s", "s"),
       ("io.read_adjacencies.s", "s"), ("io.read_adjacencies.calls", "count"),
       ("io.read_tree.s", "s"), ("io.write_adjacencies.s", "s"),
       ("io.write_tsv.s", "s"), ("io.bytes_read", "bytes"),
       ("linearize.find_nonlinearizable_component.s", "s"),
       ("linearize.find_nonlinearizable_component.calls", "count"),
       ("diagram.MultiRelationalDiagram.s", "s"),
       ("diagram.MultiRelationalDiagram.calls", "count"),
       ("diagram.classify_interior_components.s", "s"),
       ("diagram.enumerate_circular_singletons.s", "s"),
       ("diagram.singleton_candidates", "count"),
       ("diagram.decompose.s", "s"), ("diagram.decompose.calls", "count"),
       ("diagram.edges", "count"),
       ("diagram.telomeric_edges_removed", "count"),
       ("ilp.build_model.s", "s"), ("ilp.build_model.calls", "count"),
       ("ilp.emit_constraints.s", "s"), ("ilp.write_lp.s", "s"),
       ("ilp.lp_bytes", "bytes"))
    + tuple(("ilp.vars.%s" % cls, "count") for cls in VAR_CLASSES)
    + tuple(("ilp.rows.C.%02d" % i, "count") for i in range(1, 12))
    + (("milp_cli.parse_lp.s", "s"), ("milp_cli.solve.s", "s"),
       ("milp_cli.nodes", "count"), ("milp_cli.gap", "ratio"),
       ("milp_cli.dual_bound", "objective"),
       ("milp_cli.root_bound", "objective"),
       ("solver.solve_internal.s", "s"),
       ("solver.solve_internal.calls", "count"),
       ("solver.complete_assignment.s", "s"), ("solver.leaves", "count"),
       ("solver.verify_assignment.s", "s"), ("solver.solve_external.s", "s"),
       ("solver.parse_solution.s", "s"),
       ("solver.backend.internal", "count"),
       ("solver.backend.external", "count"),
       ("extract.decode.s", "s"), ("extract.validate.s", "s"),
       ("extract.audit.s", "s"), ("extract.evaluate.s", "s"),
       ("sim.evolve.s", "s"), ("sim.add_noise.s", "s"),
       ("sim.add_noise.calls", "count"), ("sim.added", "count"),
       ("sim.adversarial", "count"), ("sim.fallback", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="accepted for the benchmark interface; inputs "
                        "and item order are fixed by the corpus")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time; whole passes repeat "
                        "until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", default=CORPUS,
                        help="corpus directory (default: the committed one)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced item set, for the self-check")
    return parser.parse_args(argv)


def setup(args, work):
    """Everything before the timed loop; returns the workload."""
    use_sources()
    manifest = load_manifest(args.corpus)
    import workloads
    confine_temp(work)
    install_solver_shim(work)
    workload = workloads.make(args.workload, manifest, args.corpus, work,
                              quick=args.quick)
    for item in workload.warmups:
        try:
            item.check(item.run())
        except Exception as exc:
            workload.close()
            raise BenchError("warm-up item %s failed: %s: %s"
                             % (item.name, type(exc).__name__, exc)) from exc
    return workload


class Tally:
    """Item times, failures and quality scores of one run."""

    def __init__(self):
        self.times = []
        self.failures = []
        self.scores = {}

    def run(self, item, tracer=None):
        """Run and check one item; returns its wall time."""
        if tracer is not None:
            tracer.item, tracer.active = item.name, True
        start = time.perf_counter()
        try:
            output, error = item.run(), None
        except Exception as exc:  # a failed item is counted, the run goes on
            output, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.drain()
        if error is None:
            try:
                scores = item.check(output)
            except Exception as exc:  # a wrong output counts like a crash
                error = "%s: %s" % (type(exc).__name__, exc)
            else:
                if scores is not None:
                    self.scores[item.name] = scores
        if error is not None:
            self.failures.append((item.name, error))
            print("FAIL %s: %s" % (item.name, error), file=sys.stderr)
        self.times.append(elapsed)
        return elapsed


def measure(items, seconds, tally):
    """Whole passes until ``seconds`` have passed; returns pass wall times."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(sum(tally.run(item) for item in items))
        if time.perf_counter() - start >= seconds:
            return passes


def traced_pass(items, tally, trace_out):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        wall = sum(tally.run(item, tracer) for item in items)
    finally:
        tracer.uninstall()
    tracer.write(trace_out)
    return tracer, wall


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) \
        / 1024.0


def end_to_end(passes, tally, setup_s):
    scores = list(tally.scores.values())
    return {
        "wall_s": statistics.median(passes),
        "item_s.p50": statistics.median(tally.times),
        "item_s.p90": percentile(tally.times, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        # 0 (the worst score) when no item produced scores
        "recall.min": min((s["recall"] for s in scores), default=0.0),
        "precision.min": min((s["precision"] for s in scores), default=0.0),
    }


def per_layer(tracer, traced_wall, passes):
    seconds, calls = tracer.self_times()
    values = {"trace.wall_s": traced_wall,
              "trace.overhead_s": traced_wall - statistics.median(passes),
              "trace.spans": len(tracer.spans),
              "solver.leaves": tracer.leaves(),
              "solver.backend.internal": calls["solver.solve_internal"],
              "solver.backend.external": calls["solver.solve_external"]}
    for layer in LAYERS:
        values["layer.%s.s" % layer] = sum(
            s for name, s in seconds.items() if name.startswith(layer + "."))
    for name, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".s"):
            values[name] = seconds.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-6], 0)
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def main(argv=None):
    args = parse_args(argv)
    args.corpus = os.path.abspath(args.corpus)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=WORK)
    workload = None
    try:
        try:
            workload = setup(args, work)
        except BenchError as exc:
            print("benchmark cannot start: %s" % exc, file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - T0
        tally = Tally()
        passes = measure(workload.items, args.seconds, tally)
        metrics = end_to_end(passes, tally, setup_s)
        units = dict(END_TO_END)
        if args.trace:
            trace_out = os.path.join(WORK, "traces", "%s-seed%d.jsonl"
                                     % (args.workload, args.seed))
            tracer, traced_wall = traced_pass(workload.items, tally, trace_out)
            for name, value in sorted(metrics.items()):
                print("untraced %-44s %14.6f %s" % (name, value, units[name]))
            metrics = per_layer(tracer, traced_wall, passes)
            units = dict(PER_LAYER)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(tally.times), len(tally.failures)
    for name, value in metrics.items():
        print("%-53s %14.6f %s" % (name, value, units[name]))
    print("%-53s %14.6f ratio (%d failed of %d items, %d passes)"
          % ("fail_frac", failed / attempted, failed, attempted, len(passes)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
