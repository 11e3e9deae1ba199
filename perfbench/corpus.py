"""Generate the benchmark corpus and its manifest of digests and optima.

    python3 perfbench/corpus.py                 # rewrite perfbench/corpus
    python3 perfbench/corpus.py --seed 7 --out .perfbench_work/heldout

The default run reproduces the committed corpus from the documented seeds.
``--seed`` derives every simulation seed from one number instead, giving a
held-out corpus for checking a claim on inputs not used while writing the
change; run it against the benchmark with ``run.py --corpus DIR``.  Generate
a held-out corpus once and reuse it for both commits being compared.

Every reference optimum is computed by two backends and the generator stops
if they disagree beyond 1e-6: the internal branch-and-bound against HiGHS
(via the ``spp-dcj-milp`` bridge) for the simulated edges, and the library's
HiGHS bridge against the staged CLI pipeline otherwise.

An instance is kept only if the pipeline reaches its quality floor (mean
precision and recall over all species, as the runner checks) and HiGHS
proves its optimum within ``SOLVE_TIME_LIMIT``; otherwise the next
simulation seed is drawn, at most ``REDRAWS`` times.  The documented seeds
pass on the first draw, so only a held-out corpus is ever re-drawn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from common import (CORPUS, DISTANCE_MIXTURE, EDGE_MIXTURE, MANIFEST, TOL,
                    WORK, CommandFailed, confine_temp, evaluation_scores,
                    header_objective, install_solver_shim, resolved_pair,
                    run_cli, sha256, use_sources)

# four of the twenty criterion-5 configs, (scale, surfeit, adversarial),
# spanning scales 1-5, surfeit 1.2/2.0 and adversarial 0/1; more do not fit
# the time budget of the benchmark's runs
RECONSTRUCT = ((1, 1.2, 0.0), (2, 2.0, 1.0), (4, 1.2, 1.0), (5, 2.0, 0.0))
RECONSTRUCT_SEED = 11
# criterion-6 style instance (uniform weights, fully adversarial noise)
HARD = dict(scale=4, surfeit=2.0, adversarial=1.0, seed=5)
# HiGHS time per instance above which a seed is re-drawn (HiGHS time over
# criterion-6 style seeds is heavy-tailed; the committed hard instance
# takes about 32 s) and the number of seeds tried per instance
SOLVE_TIME_LIMIT = 90.0
REDRAWS = 5
# small instance run untimed before the timed loop
WARMUP = dict(families=30, leaves=4, scale=1, surfeit=1.2, adversarial=0.0,
              seed=11)
EDGES = 36
EDGE_SIM = dict(families=20, leaves=4, scale=3, surfeit=1.5, adversarial=0.5)
# keep edges that make the branch-and-bound work (at least 16 leaves) but
# do not explode it, so that item_s.p90 of pairs falls among them; an edge
# whose branch-and-bound runs past EDGE_TIME_LIMIT seconds is skipped
EDGE_LEAVES = (16, 3000)
EDGE_TIME_LIMIT = 10.0
# the criterion-3 seed; the tiny pairs are drawn at set-up from this seed
TINY_SEED = 33
LARGE = (1000, 3000)  # markers; n/10 inversions each


class CrossCheckError(RuntimeError):
    pass


def _agree(label, first, second):
    if abs(first - second) > TOL:
        raise CrossCheckError("%s: backends disagree, %r vs %r"
                              % (label, first, second))


def simulate(out_dir, families, leaves, scale, surfeit, adversarial, seed):
    """Simulate into ``out_dir`` keeping tree, truth and degenerate files."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run_cli("simulate", tmp, "--seed", seed, "--families", families,
             "--leaves", leaves, "--scale", scale, "--surfeit", surfeit,
             "--adversarial", adversarial)
        os.makedirs(out_dir, exist_ok=True)
        for name in ("tree.tsv", "degenerate.tsv", "truth.tsv"):
            shutil.copy(os.path.join(tmp, name), os.path.join(out_dir, name))


def pipeline_reference(instance_dir, alpha=0.5, beta=0.25):
    """Optimum of a tree instance via the CLI pipeline, cross-checked by the
    library's HiGHS bridge; also returns the CLI evaluation scores.  Raises
    ``CommandFailed`` when HiGHS does not finish within SOLVE_TIME_LIMIT."""
    from spp_dcj import io
    from spp_dcj.genomes import FamilyAssignment
    from spp_dcj.ilp import build_model
    from spp_dcj.solver import solve_external
    tree = os.path.join(instance_dir, "tree.tsv")
    adjs = os.path.join(instance_dir, "degenerate.tsv")
    mix = ["--alpha", alpha, "--beta", beta]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        lp, sol = os.path.join(tmp, "m.lp"), os.path.join(tmp, "m.sol")
        idmap = os.path.join(tmp, "idmap.tsv")
        genomes_out = os.path.join(tmp, "genomes.tsv")
        run_cli("build", tree, adjs, "-o", lp, "--idmap", idmap, *mix)
        run_cli("solve", lp, "-o", sol, "--internal",
                "--time-limit", SOLVE_TIME_LIMIT)
        run_cli("extract", sol, tree, adjs, "--idmap", idmap,
                "--genomes-out", genomes_out,
                "--distances-out", os.path.join(tmp, "d.tsv"), *mix)
        cli_value = header_objective(sol)
        scores = None
        truth = os.path.join(instance_dir, "truth.tsv")
        if os.path.exists(truth):
            metrics = os.path.join(tmp, "metrics.tsv")
            run_cli("evaluate", genomes_out, truth, "-o", metrics)
            scores = evaluation_scores(metrics,
                                       set(io.read_tree(tree).leaves()))
    model = build_model(io.read_tree(tree), io.read_adjacencies(adjs),
                        FamilyAssignment(), alpha, beta)
    lib_value = solve_external(model, time_limit=SOLVE_TIME_LIMIT).objective
    _agree(instance_dir, cli_value, lib_value)
    return cli_value, len(model.variables), scores


def count_leaves(model):
    """Solve with the internal branch-and-bound, counting its leaves."""
    from spp_dcj import solver
    original = solver.complete_assignment
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    solver.complete_assignment = counted
    try:
        result = solver.solve_internal(model, time_limit=EDGE_TIME_LIMIT)
    finally:
        solver.complete_assignment = original
    return result, calls[0] - 1  # the final fill-in is not a leaf


def make_edges(out_dir, base_seed):
    from spp_dcj import io
    entries = []
    seed = base_seed
    while len(entries) < EDGES:
        seed += 1
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            simulate(tmp, seed=seed, **EDGE_SIM)
            tree = io.read_tree(os.path.join(tmp, "tree.tsv"))
            noisy = io.read_adjacencies(os.path.join(tmp, "degenerate.tsv"))
            truth = io.read_adjacencies(os.path.join(tmp, "truth.tsv"))
        for a, b in tree.edges:
            if len(entries) < EDGES:
                add_edge(out_dir, entries, seed, a, b, noisy, truth)
    return entries


def add_edge(out_dir, entries, seed, a, b, noisy, truth):
    """Keep edge a-b when its branch-and-bound leaf count is in range."""
    from spp_dcj import io
    from spp_dcj.genomes import FamilyAssignment, Phylogeny
    from spp_dcj.ilp import build_model
    from spp_dcj.solver import solve_external
    model = build_model(Phylogeny([(a, b)]), {a: noisy[a], b: noisy[b]},
                        FamilyAssignment(), *EDGE_MIXTURE)
    internal, leaves = count_leaves(model)
    if internal.status != "optimal" \
            or not EDGE_LEAVES[0] <= leaves <= EDGE_LEAVES[1]:
        return
    _agree("edge %s-%s of seed %d" % (a, b, seed), internal.objective,
           solve_external(model).objective)
    name = "e%02d" % (len(entries) + 1)
    io.write_adjacencies({a: noisy[a], b: noisy[b]},
                         os.path.join(out_dir, name + ".tsv"))
    io.write_adjacencies({a: truth[a], b: truth[b]},
                         os.path.join(out_dir, name + ".truth.tsv"))
    entries.append({"name": name, "file": "edges/%s.tsv" % name,
                    "truth": "edges/%s.truth.tsv" % name,
                    "species": [a, b], "seed": seed,
                    "variables": len(model.variables),
                    "bnb_leaves": leaves, "optimum": internal.objective})


def make_large(out_dir, base_seed):
    from spp_dcj import io
    from spp_dcj.genomes import FamilyAssignment, Phylogeny
    from spp_dcj.ilp import build_model
    from spp_dcj.solver import solve
    entries = []
    for markers in LARGE:
        inversions = markers // 10
        seed = base_seed + markers
        a, b = resolved_pair(markers, inversions, seed)
        name = "p%d" % markers
        inst = os.path.join(out_dir, name)
        os.makedirs(inst, exist_ok=True)
        io.write_adjacencies({"A": a, "B": b},
                             os.path.join(inst, "degenerate.tsv"))
        with open(os.path.join(inst, "tree.tsv"), "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write("A\tB\n")
        cli_value, variables, _ = pipeline_reference(inst, *DISTANCE_MIXTURE)
        model = build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                            FamilyAssignment(), *DISTANCE_MIXTURE)
        _agree(name, cli_value, solve(model).objective)
        entries.append({"name": name, "file": "large/%s/degenerate.tsv" % name,
                        "markers": markers, "inversions": inversions,
                        "seed": seed, "variables": variables,
                        "optimum": cli_value})
    return entries


def instance_entry(out_dir, rel, floor, seed, families=100, leaves=10,
                   **sim):
    """Simulate a tree instance from ``seed``, or from the next seeds when
    it misses its floor or HiGHS needs more than SOLVE_TIME_LIMIT."""
    inst = os.path.join(out_dir, rel)
    for draw in range(seed, seed + REDRAWS):
        simulate(inst, families=families, leaves=leaves, seed=draw, **sim)
        try:
            optimum, variables, scores = pipeline_reference(inst)
        except CommandFailed as exc:
            print("%s seed %d re-drawn: %s (time limit %g s)"
                  % (rel, draw, exc, SOLVE_TIME_LIMIT), file=sys.stderr)
            continue
        low = min(scores["precision_mean"], scores["recall_mean"])
        if low < floor:
            print("%s seed %d re-drawn: score %.4f below floor %.2f"
                  % (rel, draw, low, floor), file=sys.stderr)
            continue
        print("%s: seed %d, optimum %r, %d variables, %r"
              % (rel, draw, optimum, variables, scores), file=sys.stderr)
        return dict(name=os.path.basename(rel), dir=rel, optimum=optimum,
                    variables=variables, floor=floor, scores=scores,
                    families=families, leaves=leaves, seed=draw, **sim)
    raise CrossCheckError("%s: no seed in %d..%d meets the floor and the "
                          "time limit" % (rel, seed, seed + REDRAWS - 1))


def generate(out_dir, seed=None):
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        confine_temp(work)
        install_solver_shim(work)
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.makedirs(out_dir)
        rec_seed = RECONSTRUCT_SEED if seed is None else seed
        reconstruct = [
            instance_entry(out_dir, "reconstruct/s%d-%g-%g" % cfg, 0.99,
                           scale=cfg[0], surfeit=cfg[1], adversarial=cfg[2],
                           seed=rec_seed)
            for cfg in RECONSTRUCT]
        hard_sim = dict(HARD, seed=HARD["seed"] if seed is None else seed)
        hard = [instance_entry(out_dir, "hard/s%d-seed%d" % (
            hard_sim["scale"], hard_sim["seed"]), 0.95, **hard_sim)]
        warm_sim = dict(WARMUP, seed=WARMUP["seed"] if seed is None else seed)
        warmup = instance_entry(out_dir, "warmup", 0.95, **warm_sim)
        base = 0 if seed is None else 1000 * seed
        os.makedirs(os.path.join(out_dir, "edges"))
        edges = make_edges(os.path.join(out_dir, "edges"), base)
        large = make_large(os.path.join(out_dir, "large"), base)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    files = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, out_dir).replace(os.sep, "/")
            if rel != MANIFEST:
                files[rel] = sha256(full)
    manifest = {"seed": seed,
                "tiny_seed": TINY_SEED if seed is None else seed,
                "reconstruct": reconstruct, "hard": hard,
                "warmup": warmup, "edges": edges, "large": large,
                "files": dict(sorted(files.items()))}
    with open(os.path.join(out_dir, MANIFEST), "w", encoding="utf-8",
              newline="\n") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="derive every simulation seed from this number "
                        "(held-out corpus); default: the documented seeds")
    parser.add_argument("--out", default=CORPUS, help="corpus directory")
    args = parser.parse_args(argv)
    use_sources()
    generate(os.path.abspath(args.out), args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
