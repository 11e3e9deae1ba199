"""Command-line front end.

Subcommands wire the pipeline: ``linearize`` → ``build`` → ``solve`` →
``extract``, with ``distance``, ``simulate`` and ``evaluate`` as utilities.

Exit codes: 0 ok, 1 usage, 2 parse error, 3 infeasible or out-of-scale
input, 4 solver failure or a bad solution file (malformed line or objective
header, missing variable, non-integral value).  A time limit, scale, surfeit
or family count outside its range is a usage error (1); a mixture, leaf
count or adversarial fraction outside its range is out-of-scale input (3).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from typing import Dict

from . import __version__
from . import io
from .diagram import DiagramError, SingletonExplosion
from .extract import (DISTANCE_HEADER, METRICS_HEADER, DecodeError, audit,
                      decode, distance_rows, evaluate, metrics_rows, validate)
from .genomes import FamilyAssignment, GenomeError, Phylogeny
from .ilp import ModelError, build_model, read_idmap, write_lp
from .linearize import augment, find_nonlinearizable_component
from .sim import EVENT_HEADER, SimConfig, add_noise, event_rows, evolve
from .solver import (SOLVER_ENV, SolverError, load_solution,
                     run_solver_command, solve)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _bounded(convert, ok, rule: str):
    """An argparse ``type``: ``convert(text)`` where ``ok`` holds for it,
    else a usage error saying that the value is not ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError("%s is not %s" % (text, rule))
        return value
    return parse


# written so that NaN fails
_positive_float = _bounded(float, lambda v: 0 < v < math.inf,
                           "a finite number > 0")
_non_negative_float = _bounded(float, lambda v: 0 <= v < math.inf,
                               "a finite number >= 0")
_positive_int = _bounded(int, lambda v: v >= 1, "an integer >= 1")


def _manifest(path, subcommand, args: Dict, stages: Dict[str, float]):
    payload = {
        "subcommand": subcommand,
        "arguments": {k: v for k, v in sorted(args.items())},
        "version": __version__,
        "wall_times": {k: round(v, 6) for k, v in stages.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _model_flags(parser: _Parser):
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="weight of the distance term (default 0.5)")
    parser.add_argument("--beta", type=float, default=0.25,
                        help="penalty per used telomere (default 0.25)")
    parser.add_argument("--families", metavar="TSV", default=None,
                        help="marker-to-family map; default: marker prefix")


def _load_families(path) -> FamilyAssignment:
    if path is None:
        return FamilyAssignment()
    return io.read_family_map(path)


def _build(args, tree, genomes):
    return build_model(tree, genomes, _load_families(args.families),
                       args.alpha, args.beta)


def cmd_linearize(args) -> int:
    genomes = io.read_adjacencies(args.adjacencies)
    augmented = {species: augment(g) for species, g in sorted(genomes.items())}
    io.write_adjacencies(augmented, args.output)
    return EXIT_OK


def cmd_build(args) -> int:
    start = time.monotonic()
    tree = io.read_tree(args.tree)
    genomes = io.read_adjacencies(args.adjacencies)
    for species in tree.nodes:
        bad = (find_nonlinearizable_component(genomes[species])
               if species in genomes else None)
        if bad is not None:
            raise ModelError(
                "genome %s is not linearizable: component {%s} admits no "
                "derived genome; run 'spp-dcj linearize' first"
                % (species, ", ".join(e.name for e in bad.component)))
    model = _build(args, tree, genomes)
    built = time.monotonic()
    write_lp(model, args.output, args.idmap)
    _manifest(args.output + ".manifest.json", "build", {
        "tree": args.tree, "adjacencies": args.adjacencies,
        "alpha": args.alpha, "beta": args.beta, "families": args.families,
    }, {"build": built - start, "write": time.monotonic() - built})
    return EXIT_OK


def cmd_solve(args) -> int:
    start = time.monotonic()
    # the command template that runs, None for the bundled HiGHS
    command = args.solver_cmd or (None if args.internal
                                  else os.environ.get(SOLVER_ENV))
    if command is not None:
        run_solver_command(command, args.model, args.output, args.time_limit)
    else:
        from . import milp_cli  # numpy and scipy load only when used
        milp_cli.solve_file(args.model, args.output, args.time_limit)
    _manifest(args.output + ".manifest.json", "solve", {
        "model": args.model, "internal": args.internal,
        "solver_cmd": command, "time_limit": args.time_limit,
    }, {"solve": time.monotonic() - start})
    return EXIT_OK


def cmd_extract(args) -> int:
    start = time.monotonic()
    tree = io.read_tree(args.tree)
    genomes = io.read_adjacencies(args.adjacencies)
    model = _build(args, tree, genomes)
    if args.idmap and read_idmap(args.idmap) != set(model.variables):
        raise ModelError("variable map does not match the rebuilt model; "
                         "rerun extract with the inputs and --families used "
                         "for build")
    reported, assignment = load_solution(model, args.solution)
    decoded = decode(model, assignment)
    validate(decoded, genomes)
    if reported is not None:
        audit(model, decoded, reported)
    io.write_adjacencies(decoded.genomes, args.genomes_out)
    io.write_tsv(args.distances_out, DISTANCE_HEADER, distance_rows(decoded))
    _manifest(args.genomes_out + ".manifest.json", "extract", {
        "solution": args.solution, "idmap": args.idmap, "tree": args.tree,
        "adjacencies": args.adjacencies, "alpha": args.alpha,
        "beta": args.beta, "families": args.families,
    }, {"extract": time.monotonic() - start})
    return EXIT_OK


def _rename_species(genome, species):
    from .genomes import Adjacency, DegenerateGenome, Extremity
    renamed = [Adjacency(tuple(Extremity(species, e.marker, e.kind)
                               for e in adj.ends), adj.weight)
               for adj in genome.adjacencies]
    return DegenerateGenome(species, renamed)


def cmd_distance(args) -> int:
    genomes_a = io.read_adjacencies(args.genome_a)
    genomes_b = io.read_adjacencies(args.genome_b)
    if len(genomes_a) != 1 or len(genomes_b) != 1:
        raise GenomeError("each distance input must hold exactly one species")
    (sa, ga), = genomes_a.items()
    (sb, gb), = genomes_b.items()
    if sa == sb:
        # comparing a genome against itself (or a same-named variant)
        sb = sa + "#2"
        gb = _rename_species(gb, sb)
    model = _build(args, Phylogeny([(sa, sb)]), {sa: ga, sb: gb})
    result = solve(model, time_limit=args.time_limit)
    if result.status == "infeasible":
        raise ModelError("no derived genome pair exists; run linearize first")
    decoded = decode(model, result.assignment)
    audit(model, decoded, result.objective)
    pd = decoded.distances[0]
    bd = pd.breakdown
    rows = [("distance", bd.distance), ("n_prime", "%g" % bd.n_prime),
            ("indel_free_cycles", bd.indel_free_cycles),
            ("transitions", bd.transitions),
            ("circular_singletons", bd.circular_singletons),
            ("used_telomeres", pd.used_telomeres),
            ("objective", "%.6f" % result.objective)]
    out = sys.stdout if args.output is None else open(
        args.output, "w", encoding="utf-8", newline="\n")
    try:
        for key, value in rows:
            out.write("%s\t%s\n" % (key, value))
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_simulate(args) -> int:
    start = time.monotonic()
    config = SimConfig(families=args.families_count, leaves=args.leaves,
                       scale=args.scale, seed=args.seed)
    result = evolve(config)
    # the noise is drawn before anything is written, so a bad value leaves
    # no partial output
    rng = random.Random(config.seed + 1)
    leaves = set(result.tree.leaves())
    noisy = {}
    for species in sorted(result.genomes):
        genome = result.genomes[species]
        if species in leaves:
            noisy[species] = genome
        else:
            noisy[species], _ = add_noise(
                genome, args.surfeit, rng,
                adversarial_fraction=args.adversarial)
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_tree(result.tree, os.path.join(args.out_dir, "tree.tsv"))
    io.write_adjacencies(result.genomes,
                         os.path.join(args.out_dir, "truth.tsv"))
    io.write_tsv(os.path.join(args.out_dir, "events.tsv"), EVENT_HEADER,
                 event_rows(result.events))
    io.write_adjacencies(noisy, os.path.join(args.out_dir, "degenerate.tsv"))
    _manifest(os.path.join(args.out_dir, "manifest.json"), "simulate", {
        "families": args.families_count, "leaves": args.leaves,
        "scale": args.scale, "seed": args.seed, "surfeit": args.surfeit,
        "adversarial": args.adversarial, "out_dir": args.out_dir,
    }, {"simulate": time.monotonic() - start})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predicted = io.read_adjacencies(args.predicted)
    truth = io.read_adjacencies(args.truth)
    metrics = evaluate(predicted, truth, _load_families(args.families))
    io.write_tsv(args.output, METRICS_HEADER, metrics_rows(metrics))
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="spp-dcj", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="augment genomes to guarantee "
                       "derived genomes exist")
    p.add_argument("adjacencies")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("build", help="assemble the ILP and write LP + idmap")
    p.add_argument("tree")
    p.add_argument("adjacencies")
    p.add_argument("-o", "--output", required=True, help="LP output path")
    p.add_argument("--idmap", default=None, help="variable map output path")
    _model_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an LP model")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True, help="solution file path")
    backend = p.add_mutually_exclusive_group()
    backend.add_argument("--internal", action="store_true",
                         help="use the bundled in-process HiGHS backend, "
                         "ignoring SPP_DCJ_SOLVER")
    backend.add_argument("--solver-cmd", default=None,
                         help="external command template with {lp}/{sol}")
    p.add_argument("--time-limit", type=_positive_float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extract", help="decode a solution into genomes and "
                       "distances")
    p.add_argument("solution")
    p.add_argument("tree")
    p.add_argument("adjacencies")
    p.add_argument("--idmap", default=None,
                   help="variable map from the build step, for consistency "
                   "checking")
    p.add_argument("--genomes-out", required=True)
    p.add_argument("--distances-out", required=True)
    _model_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("distance", help="pairwise weighted degenerate "
                       "DCJ-indel distance")
    p.add_argument("genome_a")
    p.add_argument("genome_b")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--time-limit", type=_positive_float, default=None)
    _model_flags(p)
    p.set_defaults(func=cmd_distance, alpha=1.0, beta=0.0)

    p = sub.add_parser("simulate", help="simulate evolution plus noisy "
                       "degenerate ancestors")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--families", dest="families_count", type=_positive_int,
                   default=100)
    p.add_argument("--leaves", type=int, default=10)
    p.add_argument("--scale", type=_non_negative_float, default=1.0)
    p.add_argument("--surfeit", type=_non_negative_float, default=1.2)
    p.add_argument("--adversarial", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="precision/recall of predicted "
                       "adjacencies against a truth set")
    p.add_argument("predicted")
    p.add_argument("truth")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--families", default=None,
                   help="marker-to-family map; default: marker prefix")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (io.ParseError, OSError, UnicodeDecodeError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (GenomeError, ModelError, DiagramError, SingletonExplosion,
            DecodeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
