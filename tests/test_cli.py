import argparse
import hashlib
import json
import os
import sys

import pytest

from spp_dcj import cli, io, solver
from spp_dcj.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, EXIT_SOLVER,
                         EXIT_USAGE, main)
from spp_dcj.extract import evaluate
from spp_dcj.genomes import FamilyAssignment, Phylogeny, is_genome
from spp_dcj.ilp import build_model
from spp_dcj.solver import write_solution

from util import build_genome, invert_segment, seeded

MILP_CMD = "%s -m spp_dcj.milp_cli {lp} {sol}" % sys.executable


def run(*argv):
    return main(list(argv))


def write_pair(tmp_path, name="pair.tsv"):
    a = build_genome("A", [(["1.1", "2.1", "3.1"], True)])
    b = build_genome("B", [(["1.1", "-2.1", "3.1"], True)])
    path = tmp_path / name
    io.write_adjacencies({"A": a, "B": b}, path)
    return path


def simulate(tmp_path, **overrides):
    args = {"seed": "1", "families": "10", "leaves": "4", "scale": "1.0",
            "surfeit": "1.4", "adversarial": "0.0"}
    args.update({k: str(v) for k, v in overrides.items()})
    out = tmp_path / "sim"
    assert run("simulate", str(out), "--seed", args["seed"],
               "--families", args["families"], "--leaves", args["leaves"],
               "--scale", args["scale"], "--surfeit", args["surfeit"],
               "--adversarial", args["adversarial"]) == EXIT_OK
    return out


def test_pipeline_smoke(tmp_path):
    sim = simulate(tmp_path)
    for fname in ("tree.tsv", "truth.tsv", "degenerate.tsv", "events.tsv",
                  "manifest.json"):
        assert (sim / fname).exists()
    lin = tmp_path / "linearized.tsv"
    assert run("linearize", str(sim / "degenerate.tsv"),
               "-o", str(lin)) == EXIT_OK
    lp = tmp_path / "model.lp"
    idmap = tmp_path / "idmap.tsv"
    assert run("build", str(sim / "tree.tsv"), str(lin), "-o", str(lp),
               "--idmap", str(idmap)) == EXIT_OK
    sol = tmp_path / "model.sol"
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    genomes_out = tmp_path / "genomes.tsv"
    dist_out = tmp_path / "distances.tsv"
    assert run("extract", str(sol), str(sim / "tree.tsv"), str(lin),
               "--idmap", str(idmap), "--genomes-out", str(genomes_out),
               "--distances-out", str(dist_out)) == EXIT_OK
    metrics_out = tmp_path / "metrics.tsv"
    assert run("evaluate", str(genomes_out), str(sim / "truth.tsv"),
               "-o", str(metrics_out)) == EXIT_OK

    predicted = io.read_adjacencies(genomes_out)
    truth = io.read_adjacencies(sim / "truth.tsv")
    assert set(predicted) == set(truth)
    for genome in predicted.values():
        assert is_genome(genome)
    overall = evaluate(predicted, truth)["overall"]
    assert overall.precision > 0.9 and overall.recall > 0.9
    # leaves were given as truth; they must come back unchanged
    tree = io.read_tree(sim / "tree.tsv")
    for leaf in tree.leaves():
        assert predicted[leaf] == truth[leaf]

    rows = [l.split("\t") for l in dist_out.read_text().splitlines()[1:]]
    assert len(rows) == len(tree.edges)
    assert all(int(r[2]) >= 0 for r in rows)

    manifest = json.loads((lp.parent / "model.lp.manifest.json").read_text())
    assert manifest["subcommand"] == "build"
    assert "wall_times" in manifest and "version" in manifest


def test_scale_zero_perfect_reconstruction(tmp_path):
    sim = simulate(tmp_path, scale="0.0", surfeit="1.5")
    lin = tmp_path / "lin.tsv"
    run("linearize", str(sim / "degenerate.tsv"), "-o", str(lin))
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(sim / "tree.tsv"), str(lin), "-o", str(lp)) == 0
    assert run("solve", str(lp), "-o", str(sol), "--internal") == 0
    gout, dout = tmp_path / "g.tsv", tmp_path / "d.tsv"
    assert run("extract", str(sol), str(sim / "tree.tsv"), str(lin),
               "--genomes-out", str(gout), "--distances-out", str(dout)) == 0
    overall = evaluate(io.read_adjacencies(gout),
                       io.read_adjacencies(sim / "truth.tsv"))["overall"]
    assert overall.precision == 1.0 and overall.recall == 1.0


def test_simulate_deterministic(tmp_path):
    s1 = simulate(tmp_path / "one")
    s2 = simulate(tmp_path / "two")
    for fname in ("tree.tsv", "truth.tsv", "degenerate.tsv", "events.tsv"):
        assert (s1 / fname).read_bytes() == (s2 / fname).read_bytes()


@pytest.mark.parametrize("fraction", ["1.5", "-0.5"])
def test_simulate_rejects_adversarial_fraction_outside_unit_interval(
        tmp_path, capsys, fraction):
    out = tmp_path / "sim"
    assert run("simulate", str(out), "--families", "10", "--leaves", "4",
               "--adversarial", fraction) == EXIT_INFEASIBLE
    assert "adversarial fraction %s" % fraction in capsys.readouterr().err
    assert not out.exists()


BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0")


def _rejects(code, values=BAD_NUMBERS[:4]):
    return dict.fromkeys(values, code)


MIXTURE = _rejects(EXIT_INFEASIBLE)
NOT_AN_INT = _rejects(EXIT_USAGE, BAD_NUMBERS[:3])
# every numeric option: the values of BAD_NUMBERS it rejects, each with the
# exit code README documents; the others must parse
NUMBER_RULES = {
    ("build", "--alpha"): MIXTURE,
    ("build", "--beta"): MIXTURE,
    ("extract", "--alpha"): MIXTURE,
    ("extract", "--beta"): MIXTURE,
    ("distance", "--alpha"): MIXTURE,
    ("distance", "--beta"): MIXTURE,
    ("solve", "--time-limit"): _rejects(EXIT_USAGE, BAD_NUMBERS),
    ("distance", "--time-limit"): _rejects(EXIT_USAGE, BAD_NUMBERS),
    ("simulate", "--seed"): NOT_AN_INT,
    ("simulate", "--families"): _rejects(EXIT_USAGE, BAD_NUMBERS),
    ("simulate", "--leaves"): dict(NOT_AN_INT,
                                   **_rejects(EXIT_INFEASIBLE, ("-1", "0"))),
    ("simulate", "--scale"): _rejects(EXIT_USAGE),
    ("simulate", "--surfeit"): _rejects(EXIT_USAGE),
    ("simulate", "--adversarial"): _rejects(EXIT_INFEASIBLE),
}


def _numeric_options(parser):
    """(subcommand, option) of every option of ``parser``'s subcommands
    that converts its value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                for option in sub._actions:
                    if option.type is not None:
                        yield command, option.option_strings[-1]


def test_every_numeric_option_rejects_bad_values(tmp_path, capsys):
    assert sorted(_numeric_options(cli.make_parser())) == sorted(NUMBER_RULES)
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    pair = write_pair(inputs)
    genomes = io.read_adjacencies(pair)
    for species in ("A", "B"):
        io.write_adjacencies({species: genomes[species]},
                             inputs / ("%s.tsv" % species))
    tree, lp, sol = inputs / "tree.tsv", inputs / "m.lp", inputs / "m.sol"
    tree.write_text("A\tB\n")
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    argvs = {
        "build": ["build", str(tree), str(pair), "-o", str(out / "m.lp")],
        "solve": ["solve", str(lp), "-o", str(out / "m.sol")],
        "extract": ["extract", str(sol), str(tree), str(pair),
                    "--genomes-out", str(out / "g.tsv"),
                    "--distances-out", str(out / "d.tsv")],
        "distance": ["distance", str(inputs / "A.tsv"),
                     str(inputs / "B.tsv"), "-o", str(out / "d.tsv")],
        "simulate": ["simulate", str(out / "sim"), "--families", "5",
                     "--leaves", "3"],
    }
    capsys.readouterr()
    for (command, option), rejected in sorted(NUMBER_RULES.items()):
        for value in BAD_NUMBERS:
            # the "=" form keeps "-inf" from reading as an option
            argv = argvs[command] + ["%s=%s" % (option, value)]
            if value not in rejected:
                cli.make_parser().parse_args(argv)
                continue
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code == rejected[value], (argv, err)
            assert option.lstrip("-") in err, (argv, err)
            assert not list(out.iterdir()), argv


def test_distance_identity_and_output_file(tmp_path):
    pair = write_pair(tmp_path)
    genomes = io.read_adjacencies(pair)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    io.write_adjacencies({"A": genomes["A"]}, pa)
    io.write_adjacencies({"B": genomes["B"]}, pb)
    out = tmp_path / "dist.tsv"
    assert run("distance", str(pa), str(pb), "-o", str(out)) == EXIT_OK
    table = dict(line.split("\t") for line in out.read_text().splitlines())
    assert table["distance"] == "1"  # single inversion
    assert run("distance", str(pa), str(pa), "-o", str(out)) == EXIT_OK
    table = dict(line.split("\t") for line in out.read_text().splitlines())
    assert table["distance"] == "0"


def write_large_pair(tmp_path, inversions):
    """A 400-marker pair (9622 variables) that differs by ``inversions``
    random inversions; returns the two genome files."""
    chromosomes = [(["%d.1" % i for i in range(1, 401)], False)]
    moved = chromosomes
    rng = seeded(83)
    for _ in range(inversions):
        moved = invert_segment(moved, rng)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    io.write_adjacencies({"A": build_genome("A", chromosomes)}, pa)
    io.write_adjacencies({"B": build_genome("B", moved)}, pb)
    return pa, pb


def test_distance_large_pair_uses_external_solver(tmp_path, monkeypatch):
    # the branch-and-bound would solve this pair within its budget; the set
    # SPP_DCJ_SOLVER sends it to the external solver instead
    inversions = 20
    pa, pb = write_large_pair(tmp_path, inversions)
    monkeypatch.setenv("SPP_DCJ_SOLVER", MILP_CMD)
    out = tmp_path / "dist.tsv"
    assert run("distance", str(pa), str(pb), "-o", str(out)) == EXIT_OK
    table = dict(line.split("\t") for line in out.read_text().splitlines())
    assert int(table["distance"]) <= inversions


def test_distance_large_pair_stays_internal(tmp_path, monkeypatch):
    inversions = 20
    pa, pb = write_large_pair(tmp_path, inversions)
    monkeypatch.delenv("SPP_DCJ_SOLVER", raising=False)

    def no_external(*args, **kwargs):
        raise AssertionError("the external solver was called")

    monkeypatch.setattr(solver, "run_solver_command", no_external)
    out = tmp_path / "dist.tsv"
    assert run("distance", str(pa), str(pb), "-o", str(out)) == EXIT_OK
    table = dict(line.split("\t") for line in out.read_text().splitlines())
    assert int(table["distance"]) <= inversions


def test_distance_rejects_multi_species(tmp_path):
    pair = write_pair(tmp_path)
    assert run("distance", str(pair), str(pair)) == EXIT_INFEASIBLE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run("no-such-command")
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run("build")  # missing required arguments
    assert err.value.code == 1


def test_parse_error_exit_codes(tmp_path):
    missing = tmp_path / "nope.tsv"
    assert run("linearize", str(missing), "-o",
               str(tmp_path / "o.tsv")) == EXIT_PARSE
    bad = tmp_path / "bad.tsv"
    bad.write_text("A\tonly-two-cols\n")
    assert run("linearize", str(bad), "-o",
               str(tmp_path / "o.tsv")) == EXIT_PARSE


def test_build_rejects_repeated_adjacency(tmp_path):
    pair = write_pair(tmp_path)
    with open(pair, "a", encoding="utf-8") as handle:
        handle.write(pair.read_text().splitlines()[0] + "\n")
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    assert run("build", str(tree), str(pair), "-o",
               str(tmp_path / "m.lp")) == EXIT_PARSE
    assert not (tmp_path / "m.lp").exists()


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_build_rejects_non_finite_weight(tmp_path, capsys, weight):
    pair = write_pair(tmp_path)
    lines = pair.read_text().splitlines()
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\t" + weight
    pair.write_text("\n".join(lines) + "\n")
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    capsys.readouterr()
    assert run("build", str(tree), str(pair), "-o",
               str(tmp_path / "m.lp")) == EXIT_PARSE
    assert "pair.tsv:2:" in capsys.readouterr().err
    assert not (tmp_path / "m.lp").exists()


def test_pipeline_with_empty_objective(tmp_path):
    # alpha 0 and beta 1 on circular genomes leave no objective term, so
    # build writes " obj: 0"; solve and extract must read it back
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    mixture = ("--alpha", "0", "--beta", "1")
    assert run("build", str(tree), str(pair), "-o", str(lp),
               *mixture) == EXIT_OK
    assert " obj: 0\n" in lp.read_text()
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    reported, _ = solver.parse_solution(sol)
    assert reported == 0
    assert run("extract", str(sol), str(tree), str(pair),
               "--genomes-out", str(tmp_path / "g.tsv"),
               "--distances-out", str(tmp_path / "d.tsv"),
               *mixture) == EXIT_OK


def write_triangle(tmp_path):
    """A pair whose genome A has a triangle component, which admits no
    derived genome, and a tree joining A and B."""
    tri = tmp_path / "tri.tsv"
    tri.write_text("\n".join([
        "A\t1.1_t\t1.1_h\t1",
        "A\t1.1_h\t2.1_t\t1",
        "A\t1.1_t\t2.1_t\t1",
        "A\t2.1_h\t3.1_t\t1",
        "A\t3.1_h\tt.1_o\t1",
        "B\t1.1_t\t1.1_h\t1",
    ]) + "\n")
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    return tri, tree


def test_build_rejects_nonlinearizable(tmp_path):
    tri, tree = write_triangle(tmp_path)
    rc = run("build", str(tree), str(tri), "-o", str(tmp_path / "m.lp"))
    assert rc == EXIT_INFEASIBLE


def test_extract_rejects_nonlinearizable(tmp_path):
    # extract no longer runs the linearizability check: validate must
    # reject any solution, here the all-zero one
    tri, tree = write_triangle(tmp_path)
    model = build_model(Phylogeny([("A", "B")]), io.read_adjacencies(tri),
                        FamilyAssignment(), 0.5, 0.25)
    sol = tmp_path / "m.sol"
    write_solution(sol, 0.0, ((name, 0.0) for name in model.variables), ())
    genomes = tmp_path / "g.tsv"
    rc = run("extract", str(sol), str(tree), str(tri),
             "--genomes-out", str(genomes),
             "--distances-out", str(tmp_path / "d.tsv"))
    assert rc != EXIT_OK
    assert not genomes.exists()


def test_pipeline_checks_linearizability_once(tmp_path, monkeypatch):
    calls = []
    check = cli.find_nonlinearizable_component

    def counted(genome):
        calls.append(genome.species)
        return check(genome)

    monkeypatch.setattr(cli, "find_nonlinearizable_component", counted)
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    assert run("extract", str(sol), str(tree), str(pair),
               "--genomes-out", str(tmp_path / "g.tsv"),
               "--distances-out", str(tmp_path / "d.tsv")) == EXIT_OK
    assert sorted(calls) == ["A", "B"]


def test_build_model_bytes_pinned(tmp_path):
    """The LP and the variable map of a fixed instance, byte for byte.

    HiGHS's branch-and-bound path depends on the row and column order, so
    any change to either shows here.  Digests measured with Python 3.11.7;
    the instance has every row block but C.11 (its genomes have no
    telomeres).
    """
    out = tmp_path / "sim"
    assert run("simulate", str(out), "--seed", "1", "--families", "20",
               "--leaves", "5", "--scale", "3", "--surfeit", "1.5",
               "--adversarial", "0.5") == EXIT_OK
    lp, idmap = tmp_path / "model.lp", tmp_path / "idmap.tsv"
    assert run("build", str(out / "tree.tsv"), str(out / "degenerate.tsv"),
               "-o", str(lp), "--idmap", str(idmap)) == EXIT_OK
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (lp, idmap)]
    assert digests == [
        "dcb06c3b3584e12c1bd457da2db52ad8f1be5e8904003121142e575d215d2572",
        "c33b779121769223a9d42bcfb5187042e325b899ff82043419787fbfc12d2724"]


def test_build_rejects_missing_node_genome(tmp_path):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\nB\tC\n")
    assert run("build", str(tree), str(pair),
               "-o", str(tmp_path / "m.lp")) == EXIT_INFEASIBLE


def test_solver_failure_exit_code(tmp_path):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp = tmp_path / "m.lp"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(tmp_path / "m.sol"),
               "--solver-cmd", "false {lp} {sol}") == EXIT_SOLVER


def test_solve_internal_bad_model_is_parse_error(tmp_path, capsys):
    sol = tmp_path / "m.sol"
    assert run("solve", str(tmp_path / "nope.lp"), "-o", str(sol),
               "--internal") == EXIT_PARSE
    bad = tmp_path / "bad.lp"
    bad.write_text("Maximize\n obj: 1 x\nSubject To\n c1: 1 x <= one\nEnd\n")
    capsys.readouterr()
    assert run("solve", str(bad), "-o", str(sol), "--internal") == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "bad.lp:4:" in err[0]
    bad.write_bytes(b"Maximize\n obj: 1 x\n\xff\n")
    assert run("solve", str(bad), "-o", str(sol), "--internal") == EXIT_PARSE
    assert not sol.exists()


def test_solve_backend_flags_exclusive(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("solve", str(tmp_path / "m.lp"), "-o", str(tmp_path / "m.sol"),
            "--internal", "--solver-cmd", MILP_CMD)
    assert err.value.code == EXIT_USAGE


def test_solve_rejects_stale_solution_file(tmp_path):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    assert sol.exists()
    # a solver that succeeds without writing must not inherit the old file
    assert run("solve", str(lp), "-o", str(sol),
               "--solver-cmd", "true {lp} {sol}") == EXIT_SOLVER
    assert not sol.exists()


def test_solver_env_override(tmp_path, monkeypatch):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    monkeypatch.setenv("SPP_DCJ_SOLVER", "false {lp} {sol}")
    assert run("solve", str(lp), "-o", str(sol)) == EXIT_SOLVER
    # --internal wins over the environment
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK


def test_solve_manifest_records_the_command_run(tmp_path, monkeypatch):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK

    def recorded():
        text = (tmp_path / "m.sol.manifest.json").read_text()
        return json.loads(text)["arguments"]["solver_cmd"]

    monkeypatch.setenv("SPP_DCJ_SOLVER", MILP_CMD)
    assert run("solve", str(lp), "-o", str(sol)) == EXIT_OK
    assert recorded() == MILP_CMD
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    assert recorded() is None  # the bundled HiGHS ran
    command = MILP_CMD + " --time-limit {time_limit}"
    assert run("solve", str(lp), "-o", str(sol),
               "--solver-cmd", command) == EXIT_OK
    assert recorded() == command
    monkeypatch.delenv("SPP_DCJ_SOLVER")
    assert run("solve", str(lp), "-o", str(sol)) == EXIT_OK
    assert recorded() is None


def test_extract_idmap_mismatch(tmp_path):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, idmap = tmp_path / "m.lp", tmp_path / "m.tsv"
    sol = tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp),
               "--idmap", str(idmap)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    # different alpha or beta changes no variable; force a mismatch by
    # truncating the idmap
    lines = idmap.read_text().splitlines()
    idmap.write_text("\n".join(lines[:-1]) + "\n")
    rc = run("extract", str(sol), str(tree), str(pair), "--idmap", str(idmap),
             "--genomes-out", str(tmp_path / "g.tsv"),
             "--distances-out", str(tmp_path / "d.tsv"))
    assert rc == EXIT_INFEASIBLE


def test_extract_rejects_incomplete_solution(tmp_path):
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    lp, sol = tmp_path / "m.lp", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    lines = sol.read_text().splitlines()
    dropped = next(i for i, line in enumerate(lines)
                   if not line.startswith("#"))
    sol.write_text("\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")
    rc = run("extract", str(sol), str(tree), str(pair),
             "--genomes-out", str(tmp_path / "g.tsv"),
             "--distances-out", str(tmp_path / "d.tsv"))
    assert rc == EXIT_SOLVER


def test_extract_manifest_records_families(tmp_path):
    # the family map changes the rebuilt model, so a rerun needs it
    pair = write_pair(tmp_path)
    tree = tmp_path / "tree.tsv"
    tree.write_text("A\tB\n")
    families = tmp_path / "families.tsv"
    families.write_text("1.1\tf1\n2.1\tf2\n3.1\tf3\n")
    lp, idmap, sol = tmp_path / "m.lp", tmp_path / "m.tsv", tmp_path / "m.sol"
    assert run("build", str(tree), str(pair), "-o", str(lp), "--idmap",
               str(idmap), "--families", str(families)) == EXIT_OK
    assert run("solve", str(lp), "-o", str(sol), "--internal") == EXIT_OK
    genomes_out = tmp_path / "g.tsv"
    assert run("extract", str(sol), str(tree), str(pair), "--idmap",
               str(idmap), "--families", str(families), "--genomes-out",
               str(genomes_out), "--distances-out",
               str(tmp_path / "d.tsv")) == EXIT_OK
    for manifest_path in (str(lp) + ".manifest.json",
                          str(genomes_out) + ".manifest.json"):
        manifest = json.loads(open(manifest_path).read())
        assert manifest["arguments"]["families"] == str(families)
