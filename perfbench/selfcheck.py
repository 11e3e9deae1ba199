"""Self-check of the benchmark (not part of the test suite).

    python3 perfbench/selfcheck.py

1. Runs every workload at reduced size (``run.py --quick``), untraced and
   traced, and requires a complete result line with no failed item and
   every metric that BENCHMARK.json names.
2. Negative case: copies the corpus, corrupts one reference optimum in the
   copy's manifest, and requires the run to count that item as failed
   (``correct`` false) instead of passing it.
3. Requires the runner to refuse a corpus whose files do not match their
   digests, exiting non-zero without a result line.
4. Negative case of the simulate check: a noisy genome that misses one
   adjacency of its surfeit target fails the check, even when the noise
   report counts that adjacency as fallback.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import CORPUS, MANIFEST, ROOT, WORK, use_sources

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(*args):
    proc = subprocess.run([sys.executable, RUN, "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=600,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def expect(condition, message, problems):
    print("%s %s" % ("ok  " if condition else "FAIL", message))
    if not condition:
        problems.append(message)


def noise_check_catches_shortfall():
    """True when the simulate check rejects one missing noise adjacency."""
    import dataclasses
    import random

    use_sources()
    from spp_dcj.genomes import DegenerateGenome
    from spp_dcj.sim import SimConfig, add_noise, evolve
    import workloads

    truth = evolve(SimConfig(families=30, leaves=4, scale=1, seed=1)).genomes
    species = sorted(truth)[0]
    noisy, report = add_noise(truth[species],
                              workloads.SIM_PARAMS["surfeit"],
                              random.Random(2), adversarial_fraction=1.0)
    workloads._check_noise(species, truth[species], noisy, report)
    dropped = next(adj for adj in noisy.adjacencies
                   if adj not in truth[species])
    short = DegenerateGenome(species, [adj for adj in noisy.adjacencies
                                       if adj != dropped])
    claimed = dataclasses.replace(report, added=report.added - 1,
                                  uniform=report.uniform - 1,
                                  fallback=report.fallback + 1)
    try:
        workloads._check_noise(species, truth[species], short, claimed)
    except workloads.Failure:
        return True
    return False


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run("--workload", workload, "--seed", "3",
                                  "--trace", str(trace), "--quick")
            label = "%s --trace %d" % (workload, trace)
            expect(rc == 0 and result is not None,
                   "%s completes (exit %d)" % (label, rc), problems)
            if result is None:
                print(err[-2000:], file=sys.stderr)
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   "%s: %d of %d items failed" % (
                       label, result["failed"], result["attempted"]), problems)
            names = {m["name"] for m in bench[key]}
            expect(set(result["metrics"]) == names,
                   "%s reports exactly the %s metrics" % (label, key),
                   problems)

    os.makedirs(WORK, exist_ok=True)
    copy = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK)
    try:
        corpus = os.path.join(copy, "corpus")
        shutil.copytree(CORPUS, corpus)
        manifest_path = os.path.join(corpus, MANIFEST)
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["reconstruct"][0]["optimum"] += 0.25
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        rc, result, _ = run("--workload", "reconstruct", "--quick",
                            "--corpus", corpus)
        expect(rc == 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"] >= 1,
               "a corrupted reference optimum is counted as a failed item",
               problems)

        with open(os.path.join(corpus, manifest["edges"][0]["file"]), "a",
                  encoding="utf-8") as fh:
            fh.write("# tampered\n")
        rc, result, err = run("--workload", "pairs", "--quick",
                              "--corpus", corpus)
        expect(rc != 0 and result is None and "digest" in err,
               "a corpus file that fails its digest stops the run", problems)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    expect(noise_check_catches_shortfall(),
           "a noisy genome short of its surfeit target fails the simulate "
           "check", problems)
    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
