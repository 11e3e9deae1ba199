"""``build_model``, ``parse_lp``, ``solver.solve_internal`` and
``extract.decode`` pause the cyclic garbage collector while they run and
leave it as they found it, also when they raise."""

import gc

import pytest

from spp_dcj import extract, ilp, milp_cli, solver
from spp_dcj.genomes import FamilyAssignment, Phylogeny

from util import build_genome


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _watch(monkeypatch, module, name):
    """Record gc.isenabled() at every call of module.name."""
    seen = []
    inner = getattr(module, name)

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, watched)
    return seen


def _build(alpha=0.5):
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "-2.1"], False)])
    return ilp.build_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                           FamilyAssignment(), alpha, 0.25)


def test_build_model_restores_collector(collector, monkeypatch):
    seen = _watch(monkeypatch, ilp, "emit_constraints")
    assert _build().constraints
    assert seen == [False]
    assert gc.isenabled() is collector


def test_build_model_restores_collector_on_error(collector):
    with pytest.raises(ilp.ModelError):
        _build(alpha=2.0)
    assert gc.isenabled() is collector


def test_parse_lp_restores_collector(collector, monkeypatch, tmp_path):
    seen = _watch(monkeypatch, milp_cli, "_parse_line")
    path = tmp_path / "m.lp"
    path.write_text("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= 1\n"
                    "Binaries\n x\nEnd\n")
    assert milp_cli.parse_lp(path).variables == ["x"]
    assert seen == [False, False, False]
    assert gc.isenabled() is collector


def test_parse_lp_restores_collector_on_error(collector, tmp_path):
    path = tmp_path / "m.lp"
    path.write_text("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= one\nEnd\n")
    with pytest.raises(milp_cli.LpFormatError):
        milp_cli.parse_lp(path)
    assert gc.isenabled() is collector


def test_solve_internal_restores_collector(collector, monkeypatch):
    model = _build()
    seen = _watch(monkeypatch, solver, "complete_assignment")
    assert solver.solve_internal(model).status == "optimal"
    assert seen == [False]
    assert gc.isenabled() is collector


def test_solve_internal_restores_collector_on_budget(collector, monkeypatch):
    model = _build()
    seen = _watch(monkeypatch, solver, "_Search")
    monkeypatch.setattr(solver, "WORK_BUDGET", 1)
    with pytest.raises(solver.BudgetExhausted):
        solver.solve_internal(model)
    assert seen == [False]
    assert gc.isenabled() is collector


def test_decode_restores_collector(collector, monkeypatch):
    model = _build()
    assignment = solver.solve_internal(model).assignment
    seen = _watch(monkeypatch, extract, "_decode_context")
    assert extract.decode(model, assignment).genomes
    assert seen == [False]
    assert gc.isenabled() is collector
