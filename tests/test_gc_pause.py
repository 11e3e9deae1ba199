"""``build_model``, ``declare_model`` and ``solver.solve_internal`` pause the
cyclic garbage collector while they run and leave it as they found it, also
when they raise."""

import gc

import pytest

from spp_dcj import ilp, solver
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
    assert _build().rows
    assert seen == [False]
    assert gc.isenabled() is collector


def test_declare_model_restores_collector(collector, monkeypatch):
    # extract declares its model without building rows
    seen = _watch(monkeypatch, ilp, "build_objective")
    a = build_genome("A", [(["1.1", "2.1"], True)])
    b = build_genome("B", [(["1.1", "-2.1"], False)])
    assert ilp.declare_model(Phylogeny([("A", "B")]), {"A": a, "B": b},
                             FamilyAssignment(), 0.5, 0.25).kinds
    assert seen == [False]
    assert gc.isenabled() is collector


def test_build_model_restores_collector_on_error(collector):
    with pytest.raises(ilp.ModelError):
        _build(alpha=2.0)
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
