"""Every exported name resolves, so no export outlives the code it names."""

import re
import types
from pathlib import Path

import pytest

import hermfair
from hermfair import model, population, scenarios, solver, stats

MODULES = (model, population, scenarios, solver, stats)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_resolve():
    exported = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    reexports = [
        name for name, value in vars(hermfair).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert reexports
    for name in reexports:
        assert name in exported, f"hermfair.{name} is in no module's __all__"
        assert getattr(hermfair, name) is exported[name]


def test_solve_is_the_only_solver_entry():
    removed = {"solve_unconstrained", "solve_constrained_lp", "solve_binary_exact", "threshold_rule"}
    for names in (set(solver.__all__), set(dir(hermfair))):
        assert "solve" in names
        assert names.isdisjoint(removed)


def test_one_version():
    # CI's byte compare keys on the project version; every output file
    # carries hermfair.__version__
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == hermfair.__version__
