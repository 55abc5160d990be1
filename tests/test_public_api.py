"""Every name a layer module exports resolves, removed wrappers stay removed, and
the declared numpy floor is one the code runs on.

``bench/tracer.py`` looks up every ``__all__`` name of these modules, so one
stale entry would break every traced benchmark run.
"""

import importlib
import re
from pathlib import Path

import pytest

import hetbai

LAYERS = ("instance", "allocation", "policy", "simulator", "ingest", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"hetbai.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize(
    "name",
    ["HMatrix", "ConfusionPairs", "global_vector", "perron_positive_eigenvector", "brute_force_g_tilde_max"],
)
def test_removed_wrappers_are_gone(name):
    for module in [hetbai, *(importlib.import_module(f"hetbai.{layer}") for layer in LAYERS)]:
        assert not hasattr(module, name), module.__name__
        assert name not in getattr(module, "__all__", ()), module.__name__


def test_declared_numpy_floor_has_ndarray_mT():
    # the allocation stacks its transposes with ndarray.mT, new in NumPy 2.0
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (spec,) = re.findall(r'"numpy([^"]*)"', text)
    floor = re.fullmatch(r">=(\d+)\.(\d+)", spec)
    assert floor and tuple(map(int, floor.groups())) >= (2, 0), spec
