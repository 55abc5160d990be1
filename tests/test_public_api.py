"""Every name a layer module exports resolves, and removed wrappers stay removed.

``bench/tracer.py`` looks up every ``__all__`` name of these modules, so one
stale entry would break every traced benchmark run.
"""

import importlib

import pytest

import hetbai

LAYERS = ("instance", "allocation", "policy", "simulator", "ingest", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"hetbai.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", ["HMatrix", "ConfusionPairs", "global_vector"])
def test_removed_wrappers_are_gone(name):
    for module in [hetbai, *(importlib.import_module(f"hetbai.{layer}") for layer in LAYERS)]:
        assert not hasattr(module, name), module.__name__
        assert name not in getattr(module, "__all__", ()), module.__name__
