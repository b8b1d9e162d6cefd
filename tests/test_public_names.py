"""Every name in a layer's `__all__` is an attribute of that layer.

perfbench's tracer (`perfbench/spans.py`) wraps each `__all__` entry of
these eight modules through `getattr`, so a stale entry would crash a
traced benchmark run.
"""

import importlib

import pytest

LAYERS = ("cli", "verify", "sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"toda_kdq.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
