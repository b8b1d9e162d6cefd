"""Finite non-periodic Toda lattice and its pseudo-positive generalization.

Layers by theme: `sphere` (harmonic bases and quadrature), `moment_1d`
(atomic measures, Jacobi matrices, transforms), `toda_1d` (the classical
lattice), `kdq` (quadric geometry, reproducing kernel, multidimensional
transform), `pseudo_toda` (the component-indexed Toda family), `iso_flow`
(the Riccati mass flow) and `verify` (the invariant checks).  Each is in
`sys.modules` and an attribute of the package from the start, but lazy
(`importlib.util.LazyLoader`): its code is compiled and run on the first
access to one of its attributes, so a process pays only for the layers it
uses.  The command-line front end, `toda_kdq.cli`, is not imported here, so
`python -m toda_kdq.cli` runs it as a fresh module.
"""

import importlib.util
import sys

from .errors import DivergenceRegionError, PoleError, PositivityLossError, RankDeficiencyError

_LAYERS = ("sphere", "moment_1d", "toda_1d", "kdq", "pseudo_toda", "iso_flow", "verify")

__all__ = [*_LAYERS, "PoleError", "DivergenceRegionError", "RankDeficiencyError", "PositivityLossError"]

__version__ = "0.1.0"


def _register_lazily(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the layer's code to its first attribute access
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register_lazily(_layer)
del _layer
