"""Finite non-periodic Toda lattice and its pseudo-positive generalization.

Subpackages by theme: `sphere` (harmonic bases and quadrature), `moment_1d`
(atomic measures, Jacobi matrices, transforms), `toda_1d` (the classical
lattice), `kdq` (quadric geometry, reproducing kernel, multidimensional
transform), `pseudo_toda` (the component-indexed Toda family), `iso_flow`
(the Riccati mass flow).  The command-line front end, `toda_kdq.cli`, is
not imported here, so `python -m toda_kdq.cli` runs it as a fresh module.
"""

from . import iso_flow, kdq, moment_1d, pseudo_toda, sphere, toda_1d, verify
from .errors import (
    DivergenceRegionError,
    PoleError,
    PositivityLossError,
    RankDeficiencyError,
)

__all__ = [
    "sphere",
    "moment_1d",
    "toda_1d",
    "kdq",
    "pseudo_toda",
    "iso_flow",
    "verify",
    "PoleError",
    "DivergenceRegionError",
    "RankDeficiencyError",
    "PositivityLossError",
]

__version__ = "0.1.0"
