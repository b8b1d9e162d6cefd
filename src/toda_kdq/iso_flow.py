"""Isospectral mass flow r' = -lambda r^2 with fixed radii.

This is a different flow from the linear r' = -lambda r driving the explicit
Toda reweighting; the two are never mixed.  The Riccati equation integrates
in closed form, r(t) = r(0)/(1 + lambda r(0) t), which is global forward in
time and blows up backward at t = -1/(lambda r(0)).  Along the flow the
weighted tails S_{k,l}(t) = sum_j r_j^2(t)/lambda_j^k decrease monotonically,
with dS/dt = -2 sum_j r_j^3(t)/lambda_j^{k-1}.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .kdq import ComponentFamily, PseudoPositiveMeasure
from .moment_1d import _as_vector

__all__ = [
    "IsoFlowState",
    "MonotonicityReport",
    "blow_up_time",
    "riccati_evolve",
    "monotonicity_check",
    "state_from_measure",
]


_FIELDS = ("lambdas", "masses")


class IsoFlowState:
    """Components (k, l) of fixed radii lambda_j >= 0 and masses r_j^2 >= 0
    at a common time: a map (k, l) -> (lambdas, masses), each with an atom."""

    def __init__(self, components=None, time: float = 0.0):
        family = ComponentFamily.pack(components or {}, _FIELDS, 1)
        for k, ell in family.keys:
            if k < 0 or ell < 1:
                raise ValueError(f"invalid component index {(k, ell)}")
        if (family.radii < 0.0).any() or (family.masses < 0.0).any():
            raise ValueError("radii and masses must be nonnegative")
        if math.isnan(time):
            raise ValueError(f"state time must be a number, got {time!r}")
        self.family, self.time = family, float(time)


def blow_up_time(state: IsoFlowState) -> float:
    """Largest backward time the closed form tolerates (exclusive); -inf if none."""
    with np.errstate(over="ignore"):  # lambda r(0) = inf puts the blow-up at -0.0
        prod = state.family.radii * np.sqrt(state.family.masses)
    active = prod > 0.0
    return float(np.max(-1.0 / prod[active])) if active.any() else -np.inf


def _riccati(state: IsoFlowState, times, allow_backward: bool) -> np.ndarray:
    # masses r(t)^2 at every time, shape (times, atoms), as `riccati_evolve`
    times = np.asarray(times, dtype=float)
    if (times < 0.0).any():
        if not allow_backward:
            raise ValueError("backward evolution must be enabled explicitly")
        t_blow = blow_up_time(state)
        beyond = times[times <= t_blow]
        if beyond.size:
            raise ValueError(f"t = {float(beyond[0])} is at or beyond the backward blow-up time {t_blow}")
    r0 = np.sqrt(state.family.masses)
    with np.errstate(over="ignore", invalid="ignore"):  # a mass that is not finite is refused below
        rate = state.family.radii * r0
        masses = (r0 / (1.0 + rate * times[:, None])) ** 2
    # for t > 0 at most the masses themselves, which the exact flow only lowers but
    # fl(sqrt(m))^2 may exceed; at t = 0, where lambda r(0) t may be inf * 0, the masses
    np.minimum(masses, state.family.masses, out=masses, where=times[:, None] > 0.0)
    masses[times == 0.0] = state.family.masses
    if not np.isfinite(masses).all():
        # at t = inf, 1 + lambda r(0) t is 1 + 0 * inf = NaN where lambda r(0) = 0,
        # whose r(0) stays; every other mass is 0 there
        masses[np.isinf(times)] = np.where(rate == 0.0, np.minimum(r0**2, state.family.masses), 0.0)
        bad = ~np.isfinite(masses)
        if bad.any():  # a backward time near the blow-up, as a central difference's backward point
            atom = int(np.argmax(bad.any(axis=0)))
            t = state.time + float(times[np.argmax(bad[:, atom])])
            key = state.family.keys[state.family.owner(atom)]
            raise OverflowError(f"the mass of component {key} overflows at t = {t!r}")
    return masses


def riccati_evolve(state: IsoFlowState, t: float, allow_backward: bool = False) -> IsoFlowState:
    """Advance all masses by the closed form r(t) = r(0)/(1 + lambda r(0) t).

    Radii stay fixed.  Negative t must be enabled explicitly and must stay
    strictly after the blow-up time of every atom; OverflowError naming the
    component and the time where a mass so near it overflows.  t = inf
    gives the limit masses; t = NaN is a ValueError.
    """
    if math.isnan(t):
        raise ValueError(f"evolution time must be a number, got t = {t!r}")
    # the radii stay, and `_riccati` checked the new masses
    out = object.__new__(IsoFlowState)
    out.family, out.time = replace(state.family, masses=_riccati(state, [t], allow_backward)[0]), state.time + t
    return out


def _functionals(family: ComponentFamily, masses: np.ndarray) -> np.ndarray:
    # S_{k,l} of every component for masses (..., atoms); division error at
    # lambda = 0 with k > 0 and a positive mass
    hit = ((family.radii == 0.0) & (family.atom_degrees > 0) & (masses > 0.0)).reshape(-1, masses.shape[-1])
    if hit.any():
        k, ell = family.keys[family.owner(np.argmax(hit.any(axis=0)))]
        raise ZeroDivisionError(f"component {(k, ell)} divides by lambda^{k} at lambda = 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(masses > 0.0, masses / family.degree_powers(family.radii), 0.0)
        return _finite(family, family.block_sums(terms), "S_{k,l}")


def _ds_dt(family: ComponentFamily, masses: np.ndarray) -> np.ndarray:
    # dS/dt = -2 sum_j r_j^3 / lambda_j^{k-1} of every component
    r = np.sqrt(masses)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(r > 0.0, r**3 / family.degree_powers(family.radii, -1), 0.0)
        return -2.0 * _finite(family, family.block_sums(terms), "dS/dt")


def _finite(family: ComponentFamily, sums: np.ndarray, name: str) -> np.ndarray:
    # `sums` (..., components); OverflowError naming the first component with
    # an entry that is not finite
    bad = ~np.isfinite(sums).reshape(-1, sums.shape[-1]).all(axis=0)
    if bad.any():
        raise OverflowError(f"{name} of component {family.keys[np.argmax(bad)]} overflows")
    return sums


@dataclass(frozen=True)
class MonotonicityReport:
    """Grid values of every S_{k,l} plus monotonicity and derivative diagnostics."""

    times: np.ndarray
    values: dict  # (k, l) -> array over times
    max_increase: float
    max_derivative_residual: float
    passed: bool


def _grid_times(t_grid) -> np.ndarray:
    """The times of `t_grid` in ascending order; ValueError naming `t_grid`
    unless it holds at least two times, each >= 0."""
    times = _as_vector("t_grid", t_grid)
    if times.size < 2:
        raise ValueError(f"t_grid must hold at least two times, got {times.tolist()}")
    i = int(np.argmin(times >= 0.0))  # the first time that is not >= 0, NaN included
    if not times[i] >= 0.0:
        raise ValueError(f"t_grid entries must be >= 0, got t_grid[{i}] = {float(times[i])!r}")
    return np.sort(times, kind="stable")


def monotonicity_check(state: IsoFlowState, t_grid, dt: float = 1e-4, tol: float = 1e-12) -> MonotonicityReport:
    """Verify S_{k,l} never increases along the flow on the given grid.

    Also checks dS/dt = -2 sum r^3/lambda^{k-1} against central differences
    of the closed-form evolution at every grid point (O(dt^2) agreement).
    At a time t whose backward point t - dt would reach the blow-up time,
    the step is h = (t - t_blow)/2 instead, where t - h stays after it.
    OverflowError naming the component if lambda r(0) overflows and a grid
    time is at or before the state's, where no such step fits, or if a
    mass at a backward point overflows.
    """
    times = _grid_times(t_grid)
    fam = state.family
    if not fam.keys:
        raise ValueError("state has no components")
    t_blow = blow_up_time(state)
    if t_blow == 0.0 and (times <= state.time).any():
        # lambda r(0) = inf puts the blow-up at -0.0, and no backward step fits
        with np.errstate(over="ignore"):
            _finite(fam, fam.block_sums(fam.radii * np.sqrt(fam.masses)), "lambda r(0)")
    half = (times - state.time - t_blow) / 2.0  # 0 where no step fits, as at t_blow = -0.0
    h = np.where((times - dt - state.time <= t_blow) & (half > 0.0), half, dt)
    masses = _riccati(state, times - state.time, True)
    masses_m = _riccati(state, times - h - state.time, True)
    masses_p = _riccati(state, times + h - state.time, False)
    values = _functionals(fam, masses)
    with np.errstate(over="ignore"):  # a step h near 0 may overflow a difference quotient
        ds_num = (_functionals(fam, masses_p) - _functionals(fam, masses_m)) / (2.0 * h[:, None])
    max_resid = _max_positive(np.abs(ds_num - _ds_dt(fam, masses)))
    max_inc = _max_positive(np.diff(values, axis=0))
    return MonotonicityReport(
        times=times,
        values={key: values[:, i] for i, key in enumerate(fam.keys)},
        max_increase=max_inc,
        max_derivative_residual=max_resid,
        passed=max_inc <= tol,
    )


def _max_positive(values: np.ndarray) -> float:
    # max(0.0, v_1, v_2, ...) folded with Python's max, which keeps 0.0 over
    # -0.0 and skips NaN: the largest entry above 0, else 0.0
    above = values[values > 0.0]
    return float(above.max()) if above.size else 0.0


def state_from_measure(mu: PseudoPositiveMeasure) -> IsoFlowState:
    """The measure's components as a state at time 0; ValueError if one has no atoms."""
    if (mu.family.sizes < 1).any():  # the measure checked indices, radii and weights
        raise ValueError("lambdas and masses must be matching 1-d arrays")
    out = object.__new__(IsoFlowState)
    out.family, out.time = mu.family, 0.0
    return out
