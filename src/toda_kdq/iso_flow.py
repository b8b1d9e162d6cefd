"""Isospectral mass flow r' = -lambda r^2 with fixed radii.

This is a different flow from the linear r' = -lambda r driving the explicit
Toda reweighting; the two are never mixed.  The Riccati equation integrates
in closed form, r(t) = r(0)/(1 + lambda r(0) t), which is global forward in
time and blows up backward at t = -1/(lambda r(0)).  Along the flow the
weighted tails S_{k,l}(t) = sum_j r_j^2(t)/lambda_j^k decrease monotonically,
with dS/dt = -2 sum_j r_j^3(t)/lambda_j^{k-1}.
"""

from dataclasses import dataclass, replace

import numpy as np

from .kdq import ComponentFamily, PseudoPositiveMeasure

__all__ = [
    "IsoFlowState",
    "MonotonicityReport",
    "blow_up_time",
    "riccati_evolve",
    "monotonicity_check",
    "state_to_measure",
    "state_from_measure",
]


_FIELDS = ("lambdas", "masses")


def _iso_family(family: ComponentFamily) -> ComponentFamily:
    # at least one atom per component; radii and masses >= 0
    if (family.sizes < 1).any():
        raise ValueError("lambdas and masses must be matching 1-d arrays")
    if (family.radii < 0.0).any() or (family.masses < 0.0).any():
        raise ValueError("radii and masses must be nonnegative")
    return family


class IsoFlowState:
    """Components (k, l) of fixed radii lambda_j >= 0 and masses r_j^2 >= 0
    at a common time: a map (k, l) -> (lambdas, masses), or a `family`."""

    def __init__(self, components=None, time: float = 0.0, *, family=None):
        if family is None:
            family = ComponentFamily.pack(((key, *arrays) for key, arrays in (components or {}).items()), _FIELDS, 1)
        for k, ell in family.keys:
            if k < 0 or ell < 1:
                raise ValueError(f"invalid component index {(k, ell)}")
        self.family, self.time = _iso_family(family), float(time)


def blow_up_time(state: IsoFlowState) -> float:
    """Largest backward time the closed form tolerates (exclusive); -inf if none."""
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
        r_t = r0 / (1.0 + state.family.radii * r0 * times[:, None])
        masses = r_t**2
    if not np.isfinite(masses).all():
        raise ValueError("masses entries must be finite")
    return masses


def riccati_evolve(state: IsoFlowState, t: float, allow_backward: bool = False) -> IsoFlowState:
    """Advance all masses by the closed form r(t) = r(0)/(1 + lambda r(0) t).

    Radii stay fixed.  Negative t must be enabled explicitly and must stay
    strictly after the blow-up time of every atom.
    """
    masses = _riccati(state, [t], allow_backward)[0]
    return IsoFlowState(time=state.time + t, family=replace(state.family, masses=masses))


def _functionals(family: ComponentFamily, masses: np.ndarray) -> np.ndarray:
    # S_{k,l} of every component for masses (..., atoms); division error at
    # lambda = 0 with k > 0 and a positive mass
    hit = ((family.radii == 0.0) & (family.atom_degrees > 0) & (masses > 0.0)).reshape(-1, masses.shape[-1])
    if hit.any():
        k, ell = family.keys[np.searchsorted(family.offsets, np.argmax(hit.any(axis=0)), side="right") - 1]
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


def monotonicity_check(state: IsoFlowState, t_grid, dt: float = 1e-4, tol: float = 1e-12) -> MonotonicityReport:
    """Verify S_{k,l} never increases along the flow on the given grid.

    Also checks dS/dt = -2 sum r^3/lambda^{k-1} against central differences
    of the closed-form evolution at every grid point (O(dt^2) agreement).
    """
    times = np.asarray(sorted(float(t) for t in t_grid))
    if times.size < 2 or times[0] < 0.0:
        raise ValueError("need at least two grid times with t >= 0")
    fam = state.family
    masses = _riccati(state, times - state.time, True)
    masses_m = _riccati(state, times - dt - state.time, True)
    masses_p = _riccati(state, times + dt - state.time, False)
    values = _functionals(fam, masses)
    ds_num = (_functionals(fam, masses_p) - _functionals(fam, masses_m)) / (2.0 * dt)
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


def state_to_measure(state: IsoFlowState, n: int, k_max: int = -1) -> PseudoPositiveMeasure:
    """Serialize through the shared radial-component schema (zero-mass atoms drop)."""
    kept = state.family.compress(state.family.masses > 0.0)
    return PseudoPositiveMeasure(n, {key: (r, m) for key, r, m in kept.items()}, k_max=k_max)


def state_from_measure(mu: PseudoPositiveMeasure) -> IsoFlowState:
    return IsoFlowState(family=mu.family)
