"""Isospectral mass flow r' = -lambda r^2 of a quadric measure's components.

The radii lambda_j >= 0 of each component (k, l) of a
`kdq.PseudoPositiveMeasure` stay fixed, and its weights r_j^2 > 0 are the
masses at time 0.  This is a different flow from the linear r' = -lambda r
driving the explicit Toda reweighting; the two are never mixed.  The Riccati
equation integrates in closed form, r(t) = r(0)/(1 + lambda r(0) t), which is
global forward in time; `_riccati` evaluates it at times t >= 0, where each
mass is at most its value r(0)^2 at time 0.  Along the flow the weighted
tails S_{k,l}(t) = sum_j r_j^2(t)/lambda_j^k decrease monotonically, with
dS/dt = -2 sum_j r_j^3(t)/lambda_j^{k-1}.  The closed form is analytic in t,
so `monotonicity_check` checks that sum against a complex step of it.
"""

from dataclasses import dataclass

import numpy as np

from .kdq import ComponentFamily, PseudoPositiveMeasure
from .moment_1d import _as_vector

__all__ = ["MonotonicityReport", "monotonicity_check"]


def _riccati(family: ComponentFamily, times) -> np.ndarray:
    # masses r(t)^2 = (r(0)/(1 + lambda r(0) t))^2 at every time t >= 0, shape (times, atoms)
    times = np.asarray(times, dtype=float)
    r0 = np.sqrt(family.masses)
    with np.errstate(over="ignore", invalid="ignore"):  # t = 0 and t = inf are set below
        rate = family.radii * r0
        masses = (r0 / (1.0 + rate * times[:, None])) ** 2
    # for t > 0 at most the masses themselves, which the exact flow only lowers but
    # fl(sqrt(m))^2 may exceed; at t = 0, where lambda r(0) t may be inf * 0, the masses
    np.minimum(masses, family.masses, out=masses, where=times[:, None] > 0.0)
    masses[times == 0.0] = family.masses
    # at t = inf, 1 + lambda r(0) t is 1 + 0 * inf = NaN where lambda r(0) = 0,
    # whose r(0) stays; every other mass is 0 there
    inf = np.isinf(times)
    if inf.any():
        masses[inf] = np.where(rate == 0.0, np.minimum(r0**2, family.masses), 0.0)
    return masses


def _functionals(family: ComponentFamily, masses: np.ndarray, powers: np.ndarray) -> np.ndarray:
    # S_{k,l} of every component for masses (..., atoms), `powers` holding
    # lambda^k per atom; division error at lambda = 0 with k > 0 and a positive mass
    zero = (family.radii == 0.0) & (family.atom_degrees > 0)
    hit = (zero & (masses > 0.0)).reshape(-1, masses.shape[-1]) if zero.any() else zero
    if hit.any():
        k, ell = family.keys[family.owner(np.argmax(hit.any(axis=0)))]
        raise ZeroDivisionError(f"component {(k, ell)} divides by lambda^{k} at lambda = 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(masses > 0.0, masses / powers, 0.0)
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
    finite = np.isfinite(sums)
    if not finite.all():
        bad = ~finite.reshape(-1, sums.shape[-1]).all(axis=0)
        raise OverflowError(f"{name} of component {family.keys[np.argmax(bad)]} overflows")
    return sums


@dataclass(frozen=True)
class MonotonicityReport:
    """Grid values of every S_{k,l} plus monotonicity and derivative diagnostics."""

    times: np.ndarray
    values: np.ndarray  # S_{k,l}, shape (times, components), components in `family.keys` order
    max_increase: float
    max_derivative_residual: float


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


# the imaginary step of `monotonicity_check`: Im S(t + ih) = h dS/dt to
# O((lambda h / (1/r(0) + lambda t))^2), and stays a normal double down to
# |dS/dt| = 2e-108, below which an atom whose term may matter is refused; a
# step lambda h of at least 1e-8 (1/r(0) + lambda t) is refused
_H = 1e-200
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps


def monotonicity_check(mu: PseudoPositiveMeasure, t_grid) -> MonotonicityReport:
    """Check that S_{k,l} never increases along the flow from the measure's
    masses at time 0, on the given grid.

    Also checks dS/dt = -2 sum r^3/lambda^{k-1} at every grid point against
    the complex step Im S(t + ih)/h of the closed form r = 1/(1/r(0) +
    lambda t), h = 1e-200, which needs no earlier time and subtracts
    nothing; the step is 0 at t = inf.  ValueError for a measure with no
    components or a component with no atoms; OverflowError naming the
    component where either derivative overflows, or naming the component and
    the time where lambda h is not small against 1/r(0) + lambda t, or where
    Im r(t + ih)^2 of an atom underflows out of the normal range while its
    part of dS/dt may exceed eps |dS/dt|.
    """
    fam = mu.family
    if not fam.keys:
        raise ValueError("the measure has no components")
    empty = fam.sizes < 1
    if empty.any():
        raise ValueError(f"component {fam.keys[np.argmax(empty)]} has no atoms")
    times = _grid_times(t_grid)
    masses = _riccati(fam, times)
    with np.errstate(over="ignore"):  # a lambda^k past the double range is inf; the divisions take it so
        powers = fam.degree_powers(fam.radii)
    values = _functionals(fam, masses, powers)
    ds_dt = _ds_dt(fam, masses)
    step, finite = fam.radii * _H, np.isfinite(times)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # t = inf gives 0 below
        scale = 1.0 / np.sqrt(fam.masses) + fam.radii * times[:, None]  # 1/r(0) + lambda t
        coarse = (step >= 1e-8 * scale) & finite
        if coarse.any():
            i, j = np.unravel_index(np.argmax(coarse), coarse.shape)
            raise OverflowError(
                f"at t = {float(times[i])!r} the step lambda h = {float(step[j])!r} of component "
                f"{fam.keys[fam.owner(j)]} is not small against 1/r(0) + lambda t = {float(scale[i, j])!r}"
            )
        r = 1.0 / (scale + 1j * step)
        im = (r * r).imag
        # an Im r^2 that is not a normal double has lost digits, up to all of its
        # atom's term, which lies below tiny / (lambda^k h); refused unless that bound
        # is below eps |dS/dt| (lambda = 0 has no term, and the step reads 0 there).
        # One scan of im first: |im| < tiny implies im > -tiny, which almost no input has
        if (im > -_TINY).any():
            lost = finite & (step > 0.0) & (np.abs(im) < _TINY)
            if lost.any():
                exact = np.repeat(ds_dt, fam.sizes, axis=1)
                lost &= (exact != 0.0) & (_TINY / (powers * _H) > _EPS * np.abs(exact))
            if lost.any():
                i, j = np.unravel_index(np.argmax(lost), lost.shape)
                raise OverflowError(
                    f"at t = {float(times[i])!r} the complex step of dS/dt of component {fam.keys[fam.owner(j)]} "
                    f"underflows: Im r(t + ih)^2 = {float(im[i, j])!r} is not a normal double"
                )
        terms = im / powers
        terms[~finite[:, 0]] = 0.0  # the step is 0 at t = inf
        ds_step = fam.block_sums(terms) / _H
    return MonotonicityReport(
        times=times,
        values=values,
        max_increase=_max_positive(np.diff(values, axis=0)),
        max_derivative_residual=_max_positive(np.abs(_finite(fam, ds_step, "dS/dt") - ds_dt)),
    )


def _max_positive(values: np.ndarray) -> float:
    # max(0.0, v_1, v_2, ...) folded with Python's max, which keeps 0.0 over
    # -0.0 and skips NaN: the largest entry above 0, else 0.0
    above = values[values > 0.0]
    return float(above.max()) if above.size else 0.0
