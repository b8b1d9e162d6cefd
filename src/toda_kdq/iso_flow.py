"""Isospectral mass flow r' = -lambda r^2 with fixed radii.

This is a different flow from the linear r' = -lambda r driving the explicit
Toda reweighting; the two are never mixed.  The Riccati equation integrates
in closed form, r(t) = r(0)/(1 + lambda r(0) t), which is global forward in
time and blows up backward at t = -1/(lambda r(0)).  Along the flow the
weighted tails S_{k,l}(t) = sum_j r_j^2(t)/lambda_j^k decrease monotonically,
with dS/dt = -2 sum_j r_j^3(t)/lambda_j^{k-1}.
"""

from dataclasses import dataclass, field

import numpy as np

from .kdq import PseudoPositiveMeasure
from .moment_1d import DiscreteMeasure, _freeze_fields

__all__ = [
    "IsoFlowComponent",
    "IsoFlowState",
    "IntegrabilityReport",
    "MonotonicityReport",
    "blow_up_time",
    "riccati_evolve",
    "integrability_functional",
    "integrability_check",
    "monotonicity_check",
    "state_to_measure",
    "state_from_measure",
]


@dataclass(frozen=True)
class IsoFlowComponent:
    """Fixed radii lambda_j >= 0 with masses r_j^2 >= 0."""

    lambdas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        lam, m = _freeze_fields(self, lambdas=self.lambdas, masses=self.masses)
        if lam.shape != m.shape or lam.size < 1:
            raise ValueError("lambdas and masses must be matching 1-d arrays")
        if (lam < 0.0).any() or (m < 0.0).any():
            raise ValueError("radii and masses must be nonnegative")


@dataclass(frozen=True)
class IsoFlowState:
    """Component map (k, l) -> IsoFlowComponent at a common time."""

    components: dict = field(default_factory=dict)
    time: float = 0.0

    def __post_init__(self):
        comps = {}
        for key, comp in self.components.items():
            k, ell = int(key[0]), int(key[1])
            if k < 0 or ell < 1:
                raise ValueError(f"invalid component index {(k, ell)}")
            if not isinstance(comp, IsoFlowComponent):
                comp = IsoFlowComponent(*comp)
            comps[(k, ell)] = comp
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "time", float(self.time))

    def sorted_items(self):
        return sorted(self.components.items(), key=lambda kv: kv[0])


def blow_up_time(state: IsoFlowState) -> float:
    """Largest backward time the closed form tolerates (exclusive); -inf if none."""
    worst = -np.inf
    for _, comp in state.sorted_items():
        r0 = np.sqrt(comp.masses)
        prod = comp.lambdas * r0
        active = prod > 0.0
        if np.any(active):
            worst = max(worst, float(np.max(-1.0 / prod[active])))
    return worst


def riccati_evolve(state: IsoFlowState, t: float, allow_backward: bool = False) -> IsoFlowState:
    """Advance all masses by the closed form r(t) = r(0)/(1 + lambda r(0) t).

    Radii stay fixed.  Negative t must be enabled explicitly and must stay
    strictly after the blow-up time of every atom.
    """
    if t < 0.0:
        if not allow_backward:
            raise ValueError("backward evolution must be enabled explicitly")
        t_blow = blow_up_time(state)
        if t <= t_blow:
            raise ValueError(f"t = {t} is at or beyond the backward blow-up time {t_blow}")
    comps = {}
    for key, comp in state.components.items():
        r0 = np.sqrt(comp.masses)
        r_t = r0 / (1.0 + comp.lambdas * r0 * t)
        comps[key] = IsoFlowComponent(comp.lambdas, r_t**2)
    return IsoFlowState(components=comps, time=state.time + t)


def integrability_functional(state: IsoFlowState, idx) -> float:
    """S_{k,l} = sum_j r_j^2 / lambda_j^k; division error at lambda = 0 with k > 0."""
    k, ell = int(idx[0]), int(idx[1])
    comp = state.components.get((k, ell))
    if comp is None:
        raise KeyError(f"no component at index {(k, ell)}")
    if k > 0 and np.any((comp.lambdas == 0.0) & (comp.masses > 0.0)):
        raise ZeroDivisionError(f"component {(k, ell)} divides by lambda^{k} at lambda = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(comp.masses > 0.0, comp.masses / comp.lambdas ** float(k), 0.0)
    return float(np.sum(terms))


def _ds_dt(comp: IsoFlowComponent, k: int) -> float:
    r = np.sqrt(comp.masses)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > 0.0, r**3 / comp.lambdas ** float(k - 1), 0.0)
    return float(-2.0 * np.sum(terms))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Truncated double sum sum_{k,l} S_{k,l} with its per-degree profile."""

    total: float
    per_k: tuple  # ((k, sum_l S_{k,l}), ...) ascending in k
    tail_ratio: float | None
    divergence_trend: bool
    passed: bool


def integrability_check(state: IsoFlowState, ratio_tol: float = 1.0) -> IntegrabilityReport:
    """Sum the functionals over all stored components and report the k-profile.

    A finite component map always yields a finite sum (pass); the useful
    output for parameterized families is the geometric trend of the per-k
    partial sums - a tail ratio above `ratio_tol` flags divergence.
    """
    per_k: dict[int, float] = {}
    for (k, ell), _ in state.sorted_items():
        per_k[k] = per_k.get(k, 0.0) + integrability_functional(state, (k, ell))
    table = tuple(sorted(per_k.items()))
    total = float(sum(v for _, v in table))
    ratios = [
        b / a
        for (_, a), (_, b) in zip(table, table[1:])
        if a > 0.0
    ]
    tail_ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios and min(ratios) > 0 else None
    trend = tail_ratio is not None and tail_ratio > ratio_tol and len(ratios) >= 2
    return IntegrabilityReport(
        total=total, per_k=table, tail_ratio=tail_ratio, divergence_trend=trend, passed=True
    )


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
    keys = [key for key, _ in state.sorted_items()]
    values = {key: np.empty(times.size) for key in keys}
    max_resid = 0.0
    for i, t in enumerate(times):
        st = riccati_evolve(state, t - state.time, allow_backward=True)
        st_m = riccati_evolve(state, t - dt - state.time, allow_backward=True)
        st_p = riccati_evolve(state, t + dt - state.time)
        for key in keys:
            values[key][i] = integrability_functional(st, key)
            ds_num = (
                integrability_functional(st_p, key) - integrability_functional(st_m, key)
            ) / (2.0 * dt)
            max_resid = max(max_resid, abs(ds_num - _ds_dt(st.components[key], key[0])))
    max_inc = 0.0
    for key in keys:
        max_inc = max(max_inc, float(np.max(np.diff(values[key]), initial=0.0)))
    passed = max_inc <= tol
    return MonotonicityReport(
        times=times,
        values=values,
        max_increase=max_inc,
        max_derivative_residual=max_resid,
        passed=passed,
    )


def state_to_measure(state: IsoFlowState, n: int, k_max: int = -1) -> PseudoPositiveMeasure:
    """Serialize through the shared radial-component schema (zero-mass atoms drop)."""
    comps = {}
    for key, comp in state.sorted_items():
        keep = comp.masses > 0.0
        if np.any(keep):
            comps[key] = DiscreteMeasure(comp.lambdas[keep], comp.masses[keep], half_line=True)
    return PseudoPositiveMeasure(n=n, components=comps, k_max=k_max)


def state_from_measure(mu: PseudoPositiveMeasure) -> IsoFlowState:
    comps = {
        key: IsoFlowComponent(meas.atoms, meas.weights)
        for key, meas in mu.sorted_items()
    }
    return IsoFlowState(components=comps)
