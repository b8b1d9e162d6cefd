"""Family of half-line Toda flows indexed by spherical-harmonic indices.

Each component (k, l) carries fixed radii lambda_j >= 0 and time-dependent
tilde masses with sum_j rt2_j(t) = 1.  The tilde variables

    rt2_j = r_j^2 lambda_j^k,   lt_j = lambda_j^2

turn the component's radial measure into a unit-mass measure on the half
line whose Jacobi matrix evolves by the classical one-dimensional Toda
equations; the masses move by the explicit reweighting

    rt2_j(t) = rt2_j(0) e^{-2 lt_j t} / sum_m rt2_m(0) e^{-2 lt_m t}.

The per-component normalization is exactly the geometric growth bound with
C = D = 1, so the transform of the associated measure converges for
|zeta| > 1, Im zeta^2 > 0 at every time.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kdq import PseudoPositiveMeasure
from .moment_1d import DiscreteMeasure, JacobiMatrix, _freeze_fields, jacobi_from_measure
from .sphere import check_index, eval_harmonic
from .toda_1d import _csv_text, _evolved_masses, toda_rhs

__all__ = [
    "TodaComponent",
    "PseudoTodaState",
    "PhysicalSurface",
    "tilde_transform",
    "tilde_inverse",
    "evolve",
    "component_jacobi",
    "component_hamiltonian",
    "total_hamiltonian",
    "normalization_invariant",
    "component_ode_residual",
    "flaschka_surfaces",
    "physical_surfaces",
    "state_to_measure",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TodaComponent:
    """Radii lambda_j >= 0 (ascending) with tilde masses summing to one."""

    lambdas: np.ndarray
    masses_tilde: np.ndarray

    def __post_init__(self):
        lam, m = _freeze_fields(self, lambdas=self.lambdas, masses_tilde=self.masses_tilde)
        if lam.shape != m.shape or lam.size < 1:
            raise ValueError("lambdas and masses_tilde must be matching 1-d arrays")
        if (lam < 0.0).any():
            raise ValueError("radii must be finite and nonnegative")
        if (m <= 0.0).any():
            raise ValueError("tilde masses must be finite and strictly positive")
        if abs(m.sum() - 1.0) > _NORM_TOL:
            raise ValueError(f"tilde masses must sum to 1 within {_NORM_TOL}, got {m.sum()!r}")
        order = lam.argsort()
        _freeze_fields(self, lambdas=lam[order], masses_tilde=m[order])

    @property
    def size(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True)
class PseudoTodaState:
    """Component map (k, l) -> TodaComponent at a common time."""

    n: int
    components: dict = field(default_factory=dict)
    time: float = 0.0

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"unsupported ambient dimension n={self.n}")
        comps = {}
        for key, comp in self.components.items():
            k, ell = int(key[0]), int(key[1])
            check_index(self.n, k, ell)
            if not isinstance(comp, TodaComponent):
                comp = TodaComponent(*comp)
            comps[(k, ell)] = comp
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "time", float(self.time))

    def sorted_items(self):
        return sorted(self.components.items(), key=lambda kv: kv[0])

    def common_size(self) -> int:
        sizes = {comp.size for comp in self.components.values()}
        if not sizes:
            raise ValueError("state has no components")
        if len(sizes) != 1:
            raise ValueError("components have heterogeneous atom counts")
        return sizes.pop()

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "N": self.common_size(),
            "components": [
                {
                    "k": k,
                    "ell": ell,
                    "lambdas": [float(v) for v in comp.lambdas],
                    "masses_tilde": [float(v) for v in comp.masses_tilde],
                }
                for (k, ell), comp in self.sorted_items()
            ],
            "t": float(self.time),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoTodaState":
        comps = {
            (int(c["k"]), int(c["ell"])): TodaComponent(c["lambdas"], c["masses_tilde"])
            for c in d["components"]
        }
        return cls(n=int(d["n"]), components=comps, time=float(d.get("t", 0.0)))


def tilde_transform(k: int, lambdas, masses):
    """Map (lambda, r^2) -> (lambda^2, r^2 lambda^k) componentwise.

    For k > 0 an atom at lambda = 0 carries zero tilde mass; its untilded
    mass is unrecoverable, so a warning is emitted.
    """
    lam = np.asarray(lambdas, dtype=float)
    m = np.asarray(masses, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("radii must be nonnegative")
    if k > 0 and np.any((lam == 0.0) & (m > 0.0)):
        warnings.warn("atom at lambda = 0 with k > 0: mass annihilated by the tilde map", stacklevel=2)
    return lam**2, m * lam**k


def tilde_inverse(k: int, lambdas_tilde, masses_tilde):
    """Inverse map (lt, rt2) -> (sqrt(lt), rt2 lt^{-k/2}); requires lt > 0 when k > 0."""
    lt = np.asarray(lambdas_tilde, dtype=float)
    mt = np.asarray(masses_tilde, dtype=float)
    if np.any(lt < 0.0):
        raise ValueError("tilde radii must be nonnegative")
    lam = np.sqrt(lt)
    if k == 0:
        return lam, mt.copy()
    if np.any(lam == 0.0):
        raise ZeroDivisionError("tilde map not invertible at lambda = 0 with k > 0")
    return lam, mt / lam**k


def evolve(state: PseudoTodaState, t: float) -> PseudoTodaState:
    """Advance every component by time t; radii fixed, masses reweighted.

    The reweighting denominator restores sum rt2 = 1 exactly, and composing
    evolutions adds their times (the flow is a semigroup in t).
    """
    comps = {
        key: TodaComponent(comp.lambdas, _evolved_masses(comp.masses_tilde, comp.lambdas**2, t))
        for key, comp in state.components.items()
    }
    return PseudoTodaState(n=state.n, components=comps, time=state.time + t)


def _component(state: PseudoTodaState, idx) -> TodaComponent:
    key = (int(idx[0]), int(idx[1]))
    comp = state.components.get(key)
    if comp is None:
        raise KeyError(f"no component at index {key}")
    return comp


def component_jacobi(state: PseudoTodaState, idx) -> JacobiMatrix:
    """Jacobi matrix of the tilde measure sum_j rt2_j delta(rho - lambda_j^2)."""
    comp = _component(state, idx)
    mu = DiscreteMeasure(comp.lambdas**2, comp.masses_tilde, half_line=True)
    return jacobi_from_measure(mu)


def component_hamiltonian(state: PseudoTodaState, idx) -> float:
    """H_{k,l} = 2 sum_j lambda_j^4.

    It equals `toda_1d.hamiltonian_ab(component_jacobi(state, idx))`, the
    Hamiltonian 4 (sum at^2 + 1/2 sum bt^2) of the component's Jacobi matrix.
    """
    comp = _component(state, idx)
    return float(2.0 * np.sum(comp.lambdas**4))


def total_hamiltonian(state: PseudoTodaState) -> float:
    """Sum of the component Hamiltonians; constant in time by construction."""
    return float(sum(component_hamiltonian(state, key) for key, _ in state.sorted_items()))


def normalization_invariant(state: PseudoTodaState) -> float:
    """max_{k,l} |sum_j rt2_j - 1|; this is the growth bound with C = D = 1."""
    devs = [abs(float(comp.masses_tilde.sum()) - 1.0) for _, comp in state.sorted_items()]
    return max(devs, default=0.0)


def component_ode_residual(state: PseudoTodaState, idx, t: float, dt: float = 1e-4) -> float:
    """Central-difference check that (at, bt)(t) obeys the 1-d Toda equations.

    Differences the Jacobi entries of the component at t +- dt against the
    right-hand sides evaluated at t; the residual is O(dt^2).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    jac_m = component_jacobi(evolve(state, t - dt), idx)
    jac_0 = component_jacobi(evolve(state, t), idx)
    jac_p = component_jacobi(evolve(state, t + dt), idx)
    da_num = (jac_p.offdiag - jac_m.offdiag) / (2.0 * dt)
    db_num = (jac_p.diag - jac_m.diag) / (2.0 * dt)
    da, db = toda_rhs(jac_0)
    res_a = float(np.max(np.abs(da_num - da))) if da.size else 0.0
    res_b = float(np.max(np.abs(db_num - db)))
    return max(res_a, res_b)


def _jacobi_table(state: PseudoTodaState) -> dict:
    return {key: component_jacobi(state, key) for key, _ in state.sorted_items()}


def flaschka_surfaces(state: PseudoTodaState, j: int, theta):
    """(A_j(theta), B_j(theta)) = harmonic sums of the Jacobi entries at site j.

    Components must share the atom count N; valid sites are 1 <= j <= N,
    with A_N = 0 by the free-end convention.  Summation runs in ascending
    (k, l) order.
    """
    n_sites = state.common_size()
    if not 1 <= j <= n_sites:
        raise ValueError(f"site j must be in 1..{n_sites}")
    table = _jacobi_table(state)
    a_val = 0.0
    b_val = 0.0
    for key, jac in table.items():
        y_val = float(eval_harmonic(state.n, key, theta))
        if j <= n_sites - 1:
            a_val += float(jac.offdiag[j - 1]) * y_val
        b_val += float(jac.diag[j - 1]) * y_val
    return a_val, b_val


@dataclass(frozen=True)
class PhysicalSurface:
    """Surface values with per-degree partial sums (ascending k) for convergence checks."""

    x: float
    y: float
    x_partials: tuple
    y_partials: tuple


def physical_surfaces(state: PseudoTodaState, j: int, theta, gauge=None) -> PhysicalSurface:
    """Displacement/momentum surfaces X_j, Y_j at direction theta.

    X_j = 4^{j-1} sum_{k,l} (prod_{m<j} at_{k,l;m}^2) g(k) Y_{k,l}(theta) with
    the per-component gauge g(k) = e^{-x_{k,l;1}}; Y_j sums y = -2 bt at site
    j.  The default gauge g(k) = max(k,1)^{-(n-2)} tames the growth of the
    harmonics; any per-component constant is an equally valid representative.
    """
    n_sites = state.common_size()
    if not 1 <= j <= n_sites:
        raise ValueError(f"site j must be in 1..{n_sites}")
    if gauge is None:
        gauge = lambda k: float(max(k, 1)) ** (-(state.n - 2))
    table = _jacobi_table(state)
    x_total, y_total = 0.0, 0.0
    x_partials, y_partials = [], []
    current_k = None
    for (k, ell), jac in sorted(table.items()):
        if current_k is not None and k != current_k:
            x_partials.append(x_total)
            y_partials.append(y_total)
        current_k = k
        y_harm = float(eval_harmonic(state.n, (k, ell), theta))
        prod = float(np.prod(jac.offdiag[: j - 1] ** 2)) if j > 1 else 1.0
        x_total += 4.0 ** (j - 1) * prod * gauge(k) * y_harm
        y_total += -2.0 * float(jac.diag[j - 1]) * y_harm
    x_partials.append(x_total)
    y_partials.append(y_total)
    return PhysicalSurface(
        x=x_total, y=y_total, x_partials=tuple(x_partials), y_partials=tuple(y_partials)
    )


def state_to_measure(state: PseudoTodaState) -> PseudoPositiveMeasure:
    """Associated pseudo-positive measure: atoms lambda with untilded masses r^2.

    Requires lambda > 0 wherever k > 0 (the tilde map is not invertible at
    zero radius).
    """
    comps = {}
    for (k, ell), comp in state.sorted_items():
        lam, r2 = tilde_inverse(k, comp.lambdas**2, comp.masses_tilde)
        comps[(k, ell)] = DiscreteMeasure(lam, r2, half_line=True)
    return PseudoPositiveMeasure(n=state.n, components=comps)


def state_trajectory_csv(state: PseudoTodaState, times) -> str:
    """CSV of tilde masses and the total Hamiltonian at the given times."""
    n_sites = state.common_size()
    keys = [key for key, _ in state.sorted_items()]
    header = ["t", "H_total"] + [
        f"rt2_k{k}_l{ell}_j{j}" for (k, ell) in keys for j in range(1, n_sites + 1)
    ]
    rows = []
    for t in times:
        st = evolve(state, float(t) - state.time)
        masses = [st.components[key].masses_tilde for key in keys]
        rows.append(np.concatenate([[float(t), total_hamiltonian(st)], *masses]))
    return _csv_text(header, rows)
