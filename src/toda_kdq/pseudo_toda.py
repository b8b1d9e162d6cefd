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

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import PositivityLossError
from .kdq import ComponentFamily, PseudoPositiveMeasure
from .moment_1d import DiscreteMeasure, JacobiMatrix, jacobi_from_measure
from .sphere import check_indices, eval_harmonic
from .toda_1d import _csv_text, _evolved_masses, spectral_solve, toda_rhs

__all__ = [
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
_FIELDS = ("lambdas", "masses_tilde")


def _toda_family(family: ComponentFamily) -> ComponentFamily:
    # radii >= 0 and tilde masses > 0 summing to one per component; each
    # component is then sorted by radius
    if (family.radii < 0.0).any():
        raise ValueError("radii must be finite and nonnegative")
    if (family.masses <= 0.0).any():
        raise ValueError("tilde masses must be finite and strictly positive")
    sums = family.block_sums(family.masses)
    off = np.abs(sums - 1.0) > _NORM_TOL
    if off.any():
        raise ValueError(f"tilde masses must sum to 1 within {_NORM_TOL}, got {sums[off][0]!r}")
    segment = np.repeat(np.arange(len(family.keys)), family.sizes)
    order = np.lexsort((family.radii, segment))
    return ComponentFamily(family.keys, family.offsets, family.radii[order], family.masses[order])


class PseudoTodaState:
    """Components (k, l) of radii lambda_j >= 0 and tilde masses summing to
    one, at a common time: a map (k, l) -> (lambdas, masses_tilde), or a
    `family`.  Each component is stored sorted by radius in `family`."""

    def __init__(self, n: int, components=None, time: float = 0.0, *, family=None):
        if n not in (2, 3):
            raise ValueError(f"unsupported ambient dimension n={n}")
        if not math.isfinite(time):
            raise ValueError(f"state time must be finite, got {time!r}")
        if family is None:
            family = ComponentFamily.pack(((key, *arrays) for key, arrays in (components or {}).items()), _FIELDS, 1)
        check_indices(n, family.keys)
        self.n, self.family, self.time = n, _toda_family(family), float(time)

    def common_size(self) -> int:
        sizes = set(self.family.sizes.tolist())
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
                {"k": k, "ell": ell, "lambdas": lam.tolist(), "masses_tilde": m.tolist()}
                for (k, ell), lam, m in self.family.items()
            ],
            "t": float(self.time),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoTodaState":
        items = (((c["k"], c["ell"]), c["lambdas"], c["masses_tilde"]) for c in d["components"])
        family = ComponentFamily.pack(items, _FIELDS, 1)
        return cls(n=int(d["n"]), time=float(d.get("t", 0.0)), family=family)


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


def _evolved(state: PseudoTodaState, times) -> np.ndarray:
    """Tilde masses at each of `times` after the state's time, shape (times, atoms).

    The components with m atoms form one (times, C_m, m) block.  A mass that
    underflows to 0 or is NaN raises PositivityLossError, naming the first
    such component and time.
    """
    fam = state.family
    dts = np.asarray(times, dtype=float)[:, None, None]
    out = np.empty((dts.shape[0], fam.radii.size))
    with np.errstate(all="ignore"):
        x = fam.radii**2
        for _, idx in fam.blocks:
            out[:, idx] = _evolved_masses(fam.masses[idx], x[idx], dts)
    bad = ~(out > 0.0)
    if bad.any():
        row, atom = divmod(int(np.flatnonzero(bad)[0]), out.shape[1])
        key = fam.keys[np.searchsorted(fam.offsets, atom, side="right") - 1]
        time = state.time + float(dts[row, 0, 0])
        raise PositivityLossError(f"tilde mass of component {key} is {float(out[row, atom])!r} at t = {time!r}")
    return out


def evolve(state: PseudoTodaState, t: float) -> PseudoTodaState:
    """Advance every component by time t; radii fixed, masses reweighted.

    The reweighting denominator restores sum rt2 = 1 exactly, and composing
    evolutions adds their times (the flow is a semigroup in t).
    """
    masses = _evolved(state, [t])[0]
    return PseudoTodaState(state.n, time=state.time + t, family=replace(state.family, masses=masses))


def component_jacobi(state: PseudoTodaState, idx) -> JacobiMatrix:
    """Jacobi matrix of the tilde measure sum_j rt2_j delta(rho - lambda_j^2).

    Lanczos runs once, at time 0 or at the state's time, whichever has the
    larger smallest mass (the state's time on a tie, so at time 0 the masses
    are used as given); from time 0 the exact QR flow of `toda_1d` carries
    the matrix to the state's time.  The tiny late masses of an evolved
    state thus never meet Lanczos's rank threshold.
    """
    lambdas, masses = state.family.component(idx)
    x = lambdas**2
    at_zero = _evolved_masses(masses, x, -state.time) if state.time != 0.0 else masses
    if not at_zero.min() > masses.min():
        return jacobi_from_measure(DiscreteMeasure(x, masses, half_line=True))
    jac = jacobi_from_measure(DiscreteMeasure(x, at_zero, half_line=True))
    return spectral_solve(jac, [state.time]).state(0)


def component_hamiltonian(state: PseudoTodaState, idx) -> float:
    """H_{k,l} = 2 sum_j lambda_j^4.

    It equals `toda_1d.hamiltonian_ab(component_jacobi(state, idx))`, the
    Hamiltonian 4 (sum at^2 + 1/2 sum bt^2) of the component's Jacobi matrix.
    """
    return _hamiltonians(state)[state.family.index(idx)]


def _hamiltonians(state: PseudoTodaState) -> list:
    # H_{k,l} of every component, ascending (k, l)
    return (2.0 * state.family.block_sums(state.family.radii**4)).tolist()


def total_hamiltonian(state: PseudoTodaState) -> float:
    """Sum of the component Hamiltonians; constant in time by construction."""
    return float(sum(_hamiltonians(state)))


def normalization_invariant(state: PseudoTodaState) -> float:
    """max_{k,l} |sum_j rt2_j - 1|; this is the growth bound with C = D = 1."""
    return float(np.max(np.abs(state.family.block_sums(state.family.masses) - 1.0), initial=0.0))


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
    return {key: component_jacobi(state, key) for key in state.family.keys}


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


def physical_surfaces(state: PseudoTodaState, j: int, theta) -> PhysicalSurface:
    """Displacement/momentum surfaces X_j, Y_j at direction theta.

    X_j = 4^{j-1} sum_{k,l} (prod_{m<j} at_{k,l;m}^2) g(k) Y_{k,l}(theta) with
    the per-component gauge g(k) = e^{-x_{k,l;1}}; Y_j sums y = -2 bt at site
    j.  The gauge g(k) = max(k,1)^{-(n-2)} tames the growth of the
    harmonics; any per-component constant is an equally valid representative.
    """
    n_sites = state.common_size()
    if not 1 <= j <= n_sites:
        raise ValueError(f"site j must be in 1..{n_sites}")
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
        x_total += 4.0 ** (j - 1) * prod * float(max(k, 1)) ** (-(state.n - 2)) * y_harm
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
    comps = {key: tilde_inverse(key[0], lambdas**2, masses) for key, lambdas, masses in state.family.items()}
    return PseudoPositiveMeasure(n=state.n, components=comps)


def state_trajectory_csv(state: PseudoTodaState, times) -> str:
    """CSV of tilde masses and the total Hamiltonian at the given times."""
    n_sites = state.common_size()
    header = ["t", "H_total"] + [
        f"rt2_k{k}_l{ell}_j{j}" for (k, ell) in state.family.keys for j in range(1, n_sites + 1)
    ]
    times = np.array([float(t) for t in times])
    masses = _evolved(state, times - state.time)
    return _csv_text(header, np.column_stack([times, np.full(times.size, total_hamiltonian(state)), masses]))
