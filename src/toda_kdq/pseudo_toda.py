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
from dataclasses import replace

import numpy as np

from .errors import PositivityLossError
from .kdq import ComponentFamily, PseudoPositiveMeasure
from .moment_1d import _check_mass, _check_unreduced, _lanczos, _merge_coincident, _segment_order
from .sphere import check_indices, harmonic_table
from .toda_1d import _csv_text, _evolved_masses, _flow, _rhs_rows

__all__ = [
    "PseudoTodaState",
    "evolve",
    "family_jacobi",
    "total_hamiltonian",
    "normalization_invariant",
    "component_ode_residual",
    "flaschka_surfaces",
    "state_to_measure",
]

_NORM_TOL = 1e-12
_ODE_DT = 1e-4  # the step of `component_ode_residual`'s central difference
_FIELDS = ("lambdas", "masses_tilde")  # a component's JSON list fields (read in cli) and the names in its errors


def _toda_family(family: ComponentFamily) -> ComponentFamily:
    # radii >= 0 and tilde masses > 0 summing to one per component, errors
    # naming the first component that fails; each is then sorted by radius
    for bad, rule in (
        (family.radii < 0.0, "radii of component {} must be finite and nonnegative"),
        (family.masses <= 0.0, "tilde masses of component {} must be finite and strictly positive"),
    ):
        if bad.any():
            raise ValueError(rule.format(family.keys[family.owner(bad.argmax())]))
    sums = family.block_sums(family.masses)
    off = np.abs(sums - 1.0) > _NORM_TOL
    if off.any():
        i = int(off.argmax())
        raise ValueError(
            f"tilde masses of component {family.keys[i]} must sum to 1 within {_NORM_TOL}, got {float(sums[i])!r}"
        )
    order = _segment_order(family.radii, family.offsets)
    return ComponentFamily(family.keys, family.offsets, family.radii[order], family.masses[order])


class PseudoTodaState:
    """Components (k, l) of radii lambda_j >= 0 and tilde masses summing to
    one, at a common time: a map (k, l) -> (lambdas, masses_tilde), or a
    family packed with the field names `_FIELDS`.  Each component is stored
    sorted by radius in `family`."""

    def __init__(self, n: int, components, time: float = 0.0):
        if not math.isfinite(time):
            raise ValueError(f"state time must be finite, got {time!r}")
        family = ComponentFamily.pack(components, _FIELDS, 1)
        check_indices(n, family.keys)
        self.n, self.family, self.time = n, _toda_family(family), float(time)

    def common_size(self) -> int:
        """The atom count of every component; ValueError naming the first whose count differs."""
        sizes, keys = self.family.sizes, self.family.keys
        if not keys:
            raise ValueError("state has no components")
        i = int(np.argmax(sizes != sizes[0]))  # 0: no count differs from the first
        if i:
            raise ValueError(f"component {keys[i]} has {sizes[i]} atoms where component {keys[0]} has {sizes[0]}")
        return int(sizes[0])


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
        key = fam.keys[fam.owner(atom)]
        time = state.time + float(dts[row, 0, 0])
        raise PositivityLossError(f"tilde mass of component {key} is {float(out[row, atom])!r} at t = {time!r}")
    return out


def evolve(state: PseudoTodaState, t: float) -> PseudoTodaState:
    """Advance every component by time t; radii fixed, masses reweighted.

    The reweighting denominator restores sum rt2 = 1 exactly, and composing
    evolutions adds their times (the flow is a semigroup in t).  t = NaN is
    a ValueError.
    """
    if math.isnan(t):
        raise ValueError(f"evolution time must be a number, got t = {t!r}")
    # the radii and their order stay, and `_evolved` checked the new masses
    out = object.__new__(PseudoTodaState)
    out.n, out.family, out.time = state.n, replace(state.family, masses=_evolved(state, [t])[0]), state.time + t
    return out


def family_jacobi(state: PseudoTodaState) -> tuple:
    """Jacobi matrices of the tilde measures sum_j rt2_j delta(rho - lambda_j^2)
    of every component: diagonals (K, N) and couplings (K, N-1), one row
    per component in ascending (k, l) order, N the largest atom count.

    A component whose tilde atoms merge (within 1e-12), or that has fewer
    atoms, has a Jacobi matrix of m < N sites; its row holds it in sites
    1..m and 0 past them, a free end.  Each row's Lanczos runs at time 0
    or at the state's time, whichever has the larger smallest mass (the
    state's time on a tie, so at time 0 the masses are used as given);
    from time 0 the exact QR flow of `toda_1d` carries the matrix to the
    state's time.  The tiny late masses of an evolved state thus never meet
    Lanczos's rank threshold.  The rows of each size m take one stacked
    Lanczos and one stacked flow, and each row gets the bits it would get
    in a family of its component alone.  Errors name the component.
    """
    family, time = state.family, state.time
    labels = np.array([f"component {key}: " for key in family.keys], dtype=object)
    x = family.radii**2
    masses = family.masses
    from_zero = np.zeros(len(family.keys), dtype=bool)
    if time != 0.0:
        at_zero = np.empty(masses.shape)
        with np.errstate(all="ignore"):
            for pos, idx in family.blocks:
                at_zero[idx] = _evolved_masses(masses[idx], x[idx], -time)
                from_zero[pos] = at_zero[idx].min(axis=1) > masses[idx].min(axis=1)
        masses = np.where(np.repeat(from_zero, family.sizes), at_zero, masses)
    # the tilde measures, coincident atoms merged, as a family of tilde radii
    atoms, weights, offsets = _merge_coincident(x, masses, family.offsets)
    merged = ComponentFamily(family.keys, offsets, atoms, weights)
    _check_mass(merged.block_sums(weights), labels)
    width = int(family.sizes.max(initial=1))
    diag, offdiag = np.zeros((len(family.keys), width)), np.zeros((len(family.keys), width - 1))
    for pos, idx in merged.blocks:
        m = idx.shape[1]
        alphas, sb = _lanczos(merged.radii[idx], merged.masses[idx], labels[pos])
        b, a = alphas[:, ::-1], sb[:, ::-1]
        flow = from_zero[pos] & (m > 1)
        if flow.any():
            sb, sa = _flow(b[flow], a[flow], np.array([time]), labels[pos[flow]])
            b[flow], a[flow] = sb[:, 0], sa[:, 0]
        _check_unreduced(a, labels[pos])
        diag[pos, :m], offdiag[pos, : m - 1] = b, a
    return diag, offdiag


def total_hamiltonian(state: PseudoTodaState) -> float:
    """Sum of the component Hamiltonians H_{k,l} = 2 sum_j lambda_j^4, in
    ascending (k, l) order; constant in time by construction.

    H_{k,l} equals the Hamiltonian 4 (sum at^2 + 1/2 sum bt^2) of the
    component's `family_jacobi` row.
    """
    return float(sum((2.0 * state.family.block_sums(state.family.radii**4)).tolist()))


def normalization_invariant(state: PseudoTodaState) -> float:
    """max_{k,l} |sum_j rt2_j - 1|; this is the growth bound with C = D = 1."""
    return float(np.max(np.abs(state.family.block_sums(state.family.masses) - 1.0), initial=0.0))


def component_ode_residual(state: PseudoTodaState, t: float) -> np.ndarray:
    """Central-difference check that each component's (at, bt)(t) obeys the
    1-d Toda equations: one residual per component, shape (K,).

    Differences the `family_jacobi` rows at t +- `_ODE_DT` against the
    right-hand sides evaluated at t; the residual is O(_ODE_DT^2).
    """
    b_m, a_m = family_jacobi(evolve(state, t - _ODE_DT))
    b_0, a_0 = family_jacobi(evolve(state, t))
    b_p, a_p = family_jacobi(evolve(state, t + _ODE_DT))
    da, db = _rhs_rows(b_0, a_0)
    res_a = np.max(np.abs((a_p - a_m) / (2.0 * _ODE_DT) - da), axis=1, initial=0.0)
    res_b = np.max(np.abs((b_p - b_m) / (2.0 * _ODE_DT) - db), axis=1, initial=0.0)
    return np.maximum(res_a, res_b)


def flaschka_surfaces(state: PseudoTodaState, j: int, theta):
    """(A_j(theta), B_j(theta)) = harmonic sums of the Jacobi entries at site j.

    Components must share the atom count N; valid sites are 1 <= j <= N,
    with A_N = 0 by the free-end convention.  Summation runs in ascending
    (k, l) order.
    """
    n_sites = state.common_size()
    if not 1 <= j <= n_sites:
        raise ValueError(f"site j must be in 1..{n_sites}")
    diag, offdiag = family_jacobi(state)
    y = harmonic_table(state.n, state.family.keys, theta)
    # np.cumsum adds the terms one at a time in key order, as a loop over the
    # components does; np.sum would add them pairwise
    a_val = float(np.cumsum(offdiag[:, j - 1] * y)[-1]) if j < n_sites else 0.0
    return a_val, float(np.cumsum(diag[:, j - 1] * y)[-1])


def state_to_measure(state: PseudoTodaState) -> PseudoPositiveMeasure:
    """Associated pseudo-positive measure: atoms lambda with untilded masses r^2.

    Requires lambda > 0 wherever k > 0 (the tilde map is not invertible at
    zero radius).  The masses are r^2 = rt^2 / lambda^k from lambda itself,
    one scalar power per degree (`degree_powers`), so a radius whose square
    over- or underflows still maps.
    """
    fam = state.family
    if ((fam.radii == 0.0) & (fam.atom_degrees > 0)).any():
        raise ZeroDivisionError("tilde map not invertible at lambda = 0 with k > 0")
    return PseudoPositiveMeasure(state.n, replace(fam, masses=fam.masses / fam.degree_powers(fam.radii)))


def state_trajectory_csv(state: PseudoTodaState, times) -> str:
    """CSV of tilde masses and the total Hamiltonian at the given times."""
    n_sites = state.common_size()
    header = ["t", "H_total"] + [
        f"rt2_k{k}_l{ell}_j{j}" for (k, ell) in state.family.keys for j in range(1, n_sites + 1)
    ]
    times = np.array([float(t) for t in times])
    masses = _evolved(state, times - state.time)
    return _csv_text(header, np.column_stack([times, np.full(times.size, total_hamiltonian(state)), masses]))
