"""Finite non-periodic Toda lattice with free ends.

Physical coordinates (x, y) carry the Hamiltonian
H = 1/2 sum y_j^2 + sum e^{x_j - x_{j+1}}; the substitution
a_j = e^{(x_j - x_{j+1})/2}/2, b_j = -y_j/2 turns the flow into

    a_j' = a_j (b_{j+1} - b_j),   b_j' = 2 (a_j^2 - a_{j-1}^2),

with the free-end convention a_0 = a_N = 0.  The same data form a Jacobi
matrix L (diag b, off-diagonal a) whose spectrum is conserved, and whose
spectral measure evolves by an explicit exponential reweighting - which
gives a second, quadrature-free solver to test the ODE integrator against.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import PositivityLossError
from .moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    jacobi_from_measure,
    spectral_data_from_jacobi,
)

__all__ = [
    "TodaStatePhysical",
    "TodaStateFlaschka",
    "Trajectory",
    "AsymptoticsReport",
    "hamiltonian_xy",
    "flaschka_map",
    "flaschka_inverse",
    "hamiltonian_ab",
    "toda_rhs",
    "integrate_toda",
    "lax_matrices",
    "spectral_solve",
    "asymptotics_check",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class TodaStatePhysical:
    """Displacements x and momenta y; physically meaningful modulo x -> x + c."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.shape != y.shape or x.ndim != 1 or x.size < 1:
            raise ValueError("x and y must be matching 1-d arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("state entries must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class TodaStateFlaschka:
    """Couplings a_1..a_{N-1} > 0 and diagonal entries b_1..b_N."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(-1)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.ndim != 1 or b.size < 1 or a.size != b.size - 1:
            raise ValueError("need len(a) == len(b) - 1 with len(b) >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("state entries must be finite")
        if np.any(a <= 0.0):
            raise ValueError("couplings a_j must be strictly positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.size


def hamiltonian_xy(s: TodaStatePhysical) -> float:
    """H = 1/2 sum y_j^2 + sum_{j<N} e^{x_j - x_{j+1}}."""
    with np.errstate(over="raise"):
        try:
            springs = np.exp(s.x[:-1] - s.x[1:])
        except FloatingPointError as exc:
            raise OverflowError("displacement gap overflows the spring energy") from exc
    return float(0.5 * np.sum(s.y**2) + np.sum(springs))


def flaschka_map(s: TodaStatePhysical) -> TodaStateFlaschka:
    """a_j = e^{(x_j - x_{j+1})/2}/2, b_j = -y_j/2; invariant under x -> x + c."""
    a = 0.5 * np.exp(0.5 * (s.x[:-1] - s.x[1:]))
    return TodaStateFlaschka(a=a, b=-0.5 * s.y)


def flaschka_inverse(s: TodaStateFlaschka, gauge: float = 0.0) -> TodaStatePhysical:
    """Representative physical state with x_1 = gauge.

    x_j = x_1 - 2(j-1) ln 2 - 2 sum_{m<j} ln a_m and y_j = -2 b_j; composing
    with flaschka_map returns the input exactly.
    """
    n = s.n
    x = np.empty(n)
    x[0] = gauge
    if n > 1:
        x[1:] = gauge - 2.0 * np.log(2.0) * np.arange(1, n) - 2.0 * np.cumsum(np.log(s.a))
    return TodaStatePhysical(x=x, y=-2.0 * s.b)


def hamiltonian_ab(s: TodaStateFlaschka) -> float:
    """H = 4 (sum a_j^2 + 1/2 sum b_j^2); equals hamiltonian_xy of any preimage."""
    return float(4.0 * (np.sum(s.a**2) + 0.5 * np.sum(s.b**2)))


def _rhs(a: np.ndarray, b: np.ndarray):
    da = a * (b[1:] - b[:-1])
    asq = a**2
    db = 2.0 * (np.concatenate([asq, [0.0]]) - np.concatenate([[0.0], asq]))
    return da, db


def toda_rhs(s: TodaStateFlaschka):
    """Right-hand sides (a', b') of the flow, with the a_0 = a_N = 0 convention."""
    return _rhs(s.a, s.b)


@dataclass(frozen=True)
class Trajectory:
    """Flaschka states sampled at uniform times: a has shape (T, N-1), b (T, N)."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> TodaStateFlaschka:
        return TodaStateFlaschka(a=self.a[i].copy(), b=self.b[i].copy())


def integrate_toda(s0: TodaStateFlaschka, t_final: float, dt: float = 1e-3) -> Trajectory:
    """Classical fixed-step RK4 integration, sampled at multiples of dt.

    Positivity of the couplings is checked after every step: the exact flow
    preserves a_j > 0, so a crossing means dt is too large for this state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("t_final must be nonnegative")
    n = s0.n
    a_out = np.empty((n_steps + 1, n - 1))
    b_out = np.empty((n_steps + 1, n))
    a, b = s0.a.copy(), s0.b.copy()
    a_out[0], b_out[0] = a, b
    for step in range(n_steps):
        # blow-ups surface as non-finite entries and are reported below
        with np.errstate(over="ignore", invalid="ignore"):
            ka1, kb1 = _rhs(a, b)
            ka2, kb2 = _rhs(a + 0.5 * dt * ka1, b + 0.5 * dt * kb1)
            ka3, kb3 = _rhs(a + 0.5 * dt * ka2, b + 0.5 * dt * kb2)
            ka4, kb4 = _rhs(a + dt * ka3, b + dt * kb3)
            a = a + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
            b = b + (dt / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise PositivityLossError(f"non-finite state at t = {(step + 1) * dt}")
        if np.any(a <= 0.0):
            raise PositivityLossError(
                f"coupling left the positive cone at t = {(step + 1) * dt}; reduce dt"
            )
        a_out[step + 1], b_out[step + 1] = a, b
    return Trajectory(times=dt * np.arange(n_steps + 1), a=a_out, b=b_out)


def lax_matrices(s: TodaStateFlaschka):
    """The pair (L, B): L symmetric tridiagonal, B its antisymmetrized off-part."""
    lax = JacobiMatrix(diag=s.b.copy(), offdiag=s.a.copy())
    bmat = np.zeros((s.n, s.n))
    if s.n > 1:
        bmat += np.diag(s.a, 1) - np.diag(s.a, -1)
    return lax, bmat


def _evolved_masses(masses: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """Masses reweighted by e^{-2 x t} and renormalized to total mass one.

    Shared by the spectral solution here (x = eigenvalues) and the
    pseudo-Toda components (x = lambda^2).
    """
    # exponent shifted by its maximum so the reweighting never overflows
    e = -2.0 * x * t
    w = masses * np.exp(e - e.max())
    return w / w.sum()


def spectral_solve(s0: TodaStateFlaschka, t: float) -> TodaStateFlaschka:
    """Solve the flow exactly through the spectral measure of L(0).

    Eigenvalues stay fixed; masses evolve by r_j^2(t) proportional to
    r_j^2(0) e^{-2 lambda_j t}, renormalized to total mass one; the state at
    time t is read off the Jacobi matrix rebuilt from the evolved measure.
    """
    lax, _ = lax_matrices(s0)
    sd = spectral_data_from_jacobi(lax)
    mu_t = DiscreteMeasure(sd.eigenvalues, _evolved_masses(sd.masses, sd.eigenvalues, t))
    jac = jacobi_from_measure(mu_t)
    return TodaStateFlaschka(a=jac.offdiag.copy(), b=jac.diag.copy())


@dataclass(frozen=True)
class AsymptoticsReport:
    """Scattering-limit diagnostics at +-t_large."""

    t_large: float
    tolerance: float
    max_a_forward: float
    max_a_backward: float
    b_spectrum_dev_forward: float
    b_spectrum_dev_backward: float
    trace_dev: float
    passed: bool


def asymptotics_check(s0: TodaStateFlaschka, t_large: float, slack: float = 10.0) -> AsymptoticsReport:
    """Check a_j(+-t) -> 0 and that b(+-t) tends to the spectrum of L(0).

    The limits are approached like e^{-gap * t} with gap the smallest
    eigenvalue spacing, so the pass tolerance is slack * e^{-gap * t_large}.
    The b-limits are compared with the eigenvalues as multisets (sorted).
    """
    if t_large <= 0.0:
        raise ValueError("t_large must be positive")
    lax, _ = lax_matrices(s0)
    sd = spectral_data_from_jacobi(lax)
    lam = sd.eigenvalues
    gap = float(np.min(np.diff(lam))) if lam.size > 1 else np.inf
    tol = max(float(slack * np.exp(-gap * t_large)), 1e-12)
    s_fw = spectral_solve(s0, t_large)
    s_bw = spectral_solve(s0, -t_large)
    max_a_fw = float(np.max(s_fw.a)) if s_fw.a.size else 0.0
    max_a_bw = float(np.max(s_bw.a)) if s_bw.a.size else 0.0
    dev_fw = float(np.max(np.abs(np.sort(s_fw.b) - lam)))
    dev_bw = float(np.max(np.abs(np.sort(s_bw.b) - lam)))
    trace_dev = max(
        abs(float(np.sum(s_fw.b)) - float(np.sum(lam))),
        abs(float(np.sum(s_bw.b)) - float(np.sum(lam))),
    )
    passed = max(max_a_fw, max_a_bw, dev_fw, dev_bw) <= tol and trace_dev <= 1e-9
    return AsymptoticsReport(
        t_large=float(t_large),
        tolerance=tol,
        max_a_forward=max_a_fw,
        max_a_backward=max_a_bw,
        b_spectrum_dev_forward=dev_fw,
        b_spectrum_dev_backward=dev_bw,
        trace_dev=trace_dev,
        passed=passed,
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text with columns t, a_1.., b_1.., H, lambda_1..; floats via repr."""
    n = traj.b.shape[1]
    header = (
        ["t"]
        + [f"a_{j}" for j in range(1, n)]
        + [f"b_{j}" for j in range(1, n + 1)]
        + ["H"]
        + [f"lambda_{j}" for j in range(1, n + 1)]
    )
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for i in range(len(traj)):
        state = traj.state(i)
        lax, _ = lax_matrices(state)
        lam = spectral_data_from_jacobi(lax).eigenvalues
        row = (
            [traj.times[i]]
            + list(traj.a[i])
            + list(traj.b[i])
            + [hamiltonian_ab(state)]
            + list(lam)
        )
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()
