"""Finite non-periodic Toda lattice with free ends.

Physical coordinates (x, y) carry the Hamiltonian
H = 1/2 sum y_j^2 + sum e^{x_j - x_{j+1}}; the substitution
a_j = e^{(x_j - x_{j+1})/2}/2, b_j = -y_j/2 turns the flow into

    a_j' = a_j (b_{j+1} - b_j),   b_j' = 2 (a_j^2 - a_{j-1}^2),

with the free-end convention a_0 = a_N = 0.  The same data form the Jacobi
matrix L (diag b, off-diagonal a), so a Flaschka state is a
`moment_1d.JacobiMatrix`.  Its spectrum is conserved, and its spectral
measure evolves by an explicit exponential reweighting.  The QR
factorisation of exp(t L) (Kostant, Symes) turns that into an exact
solver, the second one to test the ODE integrator against.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import PositivityLossError
from .moment_1d import JacobiMatrix, _freeze_fields, jacobi_eigenvalues

__all__ = [
    "TodaStatePhysical",
    "Trajectory",
    "AsymptoticsReport",
    "hamiltonian_xy",
    "flaschka_map",
    "flaschka_inverse",
    "hamiltonian_ab",
    "toda_rhs",
    "integrate_toda",
    "integrate_ensemble",
    "lax_matrices",
    "spectral_solve",
    "asymptotics_check",
    "trajectory_to_csv",
]

# |s| (lambda_max - lambda_min) <= _SPAN for every QR step, and at most
# _MAX_CHECKPOINTS steps of that length per call; at most _BLOCK doubles
# in one stacked factorisation
_SPAN = 8.0
_MAX_CHECKPOINTS = 2**16
_BLOCK = 2**15


@dataclass(frozen=True)
class TodaStatePhysical:
    """Displacements x and momenta y; physically meaningful modulo x -> x + c."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _freeze_fields(self, x=self.x, y=self.y)
        if x.shape != y.shape or x.size < 1:
            raise ValueError("x and y must be matching 1-d arrays")

    @property
    def n(self) -> int:
        return self.x.size


def hamiltonian_xy(s: TodaStatePhysical) -> float:
    """H = 1/2 sum y_j^2 + sum_{j<N} e^{x_j - x_{j+1}}."""
    with np.errstate(over="raise"):
        try:
            springs = np.exp(s.x[:-1] - s.x[1:])
        except FloatingPointError as exc:
            raise OverflowError("displacement gap overflows the spring energy") from exc
    return float(0.5 * np.sum(s.y**2) + np.sum(springs))


def flaschka_map(s: TodaStatePhysical) -> JacobiMatrix:
    """a_j = e^{(x_j - x_{j+1})/2}/2, b_j = -y_j/2; invariant under x -> x + c."""
    a = 0.5 * np.exp(0.5 * (s.x[:-1] - s.x[1:]))
    return JacobiMatrix(diag=-0.5 * s.y, offdiag=a)


def flaschka_inverse(s: JacobiMatrix, gauge: float = 0.0) -> TodaStatePhysical:
    """Representative physical state with x_1 = gauge.

    x_j = x_1 - 2(j-1) ln 2 - 2 sum_{m<j} ln a_m and y_j = -2 b_j; composing
    with flaschka_map returns the input exactly.
    """
    n = s.n
    x = np.empty(n)
    x[0] = gauge
    if n > 1:
        x[1:] = gauge - 2.0 * np.log(2.0) * np.arange(1, n) - 2.0 * np.cumsum(np.log(s.offdiag))
    return TodaStatePhysical(x=x, y=-2.0 * s.diag)


def _hamiltonian(a: np.ndarray, b: np.ndarray):
    # along the last axis, so that one state and stacked rows give the same bits
    return 4.0 * (np.sum(a**2, axis=-1) + 0.5 * np.sum(b**2, axis=-1))


def hamiltonian_ab(s: JacobiMatrix) -> float:
    """H = 4 (sum a_j^2 + 1/2 sum b_j^2); equals hamiltonian_xy of any preimage."""
    return float(_hamiltonian(s.offdiag, s.diag))


def _rhs(a: np.ndarray, b: np.ndarray, asq: np.ndarray, da: np.ndarray, db: np.ndarray):
    # rows of (B, N) arrays; a is zero beyond each row's couplings, and asq is
    # a (B, N + 1) buffer whose first and last columns stay 0 (a_0 = a_N = 0)
    np.multiply(a, np.subtract(b[:, 1:], b[:, :-1]), out=da)
    np.square(a, out=asq[:, 1:-1])
    np.multiply(2.0, np.subtract(asq[:, 1:], asq[:, :-1]), out=db)
    return da, db


def toda_rhs(s: JacobiMatrix):
    """Right-hand sides (a', b') of the flow, with the a_0 = a_N = 0 convention."""
    a, b = s.offdiag[None, :], s.diag[None, :]
    da, db = _rhs(a, b, np.zeros((1, s.n + 1)), np.empty(a.shape), np.empty(b.shape))
    return da[0], db[0]


@dataclass(frozen=True)
class Trajectory:
    """Flaschka states at T times: a has shape (T, N-1), b (T, N).

    The times may be any finite values, unsorted and negative included:
    `integrate_toda` samples multiples of its step, `spectral_solve` the
    times it is given.
    """

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> JacobiMatrix:
        return JacobiMatrix(diag=self.b[i].copy(), offdiag=self.a[i].copy())


def integrate_ensemble(states, t_final: float, dt: float = 1e-3) -> list:
    """Classical fixed-step RK4 integration of many states at once.

    Returns one `Trajectory` per state, sampled at multiples of dt.  States
    of smaller N are padded to the largest N with zero couplings, which is
    exact: a zero coupling stays zero under the flow, so the padded sites
    never act on the live ones, and each trajectory is bit-identical to a
    run of its state alone.  Positivity of the live couplings is checked
    after every step: the exact flow preserves a_j > 0, so a crossing means
    dt is too large for that state.  With more than one state, the error
    names the index and the size of the state that failed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("t_final must be nonnegative")
    sizes = [s.n for s in states]
    n_states, n = len(sizes), max(sizes)
    a = np.zeros((n_states, n - 1))
    b = np.zeros((n_states, n))
    for i, s in enumerate(states):
        a[i, : s.n - 1], b[i, : s.n] = s.offdiag, s.diag
    live = np.arange(n - 1) < np.array(sizes)[:, None] - 1
    asq = np.zeros((n_states, n + 1))
    ka = [np.empty_like(a) for _ in range(4)]
    kb = [np.empty_like(b) for _ in range(4)]
    a_out = np.empty((n_states, n_steps + 1, n - 1))
    b_out = np.empty((n_states, n_steps + 1, n))
    a_out[:, 0], b_out[:, 0] = a, b
    # blow-ups surface as non-finite entries and are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            ka1, kb1 = _rhs(a, b, asq, ka[0], kb[0])
            ka2, kb2 = _rhs(a + 0.5 * dt * ka1, b + 0.5 * dt * kb1, asq, ka[1], kb[1])
            ka3, kb3 = _rhs(a + 0.5 * dt * ka2, b + 0.5 * dt * kb2, asq, ka[2], kb[2])
            ka4, kb4 = _rhs(a + dt * ka3, b + dt * kb3, asq, ka[3], kb[3])
            a = a + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
            b = b + (dt / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                bad = ~(np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1))
                raise PositivityLossError(
                    _at_state(bad, sizes) + f"non-finite state at t = {(step + 1) * dt}"
                )
            if (a[live] <= 0.0).any():
                raise PositivityLossError(
                    _at_state(((a <= 0.0) & live).any(axis=1), sizes)
                    + f"coupling left the positive cone at t = {(step + 1) * dt}; reduce dt"
                )
            a_out[:, step + 1], b_out[:, step + 1] = a, b
    times = dt * np.arange(n_steps + 1)
    # views into the padded output: a smaller state's rows are strided
    return [Trajectory(times=times, a=a_out[i, :, : m - 1], b=b_out[i, :, :m]) for i, m in enumerate(sizes)]


def _at_state(bad: np.ndarray, sizes: list) -> str:
    # error prefix naming the first failing state; none for a single state
    if len(sizes) == 1:
        return ""
    i = int(np.flatnonzero(bad)[0])
    return f"state {i} (N = {sizes[i]}): "


def integrate_toda(s0: JacobiMatrix, t_final: float, dt: float = 1e-3) -> Trajectory:
    """Classical fixed-step RK4 integration of one state; see `integrate_ensemble`."""
    return integrate_ensemble([s0], t_final, dt)[0]


def lax_matrices(s: JacobiMatrix):
    """The pair (L, B): L is the state itself, B its antisymmetrized off-part."""
    bmat = np.zeros((s.n, s.n))
    if s.n > 1:
        bmat += np.diag(s.offdiag, 1) - np.diag(s.offdiag, -1)
    return s, bmat


def _evolved_masses(masses: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """Masses reweighted by e^{-2 x t} and renormalized to total mass one.

    Works along the last axis, with `t` broadcast against `x`.  These are
    the corner masses of L(t) for x = eigenvalues; the pseudo-Toda
    components use it with x = lambda^2, forward in time and back to 0.
    """
    # exponent shifted by its maximum so the reweighting never overflows
    e = -2.0 * x * t
    w = masses * np.exp(e - e.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def spectral_solve(s0: JacobiMatrix, times) -> Trajectory:
    """Solve the flow exactly: the states at each of `times` from L(0) = s0.

    Eigenvalues stay fixed and the corner masses move as r_j^2(t)
    proportional to r_j^2(0) e^{-2 lambda_j t}; the QR factorisation of
    exp(t L(0)) carries these data without rebuilding L(t) from them.
    This is the Kostant-Symes solution: with exp(s L) = Q R, R having a
    positive diagonal, the state at time s is L(s) = Q^T L Q.  As exp(s L)
    commutes with L, Q^T L Q = R L R^{-1}, whose entries are read off R
    alone:

        a_j(s) = a_j R_{j+1,j+1} / R_{jj},
        b_j(s) = b_j + a_j R_{j,j+1} / R_{jj} - a_{j-1} R_{j-1,j} / R_{j-1,j-1}.

    The couplings are products of positive factors, so they keep their
    relative digits however small they get.  exp(s L) = V e^{s Lambda} V^T
    comes from one `eigh_tridiagonal` of a checkpoint state, shifted by the
    largest eigenvalue for s >= 0 and the smallest for s < 0; the leading V
    is orthogonal and leaves R unchanged, so e^{s (Lambda - shift)} V^T is
    what is factored, every offset s of a checkpoint in one stacked
    `np.linalg.qr` call (in blocks of at most _BLOCK doubles).  Offsets
    obey |s| (lambda_max - lambda_min) <= _SPAN, so each factored matrix is
    within a condition number of e^8 of orthogonal; longer horizons chain
    checkpoints k * h apart, forward and backward from the input, so each
    time's result does not depend on the other times asked for.

    `times` may be any finite values, in any order.  The result is a
    `Trajectory` with one row per time; a time on a checkpoint, t = 0 among
    them, returns the checkpoint's entries as they are, so the row of t = 0
    holds the entries of s0 bit for bit.  Raises PositivityLossError when a
    coupling underflows to 0, and OverflowError when the spectrum's width or
    the number of checkpoints is out of range.
    """
    diag, offdiag = s0.diag, s0.offdiag
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    b_out = np.empty((times.size, diag.size))
    a_out = np.empty((times.size, offdiag.size))
    if diag.size == 1:
        b_out[:] = diag
        return Trajectory(times=times, a=a_out, b=b_out)
    lam = eigh_tridiagonal(diag, offdiag, eigvals_only=True)
    width = float(lam[-1]) - float(lam[0])
    if not 0.0 < width < np.inf:
        raise OverflowError(f"the spectrum of L has width {width!r}, outside what double precision resolves")
    h = _SPAN / width
    steps = np.floor(np.abs(times) / h)
    if times.size and steps.max() > _MAX_CHECKPOINTS:
        raise OverflowError(
            f"|t| = {float(np.abs(times).max())!r} at spectral width {width!r} "
            f"needs more than {_MAX_CHECKPOINTS} QR checkpoints"
        )
    for sign in (1.0, -1.0):
        rows = np.flatnonzero(np.signbit(times) == (sign < 0.0))
        last = int(steps[rows].max()) if rows.size else -1
        b, a = diag, offdiag
        for k in range(last + 1):
            # the rows of checkpoint k, then the next checkpoint, in one stack
            here = rows[steps[rows] == k]
            s = times[here] - sign * k * h
            sb, sa = _qr_steps(b, a, np.append(s, sign * h) if k < last else s)
            b_out[here], a_out[here] = sb[: here.size], sa[: here.size]
            b, a = sb[-1], sa[-1]
    if not (a_out > 0.0).all():
        row = np.flatnonzero(~(a_out > 0.0).all(axis=1))[0]
        raise PositivityLossError(f"a coupling underflowed to 0 at t = {float(times[row])!r}")
    return Trajectory(times=times, a=a_out, b=b_out)


def _qr_steps(b: np.ndarray, a: np.ndarray, s: np.ndarray):
    # the flow from (b, a) over offsets s of one sign, |s| <= h; see spectral_solve
    b_out = np.empty((s.size, b.size))
    a_out = np.empty((s.size, a.size))
    lam, v = eigh_tridiagonal(b, a)
    shifted = lam - (lam[0] if (s < 0.0).any() else lam[-1])
    block = max(1, _BLOCK // b.size**2)  # doubles per (B, N, N) stack
    for lo in range(0, s.size, block):
        sb = s[lo : lo + block]
        r = np.linalg.qr(np.exp(sb[:, None] * shifted)[:, :, None] * v.T, mode="r")
        d = np.diagonal(r, axis1=1, axis2=2)
        step = a * np.diagonal(r, offset=1, axis1=1, axis2=2) / d[:, :-1]
        d = np.abs(d)
        a_out[lo : lo + block] = a * (d[:, 1:] / d[:, :-1])
        b_out[lo : lo + block] = b
        b_out[lo : lo + block, :-1] += step
        b_out[lo : lo + block, 1:] -= step
    at_checkpoint = s == 0.0
    b_out[at_checkpoint], a_out[at_checkpoint] = b, a
    return b_out, a_out


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


def asymptotics_check(s0: JacobiMatrix, t_large: float) -> AsymptoticsReport:
    """Check a_j(+-t) -> 0 and that b(+-t) tends to the spectrum of L(0).

    The limits are approached like e^{-gap * t} with gap the smallest
    eigenvalue spacing, so the pass tolerance is 10 e^{-gap * t_large}.
    The b-limits are compared with the eigenvalues as multisets (sorted).
    """
    if t_large <= 0.0:
        raise ValueError("t_large must be positive")
    lam = jacobi_eigenvalues(s0.diag[None], s0.offdiag[None])[0]
    gap = float(np.min(np.diff(lam))) if lam.size > 1 else np.inf
    tol = max(float(10.0 * np.exp(-gap * t_large)), 1e-12)
    traj = spectral_solve(s0, [t_large, -t_large])
    max_a_fw, max_a_bw = (float(np.max(a)) if a.size else 0.0 for a in traj.a)
    dev_fw, dev_bw = (float(np.max(np.abs(np.sort(b) - lam))) for b in traj.b)
    trace_dev = max(abs(float(np.sum(b)) - float(np.sum(lam))) for b in traj.b)
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
    a, b = traj.a, traj.b
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("state entries must be finite")
    if np.any(a <= 0.0):
        raise ValueError("couplings a_j must be strictly positive")
    n = b.shape[1]
    header = (
        ["t"]
        + [f"a_{j}" for j in range(1, n)]
        + [f"b_{j}" for j in range(1, n + 1)]
        + ["H"]
        + [f"lambda_{j}" for j in range(1, n + 1)]
    )
    # H and the eigenvalues of L, for every row at once
    with np.errstate(over="ignore"):
        h = _hamiltonian(a, b)
    if not np.isfinite(h).all():
        row = np.flatnonzero(~np.isfinite(h))[0]
        raise OverflowError(f"the Hamiltonian H overflows at t = {float(traj.times[row])!r}")
    table = np.column_stack([traj.times, a, b, h, jacobi_eigenvalues(b, a)])
    return _csv_text(header, table)


def _csv_text(header, table) -> str:
    """CSV text: the header, then one line per row of `table`.

    `table` is anything `np.asarray` takes as a 2-d float array; each float
    is written in its shortest round-trip repr.  Shared by every CSV that
    the package writes.
    """
    lines = [",".join(header)]
    # one row of Python floats at a time keeps the peak memory of the text alone
    lines += [",".join(map(repr, row.tolist())) for row in np.asarray(table, dtype=float)]
    return "\n".join(lines) + "\n"
