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

from .errors import PositivityLossError
from .moment_1d import _BLOCK, JacobiMatrix, _dense_rows, _freeze_fields, jacobi_eigenvalues

__all__ = [
    "TodaStatePhysical",
    "Trajectory",
    "hamiltonian_xy",
    "flaschka_map",
    "flaschka_inverse",
    "hamiltonian_ab",
    "toda_rhs",
    "integrate_toda",
    "integrate_ensemble",
    "lax_matrices",
    "spectral_solve",
    "trajectory_to_csv",
]

# |s| (lambda_max - lambda_min) <= _SPAN for every QR step, and at most
# _MAX_CHECKPOINTS steps of that length per call
_SPAN = 8.0
_MAX_CHECKPOINTS = 2**16
# RK4 steps between two scans of the output for a failure
_CHUNK = 64


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


def _rhs(a, b_next, b_prev, da, db, sq, live):
    # (a', b') into da and db for couplings a between the sites b_prev and
    # b_next; sq = (middle, upper, lower) views of an a^2 buffer one longer
    # than b whose ends stay 0 (a_0 = a_N = 0).  Couplings off `live` keep
    # what da holds; x + x is 2 x exactly.
    middle, upper, lower = sq
    np.subtract(b_next, b_prev, out=da, where=live)
    np.multiply(a, da, out=da, where=live)
    np.square(a, out=middle)
    np.subtract(upper, lower, out=db)
    np.add(db, db, out=db)


def _square_views(n: int):
    sq = np.zeros(n + 1)
    return sq[1:-1], sq[1:], sq[:-1]


def toda_rhs(s: JacobiMatrix):
    """Right-hand sides (a', b') of the flow, with the a_0 = a_N = 0 convention."""
    da, db = np.empty(s.n - 1), np.empty(s.n)
    _rhs(s.offdiag, s.diag[1:], s.diag[:-1], da, db, _square_views(s.n), True)
    return da, db


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

    Returns one `Trajectory` per state, sampled at multiples of dt.  The
    states are laid end to end as one chain of M sites, their total size,
    with a zero coupling at each joint, and the chain is integrated as one
    lattice packed as y = [a | b] of length 2 M - 1.  A zero coupling stays
    zero under the flow, so no state acts on another and each trajectory is
    bit-identical to a run of its state alone; each is a view of its own
    columns of one (T, 2 M - 1) output.  The couplings at the joints are
    masked out of a' rather than computed as 0 (b_{j+1} - b_j): once a state
    blows up, that product is 0 * inf = NaN, which would spread into its
    neighbours and blame the wrong state.

    The exact flow preserves a_j > 0, so a coupling at or below 0, or an
    entry that is not finite, means dt is too large for that state; either
    raises PositivityLossError.  Rather than after every step, the output is
    scanned for both once every _CHUNK = 64 steps and at the end, in one
    array pass.  The error names the first step that fails and the first
    state that fails there, as a check after every step would, non-finite
    entries taking precedence over non-positive couplings; a failing run
    stops within 64 steps of its failure.  With more than one state, the
    error names the index and the size of the state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("t_final must be nonnegative")
    sizes = [s.n for s in states]
    ends = np.cumsum(sizes)
    m = int(ends[-1])
    y = np.zeros(2 * m - 1)  # [a | b] at the present step
    for s, end in zip(states, ends.tolist()):
        y[end - s.n : end - 1], y[m - 1 + end - s.n : m - 1 + end] = s.offdiag, s.diag
    live = np.ones(m - 1, dtype=bool)
    live[ends[:-1] - 1] = False  # the joints
    # stage input, RHS values k1..k4 and their weighted sum; the k stay 0 at the joints
    stage, acc = np.empty(2 * m - 1), np.empty(2 * m - 1)
    k = np.zeros((4, 2 * m - 1))
    k1, k2, k3, k4 = k
    sq = _square_views(m)
    where = True if live.all() else live  # a mask costs a ufunc call about 1 us
    # (a, b_next, b_prev) of y and of the stage, (a', b') of each k
    y_views, stage_views = ((v[: m - 1], v[m:], v[m - 1 : -1]) for v in (y, stage))
    k_views = [(v[: m - 1], v[m - 1 :]) for v in k]
    half, full, sixth = (np.array(c) for c in (0.5 * dt, dt, dt / 6.0))
    # stages 2, 3 and 4: the step and the k that form their input, the k they give
    stages = ((half, k1, k_views[1]), (half, k2, k_views[2]), (full, k3, k_views[3]))
    out = np.empty((n_steps + 1, 2 * m - 1))
    out[0] = y
    # blow-ups surface as non-finite entries and are reported by _check_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, _CHUNK):
            hi = min(lo + _CHUNK, n_steps)
            for step in range(lo + 1, hi + 1):
                _rhs(*y_views, *k_views[0], sq, where)
                for h, k_in, k_out in stages:
                    np.multiply(h, k_in, out=stage)
                    np.add(y, stage, out=stage)
                    _rhs(*stage_views, *k_out, sq, where)
                # y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4)
                np.add(k2, k2, out=acc)
                np.add(k1, acc, out=acc)
                np.add(k3, k3, out=stage)
                np.add(acc, stage, out=acc)
                np.add(acc, k4, out=acc)
                np.multiply(sixth, acc, out=acc)
                np.add(y, acc, out=y)
                out[step] = y
            _check_rows(out[lo + 1 : hi + 1], lo + 1, live, ends, dt)
    times = dt * np.arange(n_steps + 1)
    return [
        Trajectory(times=times, a=out[:, end - n : end - 1], b=out[:, m - 1 + end - n : m - 1 + end])
        for n, end in zip(sizes, ends.tolist())
    ]


def _check_rows(rows: np.ndarray, first: int, live: np.ndarray, ends: np.ndarray, dt: float):
    # PositivityLossError at the first of the output rows `rows`, which are
    # steps first, first + 1, ..., that holds a non-finite entry or a live
    # coupling <= 0, naming the first state that fails there
    finite = np.isfinite(rows)
    low = (rows[:, : live.size] <= 0.0) & live
    bad = ~finite.all(axis=1) | low.any(axis=1)
    if not bad.any():
        return
    r = int(bad.argmax())
    t = (first + r) * dt
    if finite[r].all():
        # coupling j joins sites j and j + 1 of one state
        site, message = int(low[r].argmax()), f"coupling left the positive cone at t = {t}; reduce dt"
    else:
        sites = ~finite[r, live.size :]
        sites[: live.size] |= ~finite[r, : live.size]
        site, message = int(sites.argmax()), f"non-finite state at t = {t}"
    if ends.size > 1:
        i = int(np.searchsorted(ends, site, side="right"))
        message = f"state {i} (N = {int(np.diff(ends, prepend=0)[i])}): " + message
    raise PositivityLossError(message)


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
    comes from one `np.linalg.eigh` of a checkpoint state, shifted by the
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
    lam = np.linalg.eigvalsh(_dense_rows(diag[None], offdiag[None])[0])
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
    lam, v = np.linalg.eigh(_dense_rows(b[None], a[None])[0])
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
