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
from itertools import accumulate

import numpy as np

from .errors import PositivityLossError
from .moment_1d import _BLOCK, JacobiMatrix, _dense_rows, jacobi_eigenvalues

__all__ = [
    "Trajectory",
    "integrate_toda",
    "integrate_ensemble",
    "spectral_solve",
    "trajectory_to_csv",
]

# |s| (lambda_max - lambda_min) <= _SPAN for every QR step, and at most
# _MAX_CHECKPOINTS steps of that length per call
_SPAN = 8.0
_MAX_CHECKPOINTS = 2**16
# RK4 steps between two scans of the output for a failure
_CHUNK = 64
# chains of at most this many sites, ghosts included, step through `_kernel`:
# the longest chain on which it was not slower than the numpy loop.  One
# state, 200 steps, 21 alternating pairs on 2 shared cores: kernel / numpy
# time 0.19 at 3 sites, 0.49 at 9, 0.66 at 13, 0.89 at 16, 1.00 at 17 and
# 1.07 at 20 (README, "RK4 cost"; bench/BENCH_38.json reads 0.76 at 13)
_KERNEL_SITES = 16
# the kernels built so far, by site count
_KERNELS = {}
# entries of a CSV table turned into Python floats and strings at a time: on
# simulate-1d runs of N = 2 to 64, blocks of 2^15 raised the peak RSS by 4.5 MB, of 2^12 by 1 MB
_CSV_BLOCK = 2**12
# the ufuncs of an RK4 step, bound once (and to locals in the step loop): a
# step costs what its numpy calls cost, and looking each up on `np` made it
# about 8% slower
_add, _subtract, _multiply, _square = np.add, np.subtract, np.multiply, np.square
# the weight of b in a step where 2 dt overflows, dt >= 2^1023
_MAX = np.finfo(float).max


def _hamiltonian(b: np.ndarray, a: np.ndarray):
    # H = 4 (sum a_j^2 + 1/2 sum b_j^2), the physical H of the module
    # docstring, along the last axis, so that one state and stacked rows give the same bits
    return 4.0 * (np.sum(a**2, axis=-1) + 0.5 * np.sum(b**2, axis=-1))


def _rhs(views, k):
    # k = [a' | pad | b'/2] from x = [a | pad | b | 0, a^2, 0] along the last
    # axis: views = (a, a^2, upper, lower) of x (`_views`), k = (k, its a').
    # upper - lower over the tail [b | 0, a^2, 0] is b_{j+1} - b_j, the pad's
    # -b_m, then a_j^2 - a_{j-1}^2 with the free ends a_0 = a_m = 0.
    # `integrate_ensemble` writes these three calls out in its step loop
    a, sq, upper, lower = views
    k, ka = k
    _square(a, sq)
    _subtract(upper, lower, k)
    _multiply(a, ka, ka)


def _views(x: np.ndarray, m: int):
    # (a, a^2, upper, lower) of x = [a | pad | b | 0, a^2, 0], m sites, for `_rhs`
    return x[..., : m - 1], x[..., 2 * m + 1 : -1], x[..., m + 1 :], x[..., m:-1]


def _rhs_rows(b: np.ndarray, a: np.ndarray):
    # (a', b') of stacked rows b (..., N) and a (..., N-1); 2 x is exact
    n = b.shape[-1]
    x, k = np.zeros(b.shape[:-1] + (3 * n + 1,)), np.empty(b.shape[:-1] + (2 * n,))
    x[..., : n - 1], x[..., n : 2 * n] = a, b
    _rhs(_views(x, n), (k, k[..., : n - 1]))
    return k[..., : n - 1], 2.0 * k[..., n:]


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


def integrate_ensemble(states, t_final: float, dt: float) -> list:
    """Classical fixed-step RK4 integration of many states at once.

    Returns one `Trajectory` per state, sampled at multiples of dt.  The
    states are laid end to end as one chain of M sites, each state followed
    by a ghost site: its b is 0 and so are its two couplings, so no state
    acts on another and each trajectory is bit-identical to a run of its
    state alone.  A chain of at most _KERNEL_SITES sites steps through a
    compiled kernel of Python floats, a longer one through 25 numpy calls a
    step; both take the same IEEE operations in the same order (README, "RK4
    cost").  Each trajectory is a view of its own columns of one (T, 2 M)
    output [a | pad | b].

    The exact flow preserves a_j > 0, so a coupling at or below 0, or an
    entry that is not finite, means dt is too large for that state; either
    raises PositivityLossError.  The states' own columns are scanned for
    both once every _CHUNK = 64 steps and at the end; the error names the
    first step that fails and the first state that fails there, as a check
    after every step would, non-finite entries first (`_check_rows`).  With
    more than one state, it names the index and the size of the state.
    """
    if not states:
        raise ValueError("states must hold at least one state")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final!r}")
    n_steps = int(round(t_final / dt))
    if n_steps < 0:
        raise ValueError("t_final must be nonnegative")
    sizes = [s.n for s in states]
    starts = list(accumulate((n + 1 for n in sizes), initial=0))  # the first site of each state, then M
    m = starts.pop()
    # [a | pad | b | 0, a^2, 0]; the ghosts, joints and pad stay 0
    y = np.zeros(3 * m + 1)
    own = np.zeros(2 * m, dtype=bool)  # the states' entries of [a | pad | b], not the ghosts, joints and pad
    for s, start in zip(states, starts):
        y[start : start + s.n - 1], y[m + start : m + start + s.n] = s.offdiag, s.diag
        own[start : start + s.n - 1] = own[m + start : m + start + s.n] = True
    # the weights 0.5 dt, dt and dt/6 of a and, doubled, of b; where 2 dt
    # overflows, _MAX keeps b + w 0 = b, as b + dt (2 0) did
    weights = [(c, min(2.0 * c, _MAX)) for c in (0.5 * dt, dt, dt / 6.0)]
    out = np.empty((n_steps + 1, 2 * m))
    out[0] = y[: 2 * m]
    steps = _kernel_steps(m, weights) if m <= _KERNEL_SITES else _ufunc_steps(y, m, weights)
    next(steps)
    # blow-ups surface as non-finite entries and are reported by _check_rows
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, _CHUNK):
            hi = min(lo + _CHUNK, n_steps)
            steps.send(out[lo : hi + 1])
            _check_rows(out[lo + 1 : hi + 1], lo + 1, own, sizes, dt)
    times = dt * np.arange(n_steps + 1)
    return [
        Trajectory(times=times, a=out[:, start : start + n - 1], b=out[:, m + start : m + start + n])
        for n, start in zip(sizes, starts)
    ]


def _ufunc_steps(x: np.ndarray, m: int, weights: list):
    # the numpy engine, a generator: it fills rows 1.. of each output block
    # sent to it with the steps from row 0, stepping the chain x = [a | pad |
    # b | 0, a^2, 0] of m sites in place; its step loop reads fast locals,
    # which a closure's cells are not (those made a step 2-3% slower)
    stage = np.zeros(3 * m + 1)
    acc, k = np.empty(2 * m), np.empty((4, 2 * m))  # the weighted sum of k1..k4, and each k
    k1, k2, k3, k4 = k
    k1a, k2a, k3a, k4a = k[:, : m - 1]  # the a' of each k
    ya, ysq, yup, ylo = _views(x, m)
    sa, ssq, sup, slo = _views(stage, m)
    y, stage = x[: 2 * m], stage[: 2 * m]
    half, full, sixth = (np.repeat([c, 0.0, c2], [m - 1, 1, m]) for c, c2 in weights)
    add, subtract, multiply, square = _add, _subtract, _multiply, _square
    while True:
        block = yield
        for step in range(1, len(block)):
            # k1 at y, then k2, k3 and k4 at y + h k of the stage before,
            # h = half, half, full; each k is `_rhs` written out
            square(ya, ysq)
            subtract(yup, ylo, k1)
            multiply(ya, k1a, k1a)
            multiply(half, k1, stage)
            add(y, stage, stage)
            square(sa, ssq)
            subtract(sup, slo, k2)
            multiply(sa, k2a, k2a)
            multiply(half, k2, stage)
            add(y, stage, stage)
            square(sa, ssq)
            subtract(sup, slo, k3)
            multiply(sa, k3a, k3a)
            multiply(full, k3, stage)
            add(y, stage, stage)
            square(sa, ssq)
            subtract(sup, slo, k4)
            multiply(sa, k4a, k4a)
            # y + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4)
            add(k2, k2, acc)
            add(k1, acc, acc)
            add(k3, k3, stage)
            add(acc, stage, acc)
            add(acc, k4, acc)
            multiply(sixth, acc, acc)
            add(y, acc, y)
            block[step] = y


def _kernel_steps(m: int, weights: list):
    # the kernel engine: `_ufunc_steps` on a chain of m sites through `_kernel(m)`
    kernel, weights = _kernel(m), [float(w) for pair in weights for w in pair]
    while True:
        block = yield
        block[1:] = kernel(block[0].tolist(), len(block) - 1, *weights)


def _kernel(m: int):
    # a function (y, n, weights) -> the n rows after y = [a | pad | b] of
    # m sites, as tuples: the RK4 step of `_ufunc_steps` written out on
    # Python floats, every entry's operations in the order of the ufunc
    # calls, the pad's skipped (it stays 0); compiled from source on first use
    kernel = _KERNELS.get(m)
    if kernel is not None:
        return kernel
    ja, jb = range(m - 1), range(m)

    def rhs(a, b, ka, kb):  # k = (ka, kb) at the state (a, b), as `_rhs`; q0 - 0 is q0
        return [
            *(f"q{j} = {a}{j} * {a}{j}" for j in ja),
            *(f"{ka}{j} = {a}{j} * ({b}{j + 1} - {b}{j})" for j in ja),
            f"{kb}0 = q0",
            *(f"{kb}{j} = q{j} - q{j - 1}" for j in range(1, m - 1)),
            f"{kb}{m - 1} = 0.0 - q{m - 2}",
        ]

    def stage(ka, kb, w):  # the next stage's state y + w k
        return [*(f"A{j} = a{j} + {w} * {ka}{j}" for j in ja), *(f"B{j} = b{j} + {w}b * {kb}{j}" for j in jb)]

    def fold():  # the sum (k1 + 2 k2) + 2 k3 so far, in u and v, gains 2 k
        return [*(f"u{j} = u{j} + (p{j} + p{j})" for j in ja), *(f"v{j} = v{j} + (r{j} + r{j})" for j in jb)]

    a, b = ", ".join(f"a{j}" for j in ja), ", ".join(f"b{j}" for j in jb)
    body = [
        *rhs("a", "b", "u", "v"),
        *stage("u", "v", "h"),
        *rhs("A", "B", "p", "r"),
        *fold(),
        *stage("p", "r", "h"),
        *rhs("A", "B", "p", "r"),
        *fold(),
        *stage("p", "r", "f"),
        *rhs("A", "B", "p", "r"),
        *(f"a{j} = a{j} + s * (u{j} + p{j})" for j in ja),
        *(f"b{j} = b{j} + sb * (v{j} + r{j})" for j in jb),
        f"append(({a}, 0.0, {b}))",
    ]
    source = "\n".join(
        [
            "def kernel(y, n, h, hb, f, fb, s, sb):",
            f"    {a}, _, {b} = y",
            "    rows = []",
            "    append = rows.append",
            "    for _ in range(n):",
            *(f"        {line}" for line in body),
            "    return rows",
        ]
    )
    namespace = {}
    exec(compile(source, f"<toda_1d RK4 kernel, m = {m}>", "exec"), namespace)
    kernel = _KERNELS[m] = namespace["kernel"]
    return kernel


def _check_rows(rows: np.ndarray, first: int, own: np.ndarray, sizes: list, dt: float):
    # PositivityLossError at the first of the output rows `rows` = [a | pad | b],
    # which are steps first, first + 1, ..., that holds a non-finite entry or
    # a coupling <= 0 among the states' own columns `own`: their sites and
    # the couplings between two of them; names the first state that fails there
    m = own.size // 2
    broken = ~np.isfinite(rows) & own
    low = (rows[:, : m - 1] <= 0.0) & own[: m - 1]
    bad = broken.any(axis=1) | low.any(axis=1)
    if not bad.any():
        return
    r = int(bad.argmax())
    t = (first + r) * dt
    # coupling j counts at site j, its left site
    if broken[r].any():
        sites = broken[r, m:]
        sites[:-1] |= broken[r, : m - 1]
        site, message = int(sites.argmax()), f"non-finite state at t = {t}"
    else:
        site, message = int(low[r].argmax()), f"coupling left the positive cone at t = {t}; reduce dt"
    if len(sizes) > 1:
        i = int(np.count_nonzero(~own[m : m + site]))  # the ghosts before the site
        message = f"state {i} (N = {sizes[i]}): " + message
    raise PositivityLossError(message)


def integrate_toda(s0: JacobiMatrix, t_final: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 integration of one state; see `integrate_ensemble`."""
    return integrate_ensemble([s0], t_final, dt)[0]


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
    time's result does not depend on the other times asked for (`_flow`).

    `times` may be any finite values, in any order.  The result is a
    `Trajectory` with one row per time; a time on a checkpoint, t = 0 among
    them, returns the checkpoint's entries as they are, so the row of t = 0
    holds the entries of s0 bit for bit.  Raises PositivityLossError when a
    coupling underflows to 0, and OverflowError when the spectrum's width or
    the number of checkpoints is out of range.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if s0.n == 1:
        return Trajectory(times=times, a=np.empty((times.size, 0)), b=np.tile(s0.diag, (times.size, 1)))
    (b,), (a,) = _flow(s0.diag[None], s0.offdiag[None], times, ("",))
    return Trajectory(times=times, a=a, b=b)


def _flow(b: np.ndarray, a: np.ndarray, times: np.ndarray, labels):
    """`spectral_solve` from each of the Jacobi rows b (R, N) and a (R, N-1),
    N > 1, at each of `times` (T,): (R, T, N) and (R, T, N-1).

    Each row keeps its own checkpoint length h = _SPAN / width.  Per sign
    of time, at checkpoint k a row's offsets are t - sign k h for each of
    its times with floor(|t| / h) = k, and a row with a later time also
    takes the step sign h to checkpoint k + 1; all of these (row, offset)
    pairs go to one `_qr_steps` call.  A row thus gets the bits it gets
    alone, whatever the other rows and times.  The errors of
    `spectral_solve`, prefixed with the row's `labels` entry.
    """
    lam = np.linalg.eigvalsh(_dense_rows(b, a))
    with np.errstate(over="ignore"):
        width = lam[:, -1] - lam[:, 0]
    r = int(np.argmin((width > 0.0) & (width < np.inf)))
    if not 0.0 < width[r] < np.inf:
        raise OverflowError(
            f"{labels[r]}the spectrum of L has width {float(width[r])!r}, outside what double precision resolves"
        )
    h = _SPAN / width
    steps = np.floor(np.abs(times) / h[:, None])
    r = int(np.argmax(steps.max(axis=1, initial=0.0)))
    if steps[r].max(initial=0.0) > _MAX_CHECKPOINTS:
        raise OverflowError(
            f"{labels[r]}|t| = {float(np.abs(times).max())!r} at spectral width {float(width[r])!r} "
            f"needs more than {_MAX_CHECKPOINTS} QR checkpoints"
        )
    b_out, a_out = np.empty(steps.shape + b.shape[1:]), np.empty(steps.shape + a.shape[1:])
    for sign in (1.0, -1.0):
        side = np.signbit(times) == (sign < 0.0)
        if not side.any():
            continue
        mine = np.where(side, steps, -1.0)  # -1 at the other sign's times
        last = mine.max(axis=1, initial=-1.0)
        ids = np.flatnonzero(last >= 0.0)  # the rows on their way, at_b and at_a their checkpoints
        at_b, at_a = b[ids], a[ids]
        for k in range(int(last.max()) + 1):
            here, col = np.nonzero(mine[ids] == k)
            on = np.flatnonzero(last[ids] > k)
            row = ids[here]
            s = np.concatenate([times[col] - sign * k * h[row], sign * h[ids[on]]])
            sb, sa = _qr_steps(at_b, at_a, np.concatenate([here, on]), s)
            b_out[row, col], a_out[row, col] = sb[: here.size], sa[: here.size]
            ids, at_b, at_a = ids[on], sb[here.size :], sa[here.size :]
    bad = ~(a_out > 0.0).all(axis=2)
    if bad.any():
        r, i = divmod(int(bad.argmax()), bad.shape[1])
        raise PositivityLossError(f"{labels[r]}a coupling underflowed to 0 at t = {float(times[i])!r}")
    return b_out, a_out


def _qr_steps(b: np.ndarray, a: np.ndarray, rows: np.ndarray, s: np.ndarray):
    # the flow over the (row, offset) pairs (rows[i], s[i]) from the Jacobi
    # rows b (R, N) and a (R, N-1), each row in at least one pair, |s| <= h:
    # (P, N) and (P, N-1).  One `eigh` per row, shifted by its smallest
    # eigenvalue if any of its offsets is < 0; see spectral_solve
    n = b.shape[1]
    lam, v = np.linalg.eigh(_dense_rows(b, a))
    negative = np.bincount(rows, s < 0.0, b.shape[0]) > 0.0
    shifted = lam - np.where(negative, lam[:, 0], lam[:, -1])[:, None]
    vt = v.transpose(0, 2, 1)
    b_out, a_out = b[rows], a[rows]
    block = max(1, _BLOCK // n**2)  # doubles per (B, N, N) stack
    for lo in range(0, s.size, block):
        i, r = slice(lo, lo + block), rows[lo : lo + block]
        q = np.linalg.qr(np.exp(s[i, None] * shifted[r])[:, :, None] * vt[r], mode="r")
        d = np.diagonal(q, axis1=1, axis2=2)
        step = a_out[i] * np.diagonal(q, offset=1, axis1=1, axis2=2) / d[:, :-1]
        d = np.abs(d)
        a_out[i] *= d[:, 1:] / d[:, :-1]
        b_out[i, :-1] += step
        b_out[i, 1:] -= step
    at_checkpoint = s == 0.0
    b_out[at_checkpoint], a_out[at_checkpoint] = b[rows[at_checkpoint]], a[rows[at_checkpoint]]
    return b_out, a_out


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text with columns t, a_1.., b_1.., H, lambda_1..; floats via repr.

    The lambda columns are one `jacobi_eigenvalues` call over the rows: the
    flow is isospectral, so each row's eigenvalues are Newton steps from
    those of the first row, certified per row, and a row's values depend on
    the first row as well as on its own.  H and the lambdas are conserved, so
    they are `_csv_text`'s invariant block: most of their entries repeat one
    above them, and each distinct value is formatted once per block of rows.
    """
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
        h = _hamiltonian(b, a)
    if not np.isfinite(h).all():
        row = np.flatnonzero(~np.isfinite(h))[0]
        raise OverflowError(f"the Hamiltonian H overflows at t = {float(traj.times[row])!r}")
    return _csv_text(header, np.column_stack([traj.times, a, b]), np.column_stack([h, jacobi_eigenvalues(b, a)]))


def _csv_text(header, table, invariant=None) -> str:
    """CSV text: the header, then one line per row of `table`, that row of
    `invariant` (if given; else no columns) at its end.

    `table` is anything `np.asarray` takes as a 2-d float array, and
    `invariant` a float array with as many rows; each float is written in
    its shortest round-trip repr.  `invariant` holds conserved quantities,
    whose values repeat down the rows: each distinct value of a block of
    rows is formatted once, keyed on its bits, so -0.0 and 0.0 stay apart.
    Shared by every CSV that the package writes.
    """
    table = np.asarray(table, dtype=float)
    invariant = np.ascontiguousarray(np.empty((len(table), 0)) if invariant is None else invariant, dtype=float)
    lines = [",".join(header)]
    # blocks of _CSV_BLOCK entries keep the peak memory near that of the
    # text: one block's floats and strings at a time
    rows = max(1, _CSV_BLOCK // max(1, table.shape[-1] + invariant.shape[1]))
    for lo in range(0, len(table), rows):
        block = invariant[lo : lo + rows]
        bits, at = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        tails = text[at.reshape(block.shape)].tolist()
        lines += [",".join([*map(repr, row), *tail]) for row, tail in zip(table[lo : lo + rows].tolist(), tails)]
    lines.append("")  # the last newline, with no copy of the text
    return "\n".join(lines)
