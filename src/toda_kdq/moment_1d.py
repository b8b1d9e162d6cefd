"""Atomic measures on the line, Jacobi matrices, and their transforms.

The canonical Stieltjes transform here is f(lambda) = sum_m w_m/(lambda - u_m)
(integration variable in the denominator with a minus sign).  The limit of
`nevanlinna_limit_check` is stated for f(z) = int dmu/(u - z) but evaluated
as an exact remainder in which neither f nor the moments appear.

A measure with N atoms corresponds to an N x N symmetric tridiagonal (Jacobi)
matrix filled from the bottom-right corner: if (alpha_i, beta_i) are the
three-term recurrence coefficients of the orthonormal polynomials, then
b_{N-i} = alpha_i and a_{N-1-i} = sqrt(beta_{i+1}), so that the corner
resolvent entry <(lambda I - L)^{-1} e_N, e_N> equals the Stieltjes transform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, RankDeficiencyError

__all__ = [
    "DiscreteMeasure",
    "JacobiMatrix",
    "moments",
    "stieltjes_transform",
    "jacobi_from_measure",
    "spectral_data_from_jacobi",
    "jacobi_eigenvalues",
    "continued_fraction_eval",
    "resolvent_NN",
    "nevanlinna_limit_check",
]

_MERGE_TOL = 1e-12
_MASS_TOL = 1e-8
# at most _BLOCK doubles in one stack of dense matrices or one working array
_BLOCK = 2**15
# the Newton steps a row of `jacobi_eigenvalues` may take from row 0's spectrum
_STEPS = 3


def _as_vector(name: str, value) -> np.ndarray:
    # a scalar becomes length 1 and an empty array of any shape length 0
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        if arr.ndim and arr.size:
            raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
        arr = arr.reshape(arr.size)
    return arr


def _freeze_fields(obj, **fields) -> list:
    """Store each field on the frozen dataclass `obj` as a read-only float array.

    Every value goes through `np.asarray(value, dtype=float)` (`_as_vector`);
    a scalar becomes a length-1 array and an empty array of any shape a
    length-0 one.  Raises ValueError, naming the field, if a value has more
    than one dimension or an entry that is not finite.  Checks that tie the
    fields together (sizes, signs, order, sums) stay with each class.
    Returns the stored arrays in argument order.
    """
    arrays = []
    for name, value in fields.items():
        arr = _as_vector(name, value)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
        arrays.append(arr)
    return arrays


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure: positions `atoms` with positive `weights`.

    Atoms are sorted on construction and coincident atoms (within 1e-12)
    are merged with weights summed.  `half_line=True` additionally requires
    all atoms to be nonnegative.
    """

    atoms: np.ndarray
    weights: np.ndarray
    half_line: bool = False

    def __post_init__(self):
        atoms, weights = _freeze_fields(self, atoms=self.atoms, weights=self.weights)
        if atoms.shape != weights.shape:
            raise ValueError("atoms and weights must be 1-d arrays of equal length")
        atoms, weights, _ = _sorted_atoms(atoms, weights, np.array([0, atoms.size]), self.half_line)
        _freeze_fields(self, atoms=atoms, weights=weights)

    def __len__(self) -> int:
        return self.atoms.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def _sorted_atoms(atoms: np.ndarray, weights: np.ndarray, offsets: np.ndarray, half_line: bool, keys=None):
    # DiscreteMeasure's checks, sort and merge on each segment
    # atoms[offsets[i]:offsets[i+1]]; returns the new atoms, weights, offsets.
    # Given the `keys` of the segments, an error names the segment at fault
    def refused(rule, bad, offsets):
        where = "" if keys is None else f" in component {keys[_segment(offsets, np.argmax(bad))]}"
        return ValueError(f"{rule}{where}")

    bad = weights <= 0.0
    if bad.any():
        raise refused("weights must be strictly positive", bad, offsets)
    order = _segment_order(atoms, offsets)
    atoms, weights, offsets = _merge_coincident(atoms[order], weights[order], offsets)
    bad = atoms < 0.0
    if half_line and bad.any():
        raise refused("half-line measure requires nonnegative atoms", bad, offsets)
    bad = ~np.isfinite(weights)
    if bad.any():  # a merged weight that overflows
        raise refused("weights entries must be finite", bad, offsets)
    return atoms, weights, offsets


def _segment(offsets: np.ndarray, i) -> int:
    """The segment s with offsets[s] <= i < offsets[s + 1], empty segments skipped."""
    return int(np.searchsorted(offsets, i, side="right")) - 1


def _segment_order(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The stable order that sorts each segment values[offsets[s]:offsets[s + 1]] and keeps the segments in place."""
    return np.lexsort((values, np.repeat(np.arange(offsets.size - 1), np.diff(offsets))))


def _merge_coincident(atoms: np.ndarray, weights: np.ndarray, offsets: np.ndarray):
    # in each sorted segment, a group of atoms with gaps <= 1e-12 collapses to
    # (atoms . weights) / sum(weights), or atoms . (weights / sum(weights)) where
    # the first overflows; any other atom of a segment of two or more is
    # rewritten as (a w)/w, that average for a group of one, unless a w
    # overflows or is below the normal range, and a segment of one atom is
    # kept as given.  A sum of weights that overflows is left to the caller.
    n = atoms.size
    sizes = offsets[1:] - offsets[:-1]
    edges = np.ones(n + 1, dtype=bool)  # a group starts at i; edges[n] closes the last
    with np.errstate(over="ignore"):
        np.greater(atoms[1:] - atoms[:-1], _MERGE_TOL, out=edges[1:n])
        edges[offsets[:-1][sizes > 0]] = True
        bounds = edges.nonzero()[0]
        heads = bounds[:-1]
        out_w = weights[heads]
        out_a = atoms[heads] * out_w
        normal = np.isfinite(out_a) & (np.abs(out_a) >= np.finfo(float).tiny)
        out_a = np.where(normal, out_a / out_w, atoms[heads])
        for g in (bounds[1:] - heads > 1).nonzero()[0]:
            group = slice(bounds[g], bounds[g + 1])
            out_w[g] = weights[group].sum()
            out_a[g] = atoms[group] @ weights[group] / out_w[g]
            if not np.isfinite(out_a[g]):
                out_a[g] = atoms[group] @ (weights[group] / out_w[g])
    groups_before = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(edges[:n], out=groups_before[1:])
    lone = offsets[:-1][sizes == 1]
    out_a[groups_before[lone]] = atoms[lone]
    return out_a, out_w, groups_before[offsets]


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix with strictly positive off-diagonal.

    It is also the Flaschka state of the Toda lattice (see `toda_1d`): the
    diagonal holds b_1..b_N and the off-diagonal the couplings a_1..a_{N-1}.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag, offdiag = _freeze_fields(self, diag=self.diag, offdiag=self.offdiag)
        if diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if offdiag.size != diag.size - 1:
            raise ValueError("offdiag must have length len(diag) - 1")
        _check_unreduced(offdiag[None])

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


def _check_unreduced(offdiag: np.ndarray, labels=("",)) -> None:
    # ValueError naming the first coupling of the rows (R, N-1) that is not > 0
    bad = ~(offdiag > 0.0)
    if bad.any():
        r, j = (int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
        raise ValueError(
            f"{labels[r]}off-diagonal entries must be strictly positive (unreduced), "
            f"got offdiag[{j}] = {float(offdiag[r, j])!r}"
        )


def moments(mu: DiscreteMeasure, jmax: int) -> np.ndarray:
    """Power moments s_j = sum_m w_m u_m^j for j = 0..jmax (exact finite sums)."""
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    if len(mu) == 0:
        return np.zeros(jmax + 1)
    v = np.vander(mu.atoms, jmax + 1, increasing=True)
    return v.T @ mu.weights


def stieltjes_transform(mu: DiscreteMeasure, lam: complex) -> complex:
    """f(lambda) = sum_m w_m / (lambda - u_m); pole error exactly at an atom."""
    lam = complex(lam)
    if len(mu) == 0:
        return 0.0 + 0.0j
    diffs = lam - mu.atoms
    if np.any(diffs == 0.0):
        raise PoleError(f"Stieltjes transform evaluated at an atom: {lam}")
    return complex(np.sum(mu.weights / diffs))


def _lanczos(atoms: np.ndarray, weights: np.ndarray, n: int, labels=("",)):
    """n Lanczos steps on each row of (K, M) atoms and weights at once.

    Runs the Lanczos process with full reorthogonalization on diag(atoms)
    with starting vector proportional to sqrt(weights), for n <= M.  Every
    sum runs along the last axis of a fresh C-contiguous array, or
    elementwise along the middle one, so a row's bits do not depend on the
    other rows.  Returns alphas (K, n) and sqrt(beta) (K, n-1), all > 0;
    RankDeficiencyError, prefixed with the row's `labels` entry, at the
    first step where a row's next vector falls below 1e-14 max(1, max|atom|).
    """
    scale = np.maximum(1.0, np.abs(atoms).max(axis=1))
    q = np.sqrt(weights)
    q /= np.sqrt((q * q).sum(axis=1))[:, None]
    big_q = np.zeros((atoms.shape[0], n, atoms.shape[1]))  # the vectors of each row, one per q_i
    big_q[:, 0] = q
    alphas = np.empty((atoms.shape[0], n))
    sb = np.empty((atoms.shape[0], n - 1))  # sqrt(beta)
    for i in range(n):
        u = atoms * big_q[:, i]
        if i > 0:
            u -= sb[:, i - 1, None] * big_q[:, i - 1]
        alphas[:, i] = (big_q[:, i] * u).sum(axis=1)
        u -= alphas[:, i, None] * big_q[:, i]
        # two Gram-Schmidt passes against everything computed so far
        basis = big_q[:, : i + 1]
        for _ in range(2):
            u -= (basis * (basis * u[:, None]).sum(axis=2)[:, :, None]).sum(axis=1)
        if i < n - 1:
            sb[:, i] = np.sqrt((u * u).sum(axis=1))
            low = sb[:, i] <= 1e-14 * scale
            if low.any():
                label = labels[int(low.argmax())]
                raise RankDeficiencyError(f"{label}effective rank deficiency at Lanczos step {i + 1}")
            big_q[:, i + 1] = u / sb[:, i, None]
    return alphas, sb


def _check_mass(totals: np.ndarray, labels=("",)) -> None:
    # the unit total mass that a Jacobi matrix's corner entry needs, for the
    # total of each row; ValueError, prefixed with its label, at the first off
    off = np.abs(totals - 1.0) > _MASS_TOL
    if off.any():
        r = int(off.argmax())
        raise ValueError(f"{labels[r]}measure must have total mass 1, got {float(totals[r])!r}")


def jacobi_from_measure(mu: DiscreteMeasure) -> JacobiMatrix:
    """Jacobi matrix whose corner resolvent entry is the Stieltjes transform of mu.

    Requires total mass 1.  The recurrence coefficients of `_lanczos` fill
    the matrix from the bottom-right corner upward (see module docstring).
    """
    _check_mass(np.array([mu.total_mass]))
    n = len(mu)
    if n == 0:
        raise ValueError("measure has no atoms")
    alphas, sb = _lanczos(mu.atoms[None], mu.weights[None], n)
    return JacobiMatrix(diag=alphas[0, ::-1].copy(), offdiag=sb[0, ::-1].copy())


def spectral_data_from_jacobi(jac: JacobiMatrix):
    """(eigenvalues, masses): the ascending eigenvalues of jac and its corner
    masses r_j^2, the squared last components of the eigenvectors.

    Both come from one `np.linalg.eigh` of the dense matrix (LAPACK ?syevd
    with vectors).  `jacobi_eigenvalues` refines eigenvalues by Newton
    steps, so the two eigenvalue arrays may differ in the last digits; the
    tests hold them within 2 N eps max|lambda| of each other and of LAPACK
    ?stevd.  The masses sum to 1 up to rounding;
    they are >= 0, and may underflow to 0 in a lattice evolved far from
    time 0.  RankDeficiencyError if two eigenvalues round to one double,
    LinAlgError if the solver does not converge.
    """
    lam, vec = np.linalg.eigh(_dense_rows(jac.diag[None], jac.offdiag[None])[0])
    _check_distinct(lam[None])
    return lam, vec[-1] ** 2


def jacobi_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Jacobi matrices, one per row.

    `diag` has shape (T, N) and `offdiag` (T, N-1).  Row 0 goes through
    `np.linalg.eigvalsh` (LAPACK ?syevd, which reduces a tridiagonal matrix
    exactly to ?sterf).  Its eigenvalues start Newton's method on every row,
    row 0 included, in blocks of at most _BLOCK // N rows (`_newton`).  A
    row takes up to _STEPS steps, row 0 one, and stops at the first step
    after which it is certified:

    - its values are finite and strictly increasing;
    - the Sturm counts at the midpoints between neighbours read 1, ..., N-1,
      so the exact eigenvalue lambda_j is the only one within h_j of x_j,
      the distance from x_j to its nearest midpoint;
    - its last step delta_j satisfies (N-1) delta_j^2 < (eps/2) max|x|
      (h_j - N |delta_j|) for every j.  Newton's error after a step is
      delta^2 sigma / (1 - delta sigma), with |sigma| <= (N-1)/(h - |delta|)
      the sum over the other eigenvalues of 1/(x - lambda_i) at the start of
      the step, so the bound leaves less than eps/2 max|lambda|, at most one
      ulp of max|lambda|, to the iteration.

    A row that is not certified starts again from its own ?syevd
    eigenvalues and takes one step; if that is not certified either, it
    keeps ?syevd's values, the bits of ?sterf.  Each row's result depends
    on row 0 and on itself alone, not on the block split, and a row that is
    not certified from row 0 has the bits it has alone.  In the tests a
    certified row lies within 2 eps max|lambda| of its spectrum computed by
    mpmath at 34 digits, where ?sterf's values lie up to about 12 eps
    max|lambda| from it; every row lies within 2 N eps max|lambda| of the
    eigenvalues of `spectral_data_from_jacobi`.  RankDeficiencyError where
    two eigenvalues of a row round to one double, LinAlgError naming the
    first row on which ?syevd does not converge.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    rows, n = diag.shape
    if rows == 0 or n < 2:
        lam = _eigvalsh_rows(diag, offdiag, range(rows))
    else:
        lam = np.empty(diag.shape)
        start = _eigvalsh_rows(diag[:1], offdiag[:1], [0])[0]
        block = max(1, _BLOCK // n)
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            limit = np.full(hi - lo, _STEPS)
            if lo == 0:  # row 0 starts from its own spectrum: the single step of a restart
                limit[0] = 1
            x, ok = _newton(diag[lo:hi], offdiag[lo:hi], start[:, None], limit)
            lam[lo:hi] = x.T
            again = np.flatnonzero(~ok)
            if again.size:
                d, e = diag[lo + again], offdiag[lo + again]
                own = _eigvalsh_rows(d, e, lo + again)
                x, ok = _newton(d, e, own.T.copy(), np.ones(again.size, dtype=int))
                lam[lo + again] = np.where(ok[:, None], x.T, own)
    _check_distinct(lam)
    return lam


def _eigvalsh_rows(diag: np.ndarray, offdiag: np.ndarray, rows) -> np.ndarray:
    # ?syevd eigenvalues of each row's Jacobi matrix, in dense (B, N, N) stacks
    # of at most _BLOCK doubles; LinAlgError naming the first row, by its
    # entry of `rows`, on which the solver does not converge
    lam = np.empty(diag.shape)
    block = max(1, _BLOCK // max(diag.shape[1], 1) ** 2)
    for lo in range(0, diag.shape[0], block):
        stack = _dense_rows(diag[lo : lo + block], offdiag[lo : lo + block])
        try:
            lam[lo : lo + block] = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError:
            for i, mat in zip(rows[lo : lo + block], stack):
                try:
                    np.linalg.eigvalsh(mat)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"the eigensolver did not converge on the Jacobi matrix of row {i}"
                    ) from exc
    return lam


def _newton(diag: np.ndarray, offdiag: np.ndarray, x: np.ndarray, limit: np.ndarray):
    """Newton steps on det(L - x) for R rows at once, each up to its entry of
    `limit` steps and stopping once certified (see `jacobi_eigenvalues`).

    `diag` (R, N) and `offdiag` (R, N-1) are the rows; `x` (N, R), or (N, 1)
    for one start shared by every row, holds the start of eigenvalue j of
    row r in x[j, r].  Returns the last values (N, R) and whether each row
    is certified (R,).
    """
    live = np.arange(len(diag))
    with np.errstate(all="ignore"):  # a row that overflows or divides by 0 is not certified
        b = np.ascontiguousarray(diag.T)
        a2 = np.ascontiguousarray(offdiag.T) ** 2
        for step in range(1, int(limit.max()) + 1):
            delta = _newton_step(b, a2, x)
            x = x - delta
            good = _certified(b, a2, x, delta)
            if step == 1:
                out, ok = x, good
            else:
                out[:, live], ok[live] = x, good
            more = ~good & (limit[live] > step)
            if not more.any():
                break
            live, b, a2, x = live[more], b[:, more], a2[:, more], x[:, more]
    return out, ok


def _newton_step(b: np.ndarray, a2: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the Newton step 1/sum_k (q'_k/q_k) at every x[j, r], from the ratio
    # recurrence q_1 = b_1 - x, q_k = (b_k - x) - a_{k-1}^2/q_{k-1}, whose
    # product is det(L - x), and q'_k = -1 + a_{k-1}^2 q'_{k-1}/q_{k-1}^2
    q = b[0] - x
    # x = b_1 exactly, on a row whose first site has decoupled, is a zero
    # pivot; a shift of b_1 far below its rounding error moves it off
    tiny = np.finfo(float).eps ** 2 * np.maximum(np.abs(x[0]), np.abs(x[-1]))
    np.copyto(q, tiny, where=q == 0.0)
    ratio = -1.0 / q  # q'_k/q_k
    total = ratio.copy()
    t = np.empty_like(q)
    for k in range(1, x.shape[0]):
        np.divide(a2[k - 1], q, out=t)
        np.subtract(b[k], x, out=q)
        q -= t
        t *= ratio  # then q'_k = t - 1
        t -= 1.0
        np.divide(t, q, out=ratio)
        total += ratio
    return 1.0 / total


def _certified(b: np.ndarray, a2: np.ndarray, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # the certificate of `jacobi_eigenvalues` for each column of x (N, R), the
    # values after the step delta (N, R); the Sturm counts only where the rest holds
    n = x.shape[0]
    mid = 0.5 * x[:-1] + 0.5 * x[1:]
    h = np.empty_like(x)  # the distance from each value to its nearest midpoint
    h[:-1] = mid - x[:-1]
    h[-1] = np.inf
    np.minimum(h[1:], x[1:] - mid, out=h[1:])
    scale = 0.5 * np.finfo(float).eps * np.maximum(np.abs(x[0]), np.abs(x[-1]))
    good = (
        np.isfinite(x).all(axis=0)
        & (x[1:] > x[:-1]).all(axis=0)
        & ((n - 1) * delta**2 < scale * (h - n * np.abs(delta))).all(axis=0)
    )
    cols = np.flatnonzero(good)
    if cols.size < good.size:
        b, a2, mid = b[:, cols], a2[:, cols], mid[:, cols]
    # the Sturm count at each midpoint: the negative q_k of the ratio recurrence
    q = b[0] - mid
    count = (q < 0.0).astype(np.intp)
    t = np.empty_like(mid)
    for k in range(1, n):
        np.divide(a2[k - 1], q, out=t)
        np.subtract(b[k], mid, out=q)
        q -= t
        count += q < 0.0
    good[cols] = (count == np.arange(1, n)[:, None]).all(axis=0)
    return good


def _dense_rows(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    # (T, N, N) lower triangles of each row's Jacobi matrix, the part that
    # `np.linalg.eigh` and `eigvalsh` read; the strict upper triangle is 0
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,))
    i = np.arange(n)
    out[:, i, i] = diag
    out[:, i[1:], i[:-1]] = offdiag
    return out


def _check_distinct(lam: np.ndarray) -> None:
    # distinct eigenvalues of an unreduced Jacobi matrix that round to one double
    rows = np.flatnonzero((np.diff(lam, axis=1) <= 0.0).any(axis=1))
    if rows.size:
        raise RankDeficiencyError(f"eigenvalues must be strictly increasing; row {rows[0]} repeats one")


def continued_fraction_eval(jac: JacobiMatrix, lam: complex) -> complex:
    """Finite continued fraction 1/(lambda - b_N - a_{N-1}^2/(lambda - b_{N-1} - ...)).

    Evaluated bottom-up from the innermost level lambda - b_1.  A zero
    denominator at an intermediate level is a pole of that convergent
    (an eigenvalue of a leading principal truncation).
    """
    lam = complex(lam)
    g = lam - jac.diag[0]
    for i in range(1, jac.n):
        if g == 0.0:
            raise PoleError(f"pole of a continued-fraction convergent at level {i}")
        g = lam - jac.diag[i] - jac.offdiag[i - 1] ** 2 / g
    if g == 0.0:
        raise PoleError("lambda is an eigenvalue; continued fraction diverges")
    return 1.0 / g


def resolvent_NN(jac: JacobiMatrix, lam: complex) -> complex:
    """Corner resolvent entry <(lambda I - L)^{-1} e_N, e_N> by a dense LU solve."""
    lam = complex(lam)
    rhs = np.zeros(jac.n, dtype=complex)
    rhs[-1] = 1.0
    try:
        sol = np.linalg.solve(lam * np.eye(jac.n) - jac.to_dense(), rhs)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"lambda in the spectrum: {lam}") from exc
    if not np.all(np.isfinite(sol.view(float))):
        raise PoleError(f"singular resolvent system at lambda = {lam}")
    return complex(sol[-1])


def _dd_times(x, y):
    # product of double-double pairs (hi, lo) to about 1e-32 relative; the
    # rounding error of hi * hi is exact by Dekker's split at 2^27 + 1
    (xh, xl), (yh, yl) = x, y
    p = xh * yh
    sx, sy = 134217729.0 * xh, 134217729.0 * yh
    ah, bh = sx - (sx - xh), sy - (sy - yh)
    e = ((ah * bh - p) + ah * (yh - bh) + (xh - ah) * bh) + (xh - ah) * (yh - bh) + (xh * yl + xl * yh)
    hi = p + e
    return hi, e - (hi - p)


def _odd_moment(atoms: np.ndarray, weights: np.ndarray, n: int) -> float:
    # s_{2n+1} = sum w u^{2n+1}: each term a double-double (the power by
    # repeated squaring), the terms added exactly by math.fsum, so a moment
    # that cancels between atoms of both signs keeps its digits
    term, base, k = (weights, 0.0 * atoms), (atoms, 0.0 * atoms), 2 * n + 1
    while k:
        term = _dd_times(term, base) if k & 1 else term
        base, k = _dd_times(base, base), k >> 1
    terms = np.concatenate(term)
    return math.fsum(terms.tolist()) if np.isfinite(terms).all() else math.nan


def _moment_remainder(atoms: np.ndarray, weights: np.ndarray, n: int, z) -> np.ndarray:
    """|sum_m w_m u_m^{2n+1} / (z - u_m)| at each point of the array z.

    This equals |z^{2n+1} (f(z) + sum_{j<2n} s_j z^{-j-1}) + s_{2n}| for
    f(z) = sum_m w_m/(u_m - z) and moments s_j, without that form's terms
    of size |z|^{2n} s_0, which cancel.
    Where |z| >= max |u_m| it is summed as (s_{2n+1} + sum_m w_m u_m^{2n+2}
    /(z - u_m)) / z, with s_{2n+1} from `_odd_moment`.  A value that is not
    finite is returned as it is, for the caller to name its point.
    """
    z = np.asarray(z, dtype=complex)
    if not atoms.size:
        return np.zeros(z.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        c = weights * np.copysign(np.abs(atoms) ** (2 * n + 1), atoms)
        diffs = z[:, None] - atoms
        out = np.abs(np.sum(c / diffs, axis=1))
        far = np.abs(z) >= np.abs(atoms).max()
        if far.any():
            tail = np.sum(c * atoms / diffs[far], axis=1)
            out[far] = np.abs(_odd_moment(atoms, weights, n) + tail) / np.abs(z[far])
    return out


def nevanlinna_limit_check(mu: DiscreteMeasure, n: int, y_list) -> np.ndarray:
    """Residuals of the truncated-moment asymptotic expansion along z = iy.

    With f(z) = int dmu(u)/(u - z) (note the sign: f = -stieltjes_transform)
    and moments s_j, the residual at z = iy is

        | z^{2n+1} ( f(z) + sum_{j=0}^{2n-1} s_j z^{-j-1} ) + s_{2n} |,

    which tends to 0 as y grows when the s_j are the moments of mu.  It is
    evaluated as the exact remainder `_moment_remainder`; OverflowError
    naming the first y at which it is not finite.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    ys = np.array([float(y) for y in y_list])
    if not ((ys > 0.0) & (ys < np.inf)).all():
        raise ValueError("y values must be positive and finite")
    res = _moment_remainder(mu.atoms, mu.weights, n, 1j * ys)
    if not np.isfinite(res).all():
        raise OverflowError(f"at y = {float(ys[np.isfinite(res).argmin()])!r} the moment remainder of order n = {n} is not finite")
    return res
