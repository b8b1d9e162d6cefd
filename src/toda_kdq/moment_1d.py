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
    "recurrence_coefficients",
    "jacobi_from_measure",
    "spectral_data_from_jacobi",
    "jacobi_eigenvalues",
    "continued_fraction_eval",
    "resolvent_NN",
    "second_kind_poly",
    "nevanlinna_limit_check",
]

_MERGE_TOL = 1e-12
_MASS_TOL = 1e-8
# at most _BLOCK doubles in one stack of dense matrices
_BLOCK = 2**15


def _as_vector(name: str, value) -> np.ndarray:
    # a scalar becomes length 1 and an empty array of any shape length 0
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        if arr.ndim and arr.size:
            raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
        arr = arr.reshape(arr.size)
    return arr


def _json_int(d: dict, name: str, *default) -> int:
    """d[name], or `default` where given and the name is absent, as an int.

    TypeError unless the value is an integer: a JSON number with a fraction
    or an exponent (1.7, 1e999, which reads as inf) and a boolean are not
    truncated but rejected.  KeyError if the name is absent without a default.
    """
    value = d.get(name, *default) if default else d[name]
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


# the types json gives numbers; type(True) is bool, which is not among them
_JSON_NUMBERS = {int, float}


def _json_float(d: dict, name: str, *default):
    """d[name], or `default` where given and the name is absent, as a float
    array: 0-d for a number, 1-d or more for a list (of lists).

    TypeError unless every entry is a JSON number: a boolean, a string such
    as "2.5" and null are not converted but rejected.  ValueError if the
    lists are ragged or an integer is too large for a double.  KeyError if
    the name is absent without a default.
    """
    value = d.get(name, *default) if default else d[name]
    # one level of the lists at a time, in a loop rather than by recursion
    entries = value if type(value) is list else [value]
    while not _JSON_NUMBERS.issuperset(map(type, entries)):
        for entry in entries:
            if type(entry) not in (int, float, list):
                raise TypeError(f"{name} must hold JSON numbers only, got {entry!r}")
        entries = [v for entry in entries if type(entry) is list for v in entry]
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"{name} holds an integer too large for a double") from exc


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

    def to_dict(self) -> dict:
        return {
            "atoms": [float(a) for a in self.atoms],
            "weights": [float(w) for w in self.weights],
            "half_line": bool(self.half_line),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        """TypeError unless `half_line`, where given, is a JSON boolean."""
        half_line = d.get("half_line", False)
        if type(half_line) is not bool:
            raise TypeError(f"half_line must be true or false, got {half_line!r}")
        return cls(atoms=_json_float(d, "atoms"), weights=_json_float(d, "weights"), half_line=half_line)


def _sorted_atoms(atoms: np.ndarray, weights: np.ndarray, offsets: np.ndarray, half_line: bool):
    # DiscreteMeasure's checks, sort and merge on each segment
    # atoms[offsets[i]:offsets[i+1]]; returns the new atoms, weights, offsets
    if (weights <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    if offsets.size == 2:
        order = atoms.argsort(kind="stable")
    else:
        order = np.lexsort((atoms, np.repeat(np.arange(offsets.size - 1), offsets[1:] - offsets[:-1])))
    atoms, weights, offsets = _merge_coincident(atoms[order], weights[order], offsets)
    if half_line and (atoms < 0.0).any():
        raise ValueError("half-line measure requires nonnegative atoms")
    if not np.isfinite(weights).all():  # a merged weight that overflows
        raise ValueError("weights entries must be finite")
    return atoms, weights, offsets


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
        # offdiag may also come as a row or a column: it is flattened
        offdiag = np.asarray(self.offdiag, dtype=float).reshape(-1)
        diag, offdiag = _freeze_fields(self, diag=self.diag, offdiag=offdiag)
        if diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if offdiag.size != diag.size - 1:
            raise ValueError("offdiag must have length len(diag) - 1")
        if (offdiag <= 0.0).any():
            raise ValueError("off-diagonal entries must be strictly positive (unreduced)")

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


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


def recurrence_coefficients(mu: DiscreteMeasure, n: int):
    """Three-term recurrence coefficients of the orthonormal polynomials of mu.

    Runs the Lanczos process with full reorthogonalization on diag(atoms)
    with starting vector proportional to sqrt(weights).

    Returns
    -------
    alphas : (n,) diagonal coefficients alpha_0..alpha_{n-1}
    betas : (n-1,) squared off-diagonal coefficients beta_1..beta_{n-1}, all > 0
    """
    m = len(mu)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > m:
        raise RankDeficiencyError(f"measure has {m} atoms; cannot produce {n} recurrence steps")
    a = mu.atoms
    scale = max(1.0, float(np.max(np.abs(a))) if m else 1.0)
    q = np.sqrt(mu.weights)
    q /= np.linalg.norm(q)
    big_q = np.zeros((m, n))
    big_q[:, 0] = q
    alphas = np.zeros(n)
    sb = np.zeros(max(n - 1, 0))  # sqrt(beta)
    for i in range(n):
        u = a * big_q[:, i]
        if i > 0:
            u -= sb[i - 1] * big_q[:, i - 1]
        alphas[i] = big_q[:, i] @ u
        u -= alphas[i] * big_q[:, i]
        # two Gram-Schmidt passes against everything computed so far
        u -= big_q[:, : i + 1] @ (big_q[:, : i + 1].T @ u)
        u -= big_q[:, : i + 1] @ (big_q[:, : i + 1].T @ u)
        if i < n - 1:
            norm_u = np.linalg.norm(u)
            if norm_u <= 1e-14 * scale:
                raise RankDeficiencyError(f"effective rank deficiency at Lanczos step {i + 1}")
            sb[i] = norm_u
            big_q[:, i + 1] = u / norm_u
    return alphas, sb**2


def jacobi_from_measure(mu: DiscreteMeasure) -> JacobiMatrix:
    """Jacobi matrix whose corner resolvent entry is the Stieltjes transform of mu.

    Requires total mass 1.  The recurrence coefficients fill the matrix from
    the bottom-right corner upward (see module docstring).
    """
    if abs(mu.total_mass - 1.0) > _MASS_TOL:
        raise ValueError(f"measure must have total mass 1, got {mu.total_mass!r}")
    n = len(mu)
    if n == 0:
        raise ValueError("measure has no atoms")
    alphas, betas = recurrence_coefficients(mu, n)
    return JacobiMatrix(diag=alphas[::-1].copy(), offdiag=np.sqrt(betas)[::-1].copy())


def spectral_data_from_jacobi(jac: JacobiMatrix):
    """(eigenvalues, masses): the ascending eigenvalues of jac and its corner
    masses r_j^2, the squared last components of the eigenvectors.

    Both come from one `np.linalg.eigh` of the dense matrix (LAPACK ?syevd
    with vectors).  `jacobi_eigenvalues` computes no vectors, so the two
    eigenvalue arrays may differ in the last digits; both solvers are
    backward stable, and the tests hold them within 2 N eps max|lambda| of
    each other and of LAPACK ?stevd.  The masses sum to 1 up to rounding;
    they are >= 0, and may underflow to 0 in a lattice evolved far from
    time 0.  RankDeficiencyError if two eigenvalues round to one double,
    LinAlgError if the solver does not converge.
    """
    lam, vec = np.linalg.eigh(_dense_rows(jac.diag[None], jac.offdiag[None])[0])
    _check_distinct(lam[None])
    return lam, vec[-1] ** 2


def jacobi_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Jacobi matrices, one per row.

    `diag` has shape (T, N) and `offdiag` (T, N-1).  The rows go through
    `np.linalg.eigvalsh` as dense (B, N, N) stacks of at most _BLOCK
    doubles.  LAPACK ?syevd reduces a tridiagonal matrix exactly, so each
    row's eigenvalues are those of ?sterf on its diagonals, bit for bit, in
    any stack.  They are within 2 N eps max|lambda| of the eigenvalues of
    `spectral_data_from_jacobi` (see there).  RankDeficiencyError where two
    eigenvalues of a row round to one double, LinAlgError naming the first
    row on which the solver does not converge.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    lam = np.empty(diag.shape)
    block = max(1, _BLOCK // max(diag.shape[1], 1) ** 2)
    for lo in range(0, diag.shape[0], block):
        stack = _dense_rows(diag[lo : lo + block], offdiag[lo : lo + block])
        try:
            lam[lo : lo + block] = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError:
            for i, mat in enumerate(stack, lo):
                try:
                    np.linalg.eigvalsh(mat)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"the eigensolver did not converge on the Jacobi matrix of row {i}"
                    ) from exc
    _check_distinct(lam)
    return lam


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


def _orthonormal_poly(alphas, sqrt_betas, mass0, degree, x, with_derivative=False):
    # evaluates P_degree at x via the recurrence
    #   sqrt(beta_{j+1}) P_{j+1} = (x - alpha_j) P_j - sqrt(beta_j) P_{j-1}
    # with P_0 = 1/sqrt(mass0); needs alphas[0..degree-1], sqrt_betas[0..degree-1]
    x = np.asarray(x)
    p_prev = np.zeros(x.shape, dtype=x.dtype)
    p = np.full(x.shape, 1.0 / np.sqrt(mass0), dtype=x.dtype)
    d_prev = np.zeros(x.shape, dtype=x.dtype)
    d = np.zeros(x.shape, dtype=x.dtype)
    for j in range(degree):
        sb_next = sqrt_betas[j]
        sb_here = sqrt_betas[j - 1] if j > 0 else 0.0
        p_next = ((x - alphas[j]) * p - sb_here * p_prev) / sb_next
        if with_derivative:
            d_next = ((x - alphas[j]) * d + p - sb_here * d_prev) / sb_next
            d_prev, d = d, d_next
        p_prev, p = p, p_next
    return (p, d) if with_derivative else p


def second_kind_poly(mu: DiscreteMeasure, n: int, tau) -> float | complex:
    """Second-kind polynomial Q_n(tau) = int (P_n(tau) - P_n(u))/(tau - u) dmu(u).

    The integrand's removable singularity at an atom is filled with the
    derivative P_n'(tau).  P_n is the *orthonormal* polynomial of mu.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 0.0
    alphas, betas = recurrence_coefficients(mu, n + 1)
    sb = np.sqrt(betas)
    m0 = mu.total_mass
    tau_c = complex(tau) if np.iscomplexobj(np.asarray(tau)) else float(tau)
    p_tau, dp_tau = _orthonormal_poly(alphas, sb, m0, n, np.asarray(tau_c), with_derivative=True)
    p_atoms = _orthonormal_poly(alphas, sb, m0, n, mu.atoms.astype(np.result_type(tau_c, float)))
    scale = max(1.0, abs(tau_c), float(np.max(np.abs(mu.atoms))))
    diffs = tau_c - mu.atoms
    near = np.abs(diffs) <= 1e-12 * scale
    dd = np.empty(mu.atoms.shape, dtype=np.result_type(tau_c, float))
    dd[~near] = (p_tau - p_atoms[~near]) / diffs[~near]
    dd[near] = dp_tau
    out = np.sum(mu.weights * dd)
    return complex(out) if np.iscomplexobj(np.asarray(tau_c)) else float(out.real)


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
    /(z - u_m)) / z, with s_{2n+1} from `_odd_moment`.  OverflowError if a
    value is not finite.
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
    if not np.isfinite(out).all():
        raise OverflowError(f"the moment remainder of order n = {n} is not finite")
    return out


def nevanlinna_limit_check(mu: DiscreteMeasure, n: int, y_list) -> np.ndarray:
    """Residuals of the truncated-moment asymptotic expansion along z = iy.

    With f(z) = int dmu(u)/(u - z) (note the sign: f = -stieltjes_transform)
    and moments s_j, the residual at z = iy is

        | z^{2n+1} ( f(z) + sum_{j=0}^{2n-1} s_j z^{-j-1} ) + s_{2n} |,

    which tends to 0 as y grows when the s_j are the moments of mu.  It is
    evaluated as the exact remainder `_moment_remainder`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    ys = np.array([float(y) for y in y_list])
    if not ((ys > 0.0) & (ys < np.inf)).all():
        raise ValueError("y values must be positive and finite")
    return _moment_remainder(mu.atoms, mu.weights, n, 1j * ys)
