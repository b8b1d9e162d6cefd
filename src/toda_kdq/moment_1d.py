"""Atomic measures on the line, Jacobi matrices, and their transforms.

The canonical Stieltjes transform here is f(lambda) = sum_m w_m/(lambda - u_m)
(integration variable in the denominator with a minus sign).  The asymptotic
moment checker `nevanlinna_limit_check` internally switches to the opposite
sign convention f(z) = int dmu/(u - z), which is what its limit formula uses.

A measure with N atoms corresponds to an N x N symmetric tridiagonal (Jacobi)
matrix filled from the bottom-right corner: if (alpha_i, beta_i) are the
three-term recurrence coefficients of the orthonormal polynomials, then
b_{N-i} = alpha_i and a_{N-1-i} = sqrt(beta_{i+1}), so that the corner
resolvent entry <(lambda I - L)^{-1} e_N, e_N> equals the Stieltjes transform.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs, solve_banded

from .errors import PoleError, RankDeficiencyError

__all__ = [
    "DiscreteMeasure",
    "JacobiMatrix",
    "SpectralData",
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


def _freeze_fields(obj, **fields) -> list:
    """Store each field on the frozen dataclass `obj` as a read-only float array.

    Every value goes through `np.asarray(value, dtype=float)`; a scalar
    becomes a length-1 array and an empty array of any shape a length-0 one.
    Raises ValueError, naming the field, if a value has more than one
    dimension or an entry that is not finite.  Checks that tie the fields
    together (sizes, signs, order, sums) stay with each class.  Returns the
    stored arrays in argument order.
    """
    arrays = []
    for name, value in fields.items():
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 1:
            if arr.ndim and arr.size:
                raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
            arr = arr.reshape(arr.size)
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
        if (weights <= 0.0).any():
            raise ValueError("weights must be strictly positive")
        order = atoms.argsort()
        atoms, weights = atoms[order], weights[order]
        if atoms.size > 1:
            atoms, weights = _merge_coincident(atoms, weights)
        if self.half_line and (atoms < 0.0).any():
            raise ValueError("half-line measure requires nonnegative atoms")
        # store the sorted, merged arrays; a merged weight that overflows is rejected
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
        return cls(
            atoms=np.asarray(d["atoms"], dtype=float),
            weights=np.asarray(d["weights"], dtype=float),
            half_line=bool(d.get("half_line", False)),
        )


def _merge_coincident(atoms: np.ndarray, weights: np.ndarray):
    # sorted input; groups closer than the collision tolerance collapse to
    # their weight-averaged position
    out_a, out_w = [], []
    i = 0
    while i < atoms.size:
        j = i + 1
        while j < atoms.size and atoms[j] - atoms[j - 1] <= _MERGE_TOL:
            j += 1
        w = weights[i:j].sum()
        out_a.append(float(atoms[i:j] @ weights[i:j] / w))
        out_w.append(float(w))
        i = j
    return np.asarray(out_a), np.asarray(out_w)


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


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) with corner masses r_j^2 summing to one."""

    eigenvalues: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        lam, r2 = _freeze_fields(self, eigenvalues=self.eigenvalues, masses=self.masses)
        if lam.shape != r2.shape or lam.size < 1:
            raise ValueError("eigenvalues and masses must be matching 1-d arrays")
        if (np.diff(lam) <= 0.0).any():
            raise ValueError("eigenvalues must be strictly increasing")
        if (r2 <= 0.0).any():
            raise ValueError("masses must be strictly positive")
        if abs(r2.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1 within 1e-12, got {r2.sum()!r}")

    def to_measure(self, half_line: bool = False) -> DiscreteMeasure:
        return DiscreteMeasure(self.eigenvalues, self.masses, half_line=half_line)


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


def spectral_data_from_jacobi(jac: JacobiMatrix) -> SpectralData:
    """Eigenvalues and squared last eigenvector components (corner masses)."""
    if jac.n == 1:
        return SpectralData(np.array([jac.diag[0]]), np.array([1.0]))
    lam, vec = eigh_tridiagonal(jac.diag, jac.offdiag)
    return SpectralData(lam, vec[-1, :] ** 2)


def jacobi_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Jacobi matrices, one per row.

    `diag` has shape (T, N) and `offdiag` (T, N-1).  Each row goes through
    LAPACK ?stevd with eigenvectors, the routine and options that
    `eigh_tridiagonal` uses, so row i equals the eigenvalues of
    `spectral_data_from_jacobi` on that row bit for bit.  The vectors are
    computed only for that reason: without them (?sterf) the eigenvalues
    move in the last digits.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.shape[1] == 1:
        return diag.copy()
    stevd = get_lapack_funcs(("stevd",), (diag,))[0]
    lam = np.empty(diag.shape)
    for i in range(diag.shape[0]):
        lam[i], _, info = stevd(diag[i], offdiag[i], compute_v=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"?stevd failed on row {i} (info = {info})")
    if np.any(np.diff(lam, axis=1) <= 0.0):
        raise ValueError("eigenvalues must be strictly increasing")
    return lam


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
    """Corner resolvent entry <(lambda I - L)^{-1} e_N, e_N> by tridiagonal solve."""
    lam = complex(lam)
    n = jac.n
    ab = np.zeros((3, n), dtype=complex)
    ab[1, :] = lam - jac.diag
    if n > 1:
        ab[0, 1:] = -jac.offdiag
        ab[2, :-1] = -jac.offdiag
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = 1.0
    try:
        sol = solve_banded((1, 1), ab, rhs)
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


def nevanlinna_limit_check(mu: DiscreteMeasure, n: int, y_list) -> np.ndarray:
    """Residuals of the truncated-moment asymptotic expansion along z = iy.

    With f(z) = int dmu(u)/(u - z) (note the sign: f = -stieltjes_transform)
    and moments s_j, the residual at z = iy is

        | z^{2n+1} ( f(z) + sum_{j=0}^{2n-1} s_j z^{-j-1} ) + s_{2n} |,

    which tends to 0 as y grows when the s_j are the moments of mu.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = moments(mu, 2 * n)
    out = np.empty(len(y_list))
    for i, y in enumerate(y_list):
        if y <= 0:
            raise ValueError("y values must be positive")
        z = 1j * float(y)
        f = -stieltjes_transform(mu, z) if len(mu) else 0.0
        series = sum(s[j] * z ** (-j - 1) for j in range(2 * n))
        out[i] = abs(z ** (2 * n + 1) * (f + series) + s[2 * n])
    return out
