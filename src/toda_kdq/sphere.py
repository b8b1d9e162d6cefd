"""Real spherical-harmonic bases and quadrature on S^1 and S^2.

All bases are orthonormal with respect to the *probability* (unit total
mass) surface measure, so Y_{0,1} == 1 and sum_l Y_{k,l}(theta)^2 = d_k
at every point (addition theorem at coincident arguments).  This is the
normalization under which the closed-form reproducing-kernel identities
used elsewhere in the library hold term by term.
"""

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaln, lpmv, roots_legendre

__all__ = [
    "dim_harmonics",
    "check_index",
    "check_indices",
    "as_direction",
    "harmonic_table",
    "eval_harmonic",
    "harmonic_basis",
    "solid_harmonic",
    "sphere_nodes",
    "quadrature_sphere",
]

_DIRECTION_NORM_TOL = 1e-12


def dim_harmonics(n: int, k: int) -> int:
    """Dimension d_k of the degree-k spherical harmonics on S^{n-1}.

    d_k = (2k+n-2)(n+k-3)! / ((n-2)! k!), with d_0 = 1 in every dimension
    (the k = 0, n = 2 factorial is resolved by that convention).
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported ambient dimension n={n}; only 2 and 3")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got k={k}")
    if k == 0:
        return 1
    return (2 * k + n - 2) * math.factorial(n + k - 3) // (math.factorial(n - 2) * math.factorial(k))


def check_index(n: int, k: int, ell: int) -> None:
    """Raise ValueError unless 1 <= ell <= d_k(n, k)."""
    d = dim_harmonics(n, k)
    if not 1 <= ell <= d:
        raise ValueError(f"invalid harmonic index (k={k}, ell={ell}); need 1 <= ell <= {d}")


def as_direction(n: int, coords) -> np.ndarray:
    """Validate a unit vector on S^{n-1} and return it as a float array."""
    v = np.asarray(coords, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"direction must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"direction entries must be finite, got {v.tolist()}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _DIRECTION_NORM_TOL:
        raise ValueError(f"direction must be unit length within {_DIRECTION_NORM_TOL}; |v| = {norm}")
    return v


def check_indices(n: int, keys) -> tuple[np.ndarray, np.ndarray]:
    """`check_index` on a sequence of (k, ell) at once; returns the k and ell arrays."""
    ks, ells = np.array(keys, dtype=int).reshape(-1, 2).T
    bad = (ks < 0) | (ells < 1) | (ells > np.where(ks == 0, 1, 2 if n == 2 else 2 * ks + 1))
    if n not in (2, 3) or bad.any():
        check_index(n, *(keys[np.argmax(bad)] if bad.any() else (0, 1)))
    return ks, ells


@lru_cache(maxsize=None)
def _legendre_norm(k: int, m: int) -> float:
    # sqrt((2k+1) (k-m)!/(k+m)!); gammaln keeps large k finite
    return math.sqrt(2 * k + 1) * math.exp(0.5 * (gammaln(k - m + 1) - gammaln(k + m + 1)))


def harmonic_table(n: int, keys, theta) -> np.ndarray:
    """Y_{k,ell}(theta) for every (k, ell) in `keys` at unit vectors theta (..., n): (..., len(keys)).

    On S^1 the basis is 1, sqrt(2) cos(k phi), sqrt(2) sin(k phi).  On S^2
    ell = 1..2k+1 maps to the order m = ell-k-1 (the zonal harmonic
    sqrt(2k+1) P_k(cos(gamma)) at ell = k+1), and one broadcast
    `lpmv(|m|, k, cos gamma)` call gives every associated Legendre value.
    """
    ks, ells = check_indices(n, keys)
    th = np.asarray(theta, dtype=float)
    phi = np.arctan2(th[..., 1], th[..., 0])[..., None]
    if n == 2:
        out = np.ones(phi.shape[:-1] + ks.shape)
        cos, sin = (ks > 0) & (ells == 1), (ks > 0) & (ells == 2)
        out[..., cos] = math.sqrt(2.0) * np.cos(ks[cos] * phi)
        out[..., sin] = math.sqrt(2.0) * np.sin(ks[sin] * phi)
        return out
    m = ells - ks - 1
    am = np.abs(m)
    coef = [_legendre_norm(k, 0) if a == 0 else math.sqrt(2.0) * _legendre_norm(k, a) for k, a in zip(ks.tolist(), am.tolist())]
    out = np.array(coef) * lpmv(am, ks, np.clip(th[..., 2], -1.0, 1.0)[..., None])
    out[..., m > 0] *= np.cos(am[m > 0] * phi)
    out[..., m < 0] *= np.sin(am[m < 0] * phi)
    return out


def eval_harmonic(n: int, idx, theta) -> np.ndarray | float:
    """Evaluate the real orthonormal harmonic Y_{k,ell} at unit vector(s) theta.

    Parameters
    ----------
    n : 2 or 3
    idx : (k, ell) pair
    theta : array of shape (n,) or (..., n) of unit vectors

    Orthonormality is with respect to the probability measure on S^{n-1}.
    For n = 3 the index ell = 1..2k+1 maps to the order m = ell-k-1; the
    zonal harmonic sqrt(2k+1) P_k(cos(gamma)) sits at ell = k+1.  The
    values are a column of `harmonic_table`.
    """
    vals = harmonic_table(n, [idx], theta)[..., 0]
    return float(vals) if vals.ndim == 0 else vals


def harmonic_basis(n: int, k: int, theta) -> np.ndarray:
    """All d_k basis values at theta; shape (..., d_k)."""
    return harmonic_table(n, [(k, ell) for ell in range(1, dim_harmonics(n, k) + 1)], theta)


def solid_harmonic(n: int, idx, x) -> np.ndarray | float:
    """Homogeneous extension |x|^k Y_{k,ell}(x/|x|), defined as 0 at x = 0 for k > 0."""
    k, ell = idx
    check_index(n, k, ell)
    xv = np.asarray(x, dtype=float)
    scalar = xv.ndim == 1
    xv = np.atleast_2d(xv)
    r = np.linalg.norm(xv, axis=-1)
    out = np.zeros(r.shape)
    pos = r > 0.0
    if np.any(pos):
        unit = xv[pos] / r[pos, None]
        out[pos] = r[pos] ** k * eval_harmonic(n, (k, ell), unit)
    if k == 0:
        out[~pos] = 1.0
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def sphere_nodes(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for the probability measure on S^{n-1}.

    Exact for spherical polynomials of degree <= `degree`.  S^1 uses the
    M-point trapezoid rule (M = degree+1); S^2 uses Gauss-Legendre in
    cos(gamma) times the trapezoid rule in azimuth.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported ambient dimension n={n}; only 2 and 3")
    if degree < 0:
        raise ValueError("exactness degree must be nonnegative")
    m_az = max(degree + 1, 4)
    phi = 2.0 * np.pi * np.arange(m_az) / m_az
    if n == 2:
        pts = np.column_stack([np.cos(phi), np.sin(phi)])
        wts = np.full(m_az, 1.0 / m_az)
    else:
        n_gl = max((degree + 2) // 2, 1)
        t, w_gl = roots_legendre(n_gl)
        s = np.sqrt(1.0 - t**2)
        pts = np.concatenate(
            [
                np.column_stack([si * np.cos(phi), si * np.sin(phi), np.full(m_az, ti)])
                for ti, si in zip(t, s)
            ]
        )
        wts = np.concatenate([np.full(m_az, wi / (2.0 * m_az)) for wi in w_gl])
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def quadrature_sphere(n: int, f: Callable, degree: int) -> float:
    """Integrate f over S^{n-1} against the probability measure.

    `f` is called with the full (S, n) node array and should return (S,)
    values; a scalar-valued f is evaluated pointwise as a fallback.
    """
    pts, wts = sphere_nodes(n, degree)
    vals = np.asarray(f(pts))
    if vals.shape != wts.shape:
        vals = np.asarray([f(p) for p in pts])
    return float(wts @ vals)
