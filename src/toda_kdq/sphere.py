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
    "as_direction",
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


def _circle_harmonic(k: int, ell: int, theta: np.ndarray) -> np.ndarray:
    # theta: (..., 2); Fourier basis, sqrt(2) factor normalizes under dphi/2pi
    phi = np.arctan2(theta[..., 1], theta[..., 0])
    if k == 0:
        return np.ones(phi.shape)
    if ell == 1:
        return math.sqrt(2.0) * np.cos(k * phi)
    return math.sqrt(2.0) * np.sin(k * phi)


def _legendre_norm(k: int, m: int) -> float:
    # sqrt((2k+1) (k-m)!/(k+m)!); gammaln keeps large k finite
    return math.sqrt(2 * k + 1) * math.exp(0.5 * (gammaln(k - m + 1) - gammaln(k + m + 1)))


def _s2_harmonic(k: int, ell: int, theta: np.ndarray) -> np.ndarray:
    # theta: (..., 3); m runs -k..k with ell = m + k + 1 (zonal harmonic at ell = k+1)
    m = ell - k - 1
    z = np.clip(theta[..., 2], -1.0, 1.0)
    if m == 0:
        return _legendre_norm(k, 0) * lpmv(0, k, z)
    phi = np.arctan2(theta[..., 1], theta[..., 0])
    am = abs(m)
    radial = math.sqrt(2.0) * _legendre_norm(k, am) * lpmv(am, k, z)
    return radial * (np.cos(am * phi) if m > 0 else np.sin(am * phi))


def eval_harmonic(n: int, idx, theta) -> np.ndarray | float:
    """Evaluate the real orthonormal harmonic Y_{k,ell} at unit vector(s) theta.

    Parameters
    ----------
    n : 2 or 3
    idx : (k, ell) pair
    theta : array of shape (n,) or (..., n) of unit vectors

    Orthonormality is with respect to the probability measure on S^{n-1}.
    For n = 3 the index ell = 1..2k+1 maps to the order m = ell-k-1; the
    zonal harmonic sqrt(2k+1) P_k(cos(gamma)) sits at ell = k+1.
    """
    k, ell = idx
    check_index(n, k, ell)
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 1
    vals = _circle_harmonic(k, ell, th) if n == 2 else _s2_harmonic(k, ell, th)
    return float(vals) if scalar else vals


def harmonic_basis(n: int, k: int, theta) -> np.ndarray:
    """All d_k basis values at theta; shape (..., d_k)."""
    d = dim_harmonics(n, k)
    th = np.asarray(theta, dtype=float)
    out = np.empty(th.shape[:-1] + (d,))
    for ell in range(1, d + 1):
        out[..., ell - 1] = eval_harmonic(n, (k, ell), th)
    return out


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
