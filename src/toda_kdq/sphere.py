"""Real spherical-harmonic bases and quadrature on S^1 and S^2.

All bases are orthonormal with respect to the *probability* (unit total
mass) surface measure, so Y_{0,1} == 1 and sum_l Y_{k,l}(theta)^2 = d_k
at every point (addition theorem at coincident arguments).  This is the
normalization under which the closed-form reproducing-kernel identities
used elsewhere in the library hold term by term.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "dim_harmonics",
    "check_indices",
    "as_direction",
    "harmonic_table",
    "solid_harmonic",
    "sphere_nodes",
]

_DIRECTION_NORM_TOL = 1e-12
# largest S^2 degree: past about 1,470 the recurrence's values at a pole
# overflow, and its coefficient tables grow as the degree squared
_MAX_DEGREE = 1000


def dim_harmonics(n: int, k: int) -> int:
    """Dimension d_k of the degree-k spherical harmonics on S^{n-1}.

    d_k = (2k+n-2)(n+k-3)! / ((n-2)! k!) with d_0 = 1: 2 on S^1 and 2k + 1
    on S^2 for k >= 1.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported ambient dimension n={n}; only 2 and 3")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got k={k}")
    return 1 if k == 0 else 2 if n == 2 else 2 * k + 1


def as_direction(n: int, coords) -> np.ndarray:
    """Validate a unit vector on S^{n-1} and return it as a float array."""
    v = np.asarray(coords, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"direction must have shape ({n},), got {v.shape}")
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"direction entries must be finite, got theta[{i}] = {float(v[i])!r}")
    with np.errstate(over="ignore"):  # an overflowing norm fails the unit-length check
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _DIRECTION_NORM_TOL:
        raise ValueError(f"direction must be unit length within {_DIRECTION_NORM_TOL}; |v| = {norm}")
    return v


def check_indices(n: int, keys) -> tuple[np.ndarray, np.ndarray]:
    """The k and ell arrays of the (k, ell) in `keys`; ValueError naming the
    first bad one unless 1 <= ell <= d_k(n, k), and on S^2 k <= _MAX_DEGREE,
    or naming the first that does not fit a 64-bit integer."""
    if n not in (2, 3):
        raise ValueError(f"unsupported ambient dimension n={n}; only 2 and 3")
    try:
        ks, ells = np.array(keys, dtype=int).reshape(-1, 2).T
    except OverflowError:
        k, ell = next(key for key in keys if not all(-(2**63) <= int(v) < 2**63 for v in key))
        raise ValueError(f"harmonic index (k={k}, ell={ell}) does not fit a 64-bit integer") from None
    dims = np.where(ks == 0, 1, 2 if n == 2 else 2 * ks + 1)
    bad = (ks < 0) | (ells < 1) | (ells > dims) | ((n == 3) & (ks > _MAX_DEGREE))
    if bad.any():
        k, ell, d = (int(arr[np.argmax(bad)]) for arr in (ks, ells, dims))
        if k < 0:
            raise ValueError(f"degree must be nonnegative, got k={k}")
        if not 1 <= ell <= d:
            raise ValueError(f"invalid harmonic index (k={k}, ell={ell}); need 1 <= ell <= {d}")
        raise ValueError(f"harmonic degree k={k} on S^2 exceeds {_MAX_DEGREE}")
    return ks, ells


@lru_cache(maxsize=16)
def _legendre_recurrence(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # read-only (k_max+1, k_max+1) tables a, b and the diagonal seeds of
    #   q_k^m = a[k, m] z q_{k-1}^m - b[k, m] q_{k-2}^m  (m < k),  q_m^m = seed[m],
    # where q_k^m = Pbar_k^m(z) / sin^m(gamma) and Pbar the fully normalised
    # Legendre function with the Condon-Shortley sign (Holmes & Featherstone
    # 2002), whose factor sqrt(2) for m > 0 is in the seeds:
    # seed[m] = -sqrt((2m+1)/(2m)) seed[m-1] for m >= 2, seed[1] = -sqrt(3)
    k = np.arange(k_max + 1.0)[:, None]
    m = np.arange(k_max + 1.0)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((2 * k - 1) * (2 * k + 1) / ((k - m) * (k + m)))
        b = np.sqrt((2 * k + 1) * (k + m - 1) * (k - m - 1) / ((k - m) * (k + m) * (2 * k - 3)))
    a = np.where(m < k, a, 0.0)
    b = np.where(m < k - 1, b, 0.0)
    steps = [1.0, -math.sqrt(3.0)] + [-math.sqrt((2 * j + 1) / (2 * j)) for j in range(2, k_max + 1)]
    seed = np.cumprod(steps[: k_max + 1])
    for arr in (a, b, seed):
        arr.setflags(write=False)
    return a, b, seed


def _legendre_columns(ks: np.ndarray, am: np.ndarray, z: np.ndarray) -> np.ndarray:
    # q_k^m(z) of `_legendre_recurrence` for each (k, m) in zip(ks, am):
    # (keys, z.size), holding two degrees of the recurrence at a time
    a, b, seed = _legendre_recurrence(int(ks.max(initial=0)))
    top = int(am.max(initial=0)) + 1
    order = np.argsort(ks, kind="stable")
    bounds = np.searchsorted(ks[order], np.arange(seed.size + 1)).tolist()
    out = np.empty((ks.size, z.size))
    prev = here = np.zeros((top, z.size))
    for k in range(seed.size):
        j = min(k, top)
        new = np.zeros((top, z.size))
        np.multiply(a[k, :j, None] * z, here[:j], out=new[:j])
        new[:j] -= b[k, :j, None] * prev[:j]
        if k < top:
            new[k] = seed[k]
        if bounds[k] < bounds[k + 1]:
            rows = order[bounds[k] : bounds[k + 1]]
            out[rows] = new[am[rows]]
        prev, here = here, new
    return out


def harmonic_table(n: int, keys, theta) -> np.ndarray:
    """Y_{k,ell}(theta) for every (k, ell) in `keys` at unit vectors theta (..., n): (..., len(keys)).

    On S^1 the basis is 1, sqrt(2) cos(k phi), sqrt(2) sin(k phi).  On S^2
    ell = 1..2k+1 maps to the order m = ell-k-1 (the zonal harmonic
    sqrt(2k+1) P_k(cos(gamma)) at ell = k+1).  There it is computed in
    Cartesian form, without an angle: with theta = (x, y, z), the three-term
    recurrence in k gives Pbar_k^|m|(z) / sin^|m|(gamma), a polynomial in z,
    and Re (m >= 0) or Im (m < 0) of (x + iy)^|m| supplies
    sin^|m|(gamma) cos or sin of |m| phi.  No sqrt(1 - z^2) is formed, so
    values near the poles keep their relative digits.
    """
    return _harmonic_core(n, *check_indices(n, keys), theta)


def _harmonic_core(n: int, ks: np.ndarray, ells: np.ndarray, theta) -> np.ndarray:
    # `harmonic_table` on the k and ell arrays of keys `check_indices` passed
    th = np.asarray(theta, dtype=float)
    if n == 2:
        phi = np.arctan2(th[..., 1], th[..., 0])[..., None]
        out = np.ones(phi.shape[:-1] + ks.shape)
        cos, sin = (ks > 0) & (ells == 1), (ks > 0) & (ells == 2)
        out[..., cos] = math.sqrt(2.0) * np.cos(ks[cos] * phi)
        out[..., sin] = math.sqrt(2.0) * np.sin(ks[sin] * phi)
        return out
    m = ells - ks - 1
    am = np.abs(m)
    pts = th.reshape(-1, 3)
    q = _legendre_columns(ks, am, pts[:, 2])
    # c[j] = (Re, Im) of (x + iy)^j for j = 0..max |m|, from the recurrence
    # c[j] = 2x c[j-1] - (x^2 + y^2) c[j-2] of the powers of a pair of roots
    x, y = pts[:, 0], pts[:, 1]
    c = np.zeros((int(am.max(initial=0)) + 2, 2, pts.shape[0]))
    c[0, 0] = 1.0
    c[1] = x, y
    two_x, r2 = 2.0 * x, x * x + y * y
    for j in range(2, c.shape[0] - 1):
        c[j] = two_x * c[j - 1] - r2 * c[j - 2]
    trig = c[am, (m < 0).astype(np.intp)]
    return (q * trig).T.reshape(th.shape[:-1] + ks.shape)


def solid_harmonic(n: int, keys, x) -> np.ndarray:
    """|x|^k Y_{k,ell}(x/|x|) for every (k, ell) in `keys` at points x (..., n): (..., len(keys)).

    The homogeneous extension of each harmonic: 1 at x = 0 for k = 0, and 0
    there for k > 0.  |x|^k is one scalar power per degree, as an array of
    exponents would take another numpy path and move the last bit.
    """
    ks, ells = check_indices(n, keys)
    xv = np.asarray(x, dtype=float)
    pts = np.atleast_2d(xv)
    r = np.linalg.norm(pts, axis=-1)
    pos = r > 0.0
    vals = _harmonic_core(n, ks, ells, pts[pos] / r[pos, None])
    for k in np.unique(ks).tolist():
        vals[:, ks == k] *= r[pos, None] ** k
    out = np.empty(r.shape + ks.shape)
    out[pos] = vals
    out[~pos] = ks == 0
    return out[0] if xv.ndim == 1 else out


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
        t, w_gl = np.polynomial.legendre.leggauss(n_gl)
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
