"""Geometry and transforms on the quadric (C x S^{n-1}) / {(z,t) ~ (-z,-t)}.

Points are stored through a canonical representative of the antipodal pair
(Re zeta > 0, resolved toward Im zeta >= 0 and then a fixed hemisphere for
theta), so every operation is single-valued on the quadric by construction.

The reproducing kernel zeta^{n-1} / r(zeta theta - x)^n, with

    r(zeta theta - x)^n = (sqrt(zeta^2 - 2 zeta <theta,x> + |x|^2))^n,

expands for |zeta| > |x| into the harmonic series

    zeta/(zeta^2 - |x|^2) * sum_k zeta^{-k} sum_l Y_{k,l}(theta) Y_{k,l}(x),

where Y_{k,l}(x) = |x|^k Y_{k,l}(x/|x|).  By the addition theorem each
inner sum over l is closed: for a unit vector u, sum_l Y_{k,l}(theta) Y_{k,l}(u)
is (2k+1) P_k(<theta,u>) on S^2 and 2 T_k(<theta,u>) = 2 cos(k phi) on S^1
(k >= 1), so the series needs one Legendre or Chebyshev value per degree.
In closed form the kernel is zeta^{-1} u^{-n/2} with u = 1 - 2<theta,x>/zeta
+ |x|^2/zeta^2, taken as 1/u for n = 2 and 1/(u sqrt(u)) for n = 3; that
radical is the principal branch of u^{-3/2}.  Contour integration of the
kernel against a polynomial reproduces the polynomial's values inside the
unit ball, and integrating it against a measure gives the transform

    mu_hat(zeta, theta) = sum_{k,l} zeta^{1-k} Y_{k,l}(theta)
                          * int r^k dmu_{k,l}(r) / (zeta^2 - r^2),

a sum of one-dimensional Stieltjes transforms in the variable zeta^2.  Sums
over component indices always run in ascending (k, l) order so results are
bitwise reproducible.
"""

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DivergenceRegionError, PoleError
from .moment_1d import DiscreteMeasure, _freeze_fields, stieltjes_transform
from .sphere import (
    as_direction,
    check_index,
    dim_harmonics,
    eval_harmonic,
    sphere_nodes,
    solid_harmonic,
)

# imported after .moment_1d on purpose: loading scipy.special before
# scipy.linalg made `import toda_kdq.cli` about 3% slower
from scipy.special import eval_chebyt, eval_legendre

__all__ = [
    "KDQPoint",
    "PseudoPositiveMeasure",
    "AlmansiPolynomial",
    "GrowthReport",
    "aronszajn_r_pow_n",
    "singular_roots",
    "hua_kernel",
    "hua_tail_bound",
    "cauchy_reproduce",
    "markov_stieltjes",
    "component_moment",
    "growth_condition_check",
    "project_transform",
    "multi_nevanlinna_check",
    "divergent_partial_sums",
]

DEFAULT_KMAX = 24


@dataclass(frozen=True)
class KDQPoint:
    """Point zeta*theta, stored as the canonical antipodal representative.

    The representative has Re zeta > 0; ties fall to Im zeta >= 0, and for
    zeta = 0 the hemisphere with positive first nonzero theta component.
    Constructing from (zeta, theta) or (-zeta, -theta) yields the same point.
    """

    zeta: complex
    theta: np.ndarray

    def __post_init__(self):
        z = complex(self.zeta)
        th = as_direction(len(np.asarray(self.theta, dtype=float)), self.theta)
        if _antipodal_flip(z, th):
            z, th = -z, -th
        object.__setattr__(self, "zeta", z)
        _freeze_fields(self, theta=th)

    @property
    def n(self) -> int:
        return self.theta.size


def _antipodal_flip(z: complex, th: np.ndarray) -> bool:
    if z.real != 0.0:
        return z.real < 0.0
    if z.imag != 0.0:
        return z.imag < 0.0
    nonzero = th[th != 0.0]
    return nonzero.size > 0 and nonzero[0] < 0.0


@dataclass(frozen=True)
class PseudoPositiveMeasure:
    """Sparse family of nonnegative radial component measures indexed by (k, ell).

    Absent indices mean a zero component.  Every stored component lives on
    the half-line (atoms >= 0) and k runs up to the truncation degree k_max.
    """

    n: int
    components: dict = field(default_factory=dict)
    k_max: int = -1  # -1: infer from the stored components

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"unsupported ambient dimension n={self.n}")
        comps = {}
        for key, meas in self.components.items():
            k, ell = int(key[0]), int(key[1])
            check_index(self.n, k, ell)
            if not isinstance(meas, DiscreteMeasure):
                raise TypeError("components must map (k, ell) to DiscreteMeasure")
            if not meas.half_line:
                meas = DiscreteMeasure(meas.atoms, meas.weights, half_line=True)
            comps[(k, ell)] = meas
        k_max = self.k_max
        if k_max < 0:
            k_max = max((k for k, _ in comps), default=0)
        if any(k > k_max for k, _ in comps):
            raise ValueError("component degree exceeds k_max")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "k_max", int(k_max))

    def sorted_items(self):
        return sorted(self.components.items(), key=lambda kv: kv[0])

    @property
    def support_radius(self) -> float:
        radius = 0.0
        for meas in self.components.values():
            if len(meas):
                radius = max(radius, float(meas.atoms[-1]))
        return radius

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "k_max": int(self.k_max),
            "components": [
                {"k": k, "ell": ell, **{key: val for key, val in meas.to_dict().items() if key != "half_line"}}
                for (k, ell), meas in self.sorted_items()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoPositiveMeasure":
        comps = {
            (int(c["k"]), int(c["ell"])): DiscreteMeasure(c["atoms"], c["weights"], half_line=True)
            for c in d["components"]
        }
        return cls(n=int(d["n"]), components=comps, k_max=int(d.get("k_max", -1)))


def aronszajn_r_pow_n(p: KDQPoint, x) -> complex:
    """(zeta^2 - 2 zeta <theta,x> + |x|^2)^{n/2} at the canonical representative.

    Even n takes the literal integer power; odd n takes the principal square
    root first.  A zero radicand is the singular set (the two roots whose
    modulus is |x|).
    """
    xv = np.asarray(x, dtype=float)
    z = p.zeta
    w = z * z - 2.0 * z * float(p.theta @ xv) + float(xv @ xv)
    if w == 0.0:
        raise PoleError("point lies on the singular set of the kernel")
    if p.n % 2 == 0:
        return complex(w ** (p.n // 2))
    return complex(cmath.sqrt(w) ** p.n)


def singular_roots(theta, x):
    """The two zeros <theta,x> +- i sqrt(|x|^2 - <theta,x>^2); both have modulus |x|."""
    xv = np.asarray(x, dtype=float)
    th = as_direction(xv.size, theta)
    t = float(th @ xv)
    disc = max(float(xv @ xv) - t * t, 0.0)
    s = math.sqrt(disc)
    return complex(t, s), complex(t, -s)


@lru_cache(maxsize=None)
def _degrees(n: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    # degrees 0..k_max and the harmonic dimensions d_k, read-only and shared
    k = np.arange(k_max + 1)
    d_k = np.array([float(dim_harmonics(n, kk)) for kk in range(k_max + 1)])
    k.setflags(write=False)
    d_k.setflags(write=False)
    return k, d_k


def hua_kernel(p: KDQPoint, x, k_max: int = DEFAULT_KMAX) -> complex:
    """Harmonic expansion of the reproducing kernel, truncated at degree k_max.

    The degree-k term is (|x|/zeta)^k sum_l Y_{k,l}(theta) Y_{k,l}(x/|x|).
    By the addition theorem the sum over l is d_k G_k(c), c = <theta, x>/|x|,
    with G_k = P_k (Legendre) on S^2, where d_k G_k = (2k+1) P_k, and
    G_k = T_k (Chebyshev) on S^1, where d_k G_k = 2 T_k = 2 cos(k phi) for
    k >= 1.  All G_k(c) come from one vectorised call of the compiled
    three-term recurrence.  Requires |zeta| > |x| (the convergence region);
    the geometric tail left off is bounded by `hua_tail_bound`.
    """
    n = p.n
    xs = np.asarray(x, dtype=float).tolist()
    if len(xs) != n:
        raise ValueError(f"x must have shape ({n},)")
    z = p.zeta
    r = math.hypot(*xs)
    if abs(z) <= r:
        raise DivergenceRegionError(f"series requires |zeta| > |x|; got {abs(z)} <= {r}")
    acc = 1.0
    if r != 0.0:
        c = min(max(sum(map(operator.mul, p.theta.tolist(), xs)) / r, -1.0), 1.0)
        k, d_k = _degrees(n, k_max)
        zonal = eval_chebyt(k, c) if n == 2 else eval_legendre(k, c)
        acc = complex((r / z) ** k @ (d_k * zonal))
    return complex(z / (z * z - r * r) * acc)


def hua_tail_bound(n: int, zeta: complex, x, k_max: int) -> float:
    """Upper bound on the dropped tail of `hua_kernel` past degree k_max.

    Cauchy-Schwarz with the addition theorem bounds each degree-k term by
    d_k (|x|/|zeta|)^k, and the geometric k-sum is closed in both dimensions.
    """
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    q = r / abs(zeta)
    if q >= 1.0:
        raise DivergenceRegionError("no tail bound outside |zeta| > |x|")
    if q == 0.0:
        return 0.0
    head = q ** (k_max + 1)
    if n == 2:
        tail = 2.0 * head / (1.0 - q)
    else:
        # sum_{k>K} (2k+1) q^k
        kk = k_max + 1
        tail = 2.0 * head * (kk - (kk - 1) * q) / (1.0 - q) ** 2 + head / (1.0 - q)
    return float(abs(zeta / (zeta * zeta - r * r)) * tail)


@dataclass(frozen=True)
class AlmansiPolynomial:
    """Polynomial written in the basis |x|^{2j} Y_{k,l}(x).

    `terms` maps (j, k, ell) to a real coefficient.  The extension to the
    quadric substitutes |x| -> zeta: each basis element becomes
    zeta^{2j+k} Y_{k,l}(theta), which is antipodally well defined.
    """

    n: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for (j, k, ell), coeff in self.terms.items():
            if j < 0:
                raise ValueError("radial exponent j must be nonnegative")
            check_index(self.n, k, ell)
            clean[(int(j), int(k), int(ell))] = float(coeff)
        object.__setattr__(self, "terms", clean)

    @property
    def max_harmonic_degree(self) -> int:
        return max((k for (_, k, _) in self.terms), default=0)

    def eval(self, x) -> float:
        xv = np.asarray(x, dtype=float)
        r2 = float(xv @ xv)
        total = 0.0
        for (j, k, ell), coeff in sorted(self.terms.items()):
            total += coeff * r2**j * solid_harmonic(self.n, (k, ell), xv)
        return total

    def eval_kdq(self, zeta, theta) -> np.ndarray:
        """Values on the quadric; zeta and the node axis of theta broadcast."""
        z = np.asarray(zeta, dtype=complex)
        th = np.asarray(theta, dtype=float)
        total = np.zeros(np.broadcast_shapes(z.shape, th.shape[:-1]), dtype=complex)
        for (j, k, ell), coeff in sorted(self.terms.items()):
            total += coeff * z ** (2 * j + k) * eval_harmonic(self.n, (k, ell), th)
        return total


def _kernel_on_grid(n: int, zeta: np.ndarray, dots: np.ndarray, r2: float) -> np.ndarray:
    """Closed-form kernel zeta^{-1} u^{-n/2} on a (zeta, node) grid.

    u = 1 - 2<theta,x>/zeta + |x|^2/zeta^2 tends to 1 as |x|/|zeta| -> 0,
    which is the branch of the series.  u^{-n/2} is taken as the radical
    1/u (n = 2) or 1/(u sqrt(u)) (n = 3); u sqrt(u) = exp(1.5 Log u), so
    this is the principal power.  u stays off the negative real axis for
    |x| < |zeta|, so the branch is continuous along the whole contour
    (unlike the raw radicand).
    """
    z = zeta[:, None]
    u = 1.0 - 2.0 * dots[None, :] / z + r2 / z**2
    if n == 2:
        return 1.0 / (u * z)
    return 1.0 / (u * np.sqrt(u) * z)


def cauchy_reproduce(
    poly: AlmansiPolynomial,
    x,
    n_zeta: int | None = None,
    sphere_degree: int | None = None,
) -> complex:
    """Reproduce poly(x), |x| < 1, from the kernel double integral.

    (1/2·pi·i) of the contour integral over the unit circle in zeta of the
    sphere average of kernel(zeta theta; x) * poly(zeta theta).  The contour
    uses the trapezoid rule (exact for the Laurent orders present up to an
    |x|^M aliasing tail); the sphere uses `sphere_nodes`.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (poly.n,):
        raise ValueError(f"x must have shape ({poly.n},)")
    r = float(np.linalg.norm(xv))
    if r >= 1.0:
        raise DivergenceRegionError("reproduction contour is the unit circle; need |x| < 1")
    # degree beyond which the kernel's harmonic content is below ~1e-12 at |x|
    k_tail = max(40, int(math.ceil(math.log(1e-12) / math.log(max(r, 0.3)))))
    if sphere_degree is None:
        sphere_degree = k_tail + poly.max_harmonic_degree
    if n_zeta is None:
        n_zeta = 4 * (k_tail + 1)
    pts, wts = sphere_nodes(poly.n, sphere_degree)
    zeta = np.exp(2j * np.pi * np.arange(n_zeta) / n_zeta)
    kern = _kernel_on_grid(poly.n, zeta, pts @ xv, r * r)
    pvals = poly.eval_kdq(zeta[:, None], pts[None, :, :])
    sphere_avg = (kern * pvals) @ wts
    return complex(np.sum(zeta * sphere_avg) / n_zeta)


def _tilde_component(meas: DiscreteMeasure, k: int) -> DiscreteMeasure | None:
    # pushforward of r^k dmu(r) under rho = r^2; a k>0 atom at r=0 carries
    # zero tilde weight and is dropped
    w = meas.weights * meas.atoms**k
    keep = w > 0.0
    if not np.any(keep):
        return None
    return DiscreteMeasure(meas.atoms[keep] ** 2, w[keep], half_line=True)


def _check_outside_support(mu: PseudoPositiveMeasure, zeta: complex) -> None:
    radius = mu.support_radius
    if abs(zeta) <= radius:
        raise DivergenceRegionError(
            f"transform requires |zeta| > support radius {radius}; got |zeta| = {abs(zeta)}"
        )
    # the transform is evaluated at zeta^2, which must not overflow
    if not cmath.isfinite(zeta * zeta):
        raise OverflowError(f"zeta^2 is not finite at zeta = {zeta}")


def _component_terms(mu: PseudoPositiveMeasure, thetas: np.ndarray):
    # (k, tilde measure, Y_{k,l}(thetas)) per component with tilde mass, in
    # ascending (k, l); each is built once and shared by every zeta of a call
    for (k, ell), meas in mu.sorted_items():
        tilde = _tilde_component(meas, k)
        if tilde is not None:
            yield k, tilde, eval_harmonic(mu.n, (k, ell), thetas)


def markov_stieltjes(mu: PseudoPositiveMeasure, p):
    """Transform value sum_{k,l} zeta^{1-k} Y_{k,l}(theta) T_{k,l}(zeta^2).

    T_{k,l} is the one-dimensional Stieltjes transform of the pushforward of
    r^k dmu_{k,l} under rho = r^2, evaluated at zeta^2; needs |zeta| larger
    than the support radius.  `p` is one KDQPoint (a complex is returned) or
    a sequence of them (a complex array is returned); the pushforwards and
    harmonic values are built once per call, and each point's sum runs in
    the same ascending (k, l) order either way.
    """
    points = [p] if isinstance(p, KDQPoint) else list(p)
    for q in points:
        if q.n != mu.n:
            raise ValueError("dimension mismatch between measure and point")
        _check_outside_support(mu, q.zeta)
    thetas = np.array([q.theta for q in points]).reshape(len(points), mu.n)
    totals = [0.0 + 0.0j] * len(points)
    for k, tilde, ys in _component_terms(mu, thetas):
        for i, (q, y_val) in enumerate(zip(points, ys.tolist())):
            z = q.zeta
            totals[i] += z ** (1 - k) * y_val * stieltjes_transform(tilde, z * z)
    if isinstance(p, KDQPoint):
        return complex(totals[0])
    return np.array(totals, dtype=complex)


def _markov_on_nodes(mu: PseudoPositiveMeasure, zetas: list, pts: np.ndarray) -> np.ndarray:
    # row i: transform values at every node for zetas[i]
    vals = np.zeros((len(zetas), pts.shape[0]), dtype=complex)
    for k, tilde, ys in _component_terms(mu, pts):
        for i, zeta in enumerate(zetas):
            vals[i] += zeta ** (1 - k) * stieltjes_transform(tilde, zeta * zeta) * ys
    return vals


def component_moment(mu: PseudoPositiveMeasure, idx, j: int) -> float:
    """Moment s_{k,l;j} = int r^{k+2j} dmu_{k,l}(r); zero for an absent component."""
    k, ell = idx
    meas = mu.components.get((int(k), int(ell)))
    if meas is None or len(meas) == 0:
        return 0.0
    return float(np.sum(meas.weights * meas.atoms ** (k + 2 * j)))


@dataclass(frozen=True)
class GrowthReport:
    """Fitted constants for the bound int r^k dmu_{k,l} <= C D^k."""

    C: float
    D: float
    ok: bool
    moments_by_k: tuple  # ((k, max_l moment), ...) ascending in k


def growth_condition_check(mu: PseudoPositiveMeasure) -> GrowthReport:
    """Fit the smallest geometric envelope of the degree-k component masses.

    m_k = max_l int r^k dmu_{k,l}; the fit is D = max_k (m_k/C)^{1/k} with
    C = m_0 (the largest m_k when m_0 vanishes), so m_k <= C D^k holds up to
    rounding in the last digits.  Super-geometric growth over the stored
    range (the per-degree ratios m_k^{1/k} still rising at the largest
    degrees) is reported as a failed fit rather than an exception.
    """
    m: dict[int, float] = {}
    for (k, _), meas in mu.sorted_items():
        val = float(np.sum(meas.weights * meas.atoms**k))
        m[k] = max(m.get(k, 0.0), val)
    table = tuple(sorted(m.items()))
    positive = [(k, v) for k, v in table if v > 0.0]
    if not positive:
        return GrowthReport(C=0.0, D=1.0, ok=True, moments_by_k=table)
    m0 = m.get(0, 0.0)
    c = m0 if m0 > 0.0 else max(v for _, v in positive)
    ratios = [(v / c) ** (1.0 / k) for k, v in positive if k >= 1]
    d = max(ratios) if ratios else 1.0
    growth = [v ** (1.0 / k) for k, v in positive if k >= 1]
    trend = (
        len(growth) >= 3
        and growth[-1] > growth[-2] > growth[-3]
        and growth[-1] == max(growth)
    )
    return GrowthReport(C=float(c), D=float(d), ok=not trend, moments_by_k=table)


def _projection_degree(mu: PseudoPositiveMeasure, k: int) -> int:
    stored = max((kk for kk, _ in mu.components), default=0)
    return stored + k + 2


def project_transform(mu: PseudoPositiveMeasure, idx, zeta, quad_degree: int | None = None):
    """zeta^{k-1} * sphere average of mu_hat(zeta, .) Y_{k,l}; equals T_{k,l}(zeta^2).

    The quadrature degree must resolve products of Y_{k,l} with every stored
    harmonic degree; an insufficient explicit degree is rejected.  `zeta` is
    one complex (a complex is returned) or a sequence (a complex array is
    returned); the node harmonics are built once for all of them.
    """
    k, ell = int(idx[0]), int(idx[1])
    check_index(mu.n, k, ell)
    needed = _projection_degree(mu, k)
    if quad_degree is None:
        quad_degree = needed
    elif quad_degree < needed:
        raise ValueError(f"quadrature degree {quad_degree} insufficient; need >= {needed}")
    single = np.ndim(zeta) == 0
    zetas = [complex(zeta)] if single else [complex(z) for z in zeta]
    for z in zetas:
        _check_outside_support(mu, z)
    pts, wts = sphere_nodes(mu.n, quad_degree)
    y_idx = eval_harmonic(mu.n, (k, ell), pts)
    vals = _markov_on_nodes(mu, zetas, pts)
    out = [complex(z ** (k - 1) * np.sum(wts * row * y_idx)) for z, row in zip(zetas, vals)]
    return out[0] if single else np.array(out, dtype=complex)


def multi_nevanlinna_check(
    mu: PseudoPositiveMeasure,
    idx,
    n_trunc: int,
    zeta_list,
    quad_degree: int | None = None,
) -> np.ndarray:
    """Residuals of the componentwise moment expansion along a ray in zeta.

    With T(zeta^2) the projected transform of the (k, l) component and
    s_j = int r^{k+2j} dmu_{k,l}, the residual at each zeta is

        | zeta^{4n+2} ( T(zeta^2) - sum_{j=0}^{2n-1} s_j zeta^{-2j-2} ) - s_{2n} |,

    i.e. the classical truncated-moment limit in the variable z = zeta^2.
    Points should march outward along a fixed ray with Im zeta^2 > 0
    (arg zeta^2 = pi/2 in the standard setup); residuals then decrease
    like |zeta|^{-2}.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    k, ell = int(idx[0]), int(idx[1])
    s = [component_moment(mu, (k, ell), j) for j in range(2 * n_trunc + 1)]
    zetas = [complex(z) for z in zeta_list]
    t_vals = project_transform(mu, (k, ell), zetas, quad_degree)
    out = np.empty(len(zetas))
    for i, (z, t_val) in enumerate(zip(zetas, t_vals.tolist())):
        bracket = t_val - sum(s[j] * z ** (-2 * j - 2) for j in range(2 * n_trunc))
        out[i] = abs(z ** (4 * n_trunc + 2) * bracket - s[2 * n_trunc])
    return out


def divergent_partial_sums(mu: PseudoPositiveMeasure, n_trunc: int, p: KDQPoint):
    """Truncations (f_N, g_N) of the transform's formal moment series.

    f_N(zeta theta) = (1/zeta) sum_{k,l} sum_{j<2N} s_{k,l;j} zeta^{-k-2j} Y_{k,l}(theta)
    g_N(zeta, theta) = sum_{k,l} s_{k,l;2N} zeta^{-k} Y_{k,l}(theta)

    They demonstrate the summation of the (generally divergent) series:
    zeta^{4N+1} (mu_hat - f_N) - g_N -> 0 along rays with Im zeta^2 > 0.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    z = p.zeta
    f_val = 0.0 + 0.0j
    g_val = 0.0 + 0.0j
    for (k, ell), _ in mu.sorted_items():
        y_val = eval_harmonic(mu.n, (k, ell), p.theta)
        for j in range(2 * n_trunc):
            f_val += component_moment(mu, (k, ell), j) * z ** (-(k + 2 * j)) * y_val
        g_val += component_moment(mu, (k, ell), 2 * n_trunc) * z ** (-k) * y_val
    return complex(f_val / z), complex(g_val)
