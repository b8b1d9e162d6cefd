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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceRegionError, PoleError
from .moment_1d import _as_vector, _freeze_fields, _json_float, _json_int, _moment_remainder, _sorted_atoms
from .sphere import (
    as_direction,
    check_index,
    check_indices,
    dim_harmonics,
    eval_harmonic,
    harmonic_table,
    sphere_nodes,
    solid_harmonic,
)

__all__ = [
    "KDQPoint",
    "ComponentFamily",
    "PseudoPositiveMeasure",
    "AlmansiPolynomial",
    "GrowthReport",
    "aronszajn_r_pow_n",
    "singular_roots",
    "hua_kernel",
    "hua_tail_bound",
    "cauchy_reproduce",
    "markov_stieltjes",
    "growth_condition_check",
    "multi_nevanlinna_check",
    "divergent_partial_sums",
]

DEFAULT_KMAX = 24
_FIELDS = ("atoms", "weights")


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


@dataclass(frozen=True, eq=False)
class ComponentFamily:
    """Radial components indexed by (k, ell), packed into flat read-only arrays.

    `keys` ascend; component keys[i] owns radii[offsets[i]:offsets[i+1]] and
    the masses at the same positions.  Each owner (`PseudoPositiveMeasure`,
    `pseudo_toda.PseudoTodaState`, `iso_flow.IsoFlowState`) checks the
    arrays once, and per-component quantities are array expressions on them.
    """

    keys: tuple
    offsets: np.ndarray
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for arr in (self.offsets, self.radii, self.masses):
            arr.setflags(write=False)

    @classmethod
    def pack(cls, items, names=("radii", "masses"), min_size: int = 0) -> "ComponentFamily":
        """Pack ((k, ell), radii, masses) items; a repeated index keeps its last item.

        Arrays of different sizes or with fewer than `min_size` atoms, or with
        an entry that is not finite, raise ValueError naming the field.
        """
        table = {}
        for key, *arrays in items:
            r, m = (_as_vector(name, arr) for name, arr in zip(names, arrays))
            if r.shape != m.shape or r.size < min_size:
                raise ValueError(f"{names[0]} and {names[1]} must be matching 1-d arrays")
            table[(int(key[0]), int(key[1]))] = (r, m)
        keys = tuple(sorted(table))
        flat = [np.concatenate([np.empty(0)] + [table[key][i] for key in keys]) for i in (0, 1)]
        for name, arr in zip(names, flat):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} entries must be finite")
        return cls(keys, np.cumsum([0] + [table[key][0].size for key in keys]), *flat)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([k for k, _ in self.keys], dtype=int)

    @cached_property
    def atom_degrees(self) -> np.ndarray:
        return np.repeat(self.degrees, self.sizes)

    @cached_property
    def blocks(self) -> list:
        """(positions, atom indices of shape (C_m, m)) of the components with m atoms, per m > 0."""
        counts = np.unique(self.sizes[self.sizes > 0]).tolist()
        return [(pos, self.offsets[pos][:, None] + np.arange(m)) for m in counts for pos in [np.flatnonzero(self.sizes == m)]]

    def index(self, idx) -> int:
        """Position of component idx = (k, ell) in `keys`; KeyError if it is absent."""
        key = (int(idx[0]), int(idx[1]))
        if key not in self.keys:
            raise KeyError(f"no component at index {key}")
        return self.keys.index(key)

    def component(self, idx) -> tuple:
        """(radii, masses) views of component idx = (k, ell); KeyError if it is absent."""
        i = self.index(idx)
        span = slice(self.offsets[i], self.offsets[i + 1])
        return self.radii[span], self.masses[span]

    def items(self) -> list:
        """(key, radii, masses) per component, in ascending (k, ell) order."""
        bounds = self.offsets.tolist()
        return [(key, self.radii[i:j], self.masses[i:j]) for key, i, j in zip(self.keys, bounds, bounds[1:])]

    def compress(self, keep, masses=None) -> "ComponentFamily":
        """The atoms where `keep` holds, with `masses` if given; a component left empty drops."""
        counts = np.diff(np.concatenate([[0], np.cumsum(keep)])[self.offsets])
        keys = tuple(key for key, c in zip(self.keys, counts.tolist()) if c)
        masses = self.masses if masses is None else masses
        return ComponentFamily(keys, np.cumsum([0] + counts[counts > 0].tolist()), self.radii[keep], masses[keep])

    def block_sums(self, values) -> np.ndarray:
        """Sums of `values` (..., atoms) over each component: shape (..., components).

        The components with m atoms are summed as one C-contiguous (..., C_m, m)
        block along its last axis, which numpy reduces row by row exactly as
        `np.sum` reduces one component.  `values[..., idx]` would put the index
        axes first in memory, and numpy would then sum in another order.
        """
        values = np.asarray(values)
        out = np.zeros(values.shape[:-1] + (len(self.keys),), dtype=values.dtype)
        for pos, idx in self.blocks:
            out[..., pos] = np.take(values, idx, axis=-1).sum(axis=-1)
        return out

    def degree_powers(self, base, shift: int = 0) -> np.ndarray:
        """base ** (k + shift) per atom, k its component's degree, as one scalar
        power per degree: an array of exponents takes another numpy path and
        moves the last bit (k = 2 is a square only for a scalar 2)."""
        out = np.empty(base.shape)
        for k in np.unique(self.degrees).tolist():
            at = self.atom_degrees == k
            out[at] = base[at] ** (k + shift)
        return out


class PseudoPositiveMeasure:
    """Sparse family of nonnegative radial component measures indexed by (k, ell).

    Absent indices mean a zero component.  Every stored component lives on
    the half-line (atoms >= 0) and k runs up to the truncation degree k_max.
    Pass `components`, a map (k, ell) -> (atoms, weights), each component
    checked, sorted and merged as a `DiscreteMeasure` of its own; or a
    `family` of components already sorted and merged.
    """

    def __init__(self, n: int, components=None, k_max: int = -1, *, family=None):
        if n not in (2, 3):
            raise ValueError(f"unsupported ambient dimension n={n}")
        if family is None:
            raw = ComponentFamily.pack(((key, *arrays) for key, arrays in (components or {}).items()), _FIELDS)
            atoms, weights, offsets = _sorted_atoms(raw.radii, raw.masses, raw.offsets, half_line=True)
            family = ComponentFamily(raw.keys, offsets, atoms, weights)
        check_indices(n, family.keys)
        top = family.keys[-1][0] if family.keys else 0
        if top > k_max >= 0:
            raise ValueError("component degree exceeds k_max")
        self.n, self.family, self.k_max = int(n), family, int(k_max if k_max >= 0 else top)

    @property
    def support_radius(self) -> float:
        return max(0.0, float(self.family.radii.max())) if self.family.radii.size else 0.0

    def truncated(self, k_max: int) -> "PseudoPositiveMeasure":
        """The components of degree <= k_max, at truncation degree k_max; self if none is above."""
        fam = self.family
        count = int(np.sum(fam.degrees <= k_max))
        if count == len(fam.keys):
            return self
        head = ComponentFamily(fam.keys[:count], fam.offsets[: count + 1], *(a[: fam.offsets[count]] for a in (fam.radii, fam.masses)))
        return PseudoPositiveMeasure(self.n, k_max=k_max, family=head)

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "k_max": int(self.k_max),
            "components": [
                {"k": k, "ell": ell, "atoms": atoms.tolist(), "weights": weights.tolist()}
                for (k, ell), atoms, weights in self.family.items()
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoPositiveMeasure":
        comps = {
            (_json_int(c, "k"), _json_int(c, "ell")): (_json_float(c, "atoms"), _json_float(c, "weights"))
            for c in d["components"]
        }
        return cls(_json_int(d, "n"), comps, k_max=_json_int(d, "k_max", -1))


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
    k >= 1.  All G_k(c) come from one three-term recurrence over the
    degrees (`_zonal`).  Requires |zeta| > |x| (the convergence region);
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
        acc = complex((r / z) ** k @ (d_k * _zonal(n, k_max, c)))
    return complex(z / (z * z - r * r) * acc)


def _zonal(n: int, k_max: int, c: float) -> np.ndarray:
    # G_0..G_{k_max} at c: Chebyshev T_{j+1} = 2c T_j - T_{j-1} for n = 2,
    # Legendre (j+1) P_{j+1} = (2j+1) c P_j - j P_{j-1} for n = 3
    g = [1.0, c]
    for j in range(1, k_max):
        g.append(2.0 * c * g[j] - g[j - 1] if n == 2 else ((2 * j + 1) * c * g[j] - j * g[j - 1]) / (j + 1))
    return np.array(g[: k_max + 1])


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


def cauchy_reproduce(poly: AlmansiPolynomial, x) -> complex:
    """Reproduce poly(x), |x| < 1, from the kernel double integral.

    (1/2·pi·i) of the contour integral over the unit circle in zeta of the
    sphere average of kernel(zeta theta; x) * poly(zeta theta).  The kernel
    is sum_m zeta^{-m-1} |x|^m C_m(theta . x/|x|), C_m the Gegenbauer
    polynomial of index n/2, and a term (j, k) of the polynomial is
    zeta^D Y_k(theta) with D = 2j + k.  The M-point trapezoid rule in zeta
    keeps the kernel terms m = D + qM, q >= 0, once M > D: m = D is the
    reproducing one, exact on a sphere rule of degree D + k (`sphere_nodes`),
    and the first aliased one is at most |C_M| |x|^M, with |C_M| = M + 1 on
    S^1 and (M + 1)(M + 2)/2 on S^2.  M is the smallest count past the
    largest D that puts that bound below 1e-16, so the result does not
    depend on how the two rules' node counts relate.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (poly.n,):
        raise ValueError(f"x must have shape ({poly.n},)")
    r = float(np.linalg.norm(xv))
    if r >= 1.0:
        raise DivergenceRegionError("reproduction contour is the unit circle; need |x| < 1")
    sphere_degree = max((2 * j + 2 * k for j, k, _ in poly.terms), default=0)
    n_zeta = max((2 * j + k for j, k, _ in poly.terms), default=0) + 1
    while (n_zeta + 1) * (n_zeta + 2 if poly.n == 3 else 2) / 2 * r**n_zeta > 1e-16:
        n_zeta += 1
    pts, wts = sphere_nodes(poly.n, sphere_degree)
    zeta = np.exp(2j * np.pi * np.arange(n_zeta) / n_zeta)
    kern = _kernel_on_grid(poly.n, zeta, pts @ xv, r * r)
    pvals = poly.eval_kdq(zeta[:, None], pts[None, :, :])
    sphere_avg = (kern * pvals) @ wts
    return complex(np.sum(zeta * sphere_avg) / n_zeta)


def _tilde_family(mu: PseudoPositiveMeasure) -> ComponentFamily:
    # pushforward of r^k dmu_{k,l}(r) under rho = r^2 for every component,
    # sorted and merged as a DiscreteMeasure of its own; an atom at r = 0
    # with k > 0 carries zero tilde weight and drops, and so does a
    # component left without atoms
    fam = mu.family
    with np.errstate(over="ignore"):
        w = fam.masses * fam.degree_powers(fam.radii)
    if not np.isfinite(w).all():
        raise OverflowError("a tilde weight w r^k of the measure overflows")
    kept = fam.compress(w > 0.0, w)
    with np.errstate(over="ignore"):
        rho = kept.radii**2
    if not np.isfinite(rho).all():
        raise OverflowError("a tilde atom r^2 of the measure overflows")
    rho, w, offsets = _sorted_atoms(rho, kept.masses, kept.offsets, half_line=True)
    return ComponentFamily(kept.keys, offsets, rho, w)


def _check_outside_support(mu: PseudoPositiveMeasure, zeta: complex) -> None:
    radius = mu.support_radius
    if abs(zeta) <= radius:
        raise DivergenceRegionError(
            f"transform requires |zeta| > support radius {radius}; got |zeta| = {abs(zeta)}"
        )
    # the transform is evaluated at zeta^2, which must not overflow
    if not cmath.isfinite(zeta * zeta):
        raise OverflowError(f"zeta^2 is not finite at zeta = {zeta}")


def _tilde_transforms(tilde: ComponentFamily, z2: np.ndarray) -> np.ndarray:
    # T[i, c] = sum_j w_cj / (z2[i] - rho_cj), the Stieltjes transform of
    # every tilde component at every point, shape (points, components);
    # PoleError at an atom, for the first such component and then point
    diffs = z2[:, None] - tilde.radii
    poles = diffs == 0.0
    if poles.any():
        c = np.searchsorted(tilde.offsets, np.flatnonzero(poles.any(axis=0))[0], side="right") - 1
        i = np.flatnonzero(poles[:, tilde.offsets[c] : tilde.offsets[c + 1]].any(axis=1))[0]
        raise PoleError(f"Stieltjes transform evaluated at an atom: {complex(z2[i])}")
    return tilde.block_sums(tilde.masses / diffs)


def markov_stieltjes(mu: PseudoPositiveMeasure, p):
    """Transform value sum_{k,l} zeta^{1-k} Y_{k,l}(theta) T_{k,l}(zeta^2).

    T_{k,l} is the one-dimensional Stieltjes transform of the pushforward of
    r^k dmu_{k,l} under rho = r^2, evaluated at zeta^2; needs |zeta| larger
    than the support radius.  `p` is one KDQPoint (a complex is returned) or
    a sequence of them (a complex array is returned).  Every T_{k,l} at
    every point is one array expression over all atoms; the products and
    each point's sum, in ascending (k, l) order, run on Python complex
    numbers, which numpy's complex multiply does not match bit for bit.
    """
    points = [p] if isinstance(p, KDQPoint) else list(p)
    for q in points:
        if q.n != mu.n:
            raise ValueError("dimension mismatch between measure and point")
        _check_outside_support(mu, q.zeta)
    thetas = np.array([q.theta for q in points]).reshape(len(points), mu.n)
    tilde = _tilde_family(mu)
    ks = tilde.degrees.tolist()
    zs = [q.zeta for q in points]
    t_vals = _tilde_transforms(tilde, np.array([z * z for z in zs], dtype=complex)).tolist()
    totals = []
    for z, ys, ts in zip(zs, harmonic_table(mu.n, tilde.keys, thetas).tolist(), t_vals):
        powers = [z ** (1 - k) for k in range(ks[-1] + 1)] if ks else []
        total = 0.0 + 0.0j
        for k, y_val, t_val in zip(ks, ys, ts):
            total += powers[k] * y_val * t_val
        totals.append(total)
    if isinstance(p, KDQPoint):
        return complex(totals[0])
    return np.array(totals, dtype=complex)


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
    fam = mu.family
    m: dict[int, float] = {}
    for (k, _), val in zip(fam.keys, fam.block_sums(fam.masses * fam.degree_powers(fam.radii)).tolist()):
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


def multi_nevanlinna_check(mu: PseudoPositiveMeasure, idx, n_trunc: int, zeta_list) -> np.ndarray:
    """Residuals of the componentwise moment expansion along a ray in zeta.

    With T(zeta^2) the Stieltjes transform of the (k, l) tilde measure
    (weights w r^k at rho = r^2) and s_j = int r^{k+2j} dmu_{k,l}, the
    residual at each zeta is

        | zeta^{4n+2} ( T(zeta^2) - sum_{j=0}^{2n-1} s_j zeta^{-2j-2} ) - s_{2n} |,

    the truncated-moment limit in z = zeta^2, as the exact remainder
    `moment_1d._moment_remainder` of the component's own atoms (zeros for an
    absent one).  Along a ray with Im zeta^2 > 0 (arg zeta^2 = pi/2 in the
    standard setup) the residuals decrease like |zeta|^{-2}.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    k, ell = int(idx[0]), int(idx[1])
    check_index(mu.n, k, ell)
    zetas = [complex(z) for z in zeta_list]
    for z in zetas:
        _check_outside_support(mu, z)
    try:
        radii, masses = mu.family.component((k, ell))
    except KeyError:
        return np.zeros(len(zetas))
    return _moment_remainder(radii**2, masses * radii**k, n_trunc, np.array([z * z for z in zetas], dtype=complex))


def divergent_partial_sums(mu: PseudoPositiveMeasure, n_trunc: int, p: KDQPoint):
    """Truncations (f_N, g_N) of the transform's formal moment series.

    f_N(zeta theta) = (1/zeta) sum_{k,l} sum_{j<2N} s_{k,l;j} zeta^{-k-2j} Y_{k,l}(theta)
    g_N(zeta, theta) = sum_{k,l} s_{k,l;2N} zeta^{-k} Y_{k,l}(theta)

    They demonstrate the summation of the (generally divergent) series:
    zeta^{4N+1} (mu_hat - f_N) - g_N -> 0 along rays with Im zeta^2 > 0.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    fam = mu.family
    # s_{k,l;j} = int r^{k+2j} dmu_{k,l} of every component, for j = 0..2N
    moments = [fam.block_sums(fam.masses * fam.degree_powers(fam.radii, 2 * j)).tolist() for j in range(2 * n_trunc + 1)]
    z = p.zeta
    f_val = 0.0 + 0.0j
    g_val = 0.0 + 0.0j
    for i, (k, y_val) in enumerate(zip(fam.degrees.tolist(), harmonic_table(mu.n, fam.keys, p.theta).tolist())):
        for j in range(2 * n_trunc):
            f_val += moments[j][i] * z ** (-(k + 2 * j)) * y_val
        g_val += moments[-1][i] * z ** (-k) * y_val
    return complex(f_val / z), complex(g_val)
