"""Geometry and transforms on the quadric (C x S^{n-1}) / {(z,t) ~ (-z,-t)}.

Every operation takes a point (zeta, theta) at the canonical representative
of its antipodal pair (Re zeta > 0, resolved toward Im zeta >= 0 and then a
fixed hemisphere for theta, `_antipodal_flips`), so it is single-valued on
the quadric by construction.

The reproducing kernel zeta^{n-1} / r(zeta theta - x)^n, with

    r(zeta theta - x)^n = zeta^n u^{n/2},  u = 1 - 2<theta,x>/zeta + |x|^2/zeta^2,

expands for |zeta| > |x| into the harmonic series

    zeta/(zeta^2 - |x|^2) * sum_k zeta^{-k} sum_l Y_{k,l}(theta) Y_{k,l}(x),

where Y_{k,l}(x) = |x|^k Y_{k,l}(x/|x|).  By the addition theorem each
inner sum over l is closed: for a unit vector v, sum_l Y_{k,l}(theta) Y_{k,l}(v)
is (2k+1) P_k(<theta,v>) on S^2 and 2 T_k(<theta,v>) = 2 cos(k phi) on S^1
(k >= 1), so the series needs one Legendre or Chebyshev value per degree.
In closed form the kernel is zeta^{-1} u^{-n/2}, u^{n/2} taken as u (n = 2)
or the principal u sqrt(u) (n = 3): u = (1 - a/zeta)(1 - b/zeta), a and b
the roots <theta,x> +- i sqrt(|x|^2 - <theta,x>^2), both of modulus |x|, is
off the negative axis for |zeta| > |x|, where the principal root of
zeta^2 u may flip sign.  Contour integration of the kernel against a
polynomial reproduces the polynomial's values inside the unit ball, and
integrating it against a measure gives the transform

    mu_hat(zeta, theta) = sum_{k,l} zeta^{1-k} Y_{k,l}(theta)
                          * int r^k dmu_{k,l}(r) / (zeta^2 - r^2),

a sum of one-dimensional Stieltjes transforms in the variable zeta^2.  Sums
over component indices always run in ascending (k, l) order so results are
bitwise reproducible.
"""

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceRegionError, PoleError
from .moment_1d import _as_vector, _merge_coincident, _moment_remainder, _segment, _sorted_atoms
from .sphere import _harmonic_core, as_direction, check_indices, dim_harmonics, harmonic_table, solid_harmonic, sphere_nodes

__all__ = [
    "ComponentFamily",
    "PseudoPositiveMeasure",
    "AlmansiPolynomial",
    "GrowthReport",
    "hua_kernel",
    "hua_tail_bound",
    "cauchy_reproduce",
    "almansi_eval_many",
    "markov_stieltjes",
    "growth_condition_check",
    "multi_nevanlinna_check",
    "divergent_partial_sums",
]

_FIELDS = ("atoms", "weights")  # a component's JSON list fields (read in cli) and the names in its errors


def _antipodal_flips(zetas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # True where (zeta, theta) is not the canonical representative: Re zeta < 0,
    # else Im zeta < 0, else (zeta = 0) theta's first nonzero entry < 0
    nonzero = theta[theta != 0.0]
    down = nonzero.size > 0 and nonzero[0] < 0.0
    re, im = zetas.real, zetas.imag
    return (re < 0.0) | ((re == 0.0) & ((im < 0.0) | ((im == 0.0) & down)))


def _canonical(n: int, zeta, theta) -> tuple[complex, np.ndarray]:
    # the canonical representative of the pair (zeta, theta) on S^{n-1}, both negated together
    z, theta = complex(zeta), as_direction(n, theta)
    return (-z, -theta) if _antipodal_flips(np.array([z]), theta)[0] else (z, theta)


@dataclass(frozen=True, eq=False)
class ComponentFamily:
    """Radial components indexed by (k, ell), packed into flat read-only arrays.

    `keys` ascend; component keys[i] owns radii[offsets[i]:offsets[i+1]] and
    the masses at the same positions.  Each owner (`PseudoPositiveMeasure`,
    which the Riccati flow of `iso_flow` also reads, and
    `pseudo_toda.PseudoTodaState`) checks the arrays once, and per-component
    quantities are array expressions on them.
    """

    keys: tuple
    offsets: np.ndarray
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for arr in (self.offsets, self.radii, self.masses):
            arr.setflags(write=False)

    @classmethod
    def pack(cls, components, names: tuple, min_size: int = 0) -> "ComponentFamily":
        """Pack a map (k, ell) -> (radii, masses) in ascending (k, ell) order
        through `from_columns`; a family is returned as it is.
        """
        if isinstance(components, ComponentFamily):
            return components
        vectors = [[_as_vector(name, arr) for name, arr in zip(names, arrays)] for arrays in components.values()]
        keys = [(int(k), int(ell)) for k, ell in components]
        sizes = [[pair[i].size for pair in vectors] for i in (0, 1)]
        flat = [np.concatenate([np.empty(0)] + [pair[i] for pair in vectors]) for i in (0, 1)]
        return cls.from_columns(keys, sizes, flat, names, min_size)

    @classmethod
    def from_columns(cls, keys: list, sizes: list, flat: list, names: tuple, min_size: int) -> "ComponentFamily":
        """The family whose keys[i] owns the next sizes[0][i] radii and
        sizes[1][i] masses of the two arrays `flat`, in ascending key order (a
        repeated key keeps its last entry).  ValueError naming the fields
        `names` for sizes that differ or are below `min_size`, or an entry
        that is not finite, each naming the first component at fault."""
        last = dict(zip(keys, range(len(keys))))
        order = sorted(last)
        counts = np.array(sizes, dtype=np.intp).reshape(2, len(keys))
        take = None if order == keys else [last[key] for key in order]
        kept = counts if take is None else counts[:, take]
        bad = (kept[0] != kept[1]) | (kept[0] < min_size)
        if bad.any():
            raise ValueError(f"{names[0]} and {names[1]} must be matching 1-d arrays in component {order[np.argmax(bad)]}")
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(kept[0], out=offsets[1:])
        if take is not None:
            starts = np.cumsum(counts, axis=1) - counts
            flat = [arr[np.repeat(starts[i, take] - offsets[:-1], kept[0]) + np.arange(offsets[-1])] for i, arr in enumerate(flat)]
        family = cls(tuple(order), offsets, *flat)
        for name, arr in zip(names, flat):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"{name} entries must be finite in component {order[family.owner(np.argmax(bad))]}")
        return family

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

    def owner(self, atom) -> int:
        """Position in `keys` of the component that holds the atom at flat index `atom`."""
        return _segment(self.offsets, atom)

    def component(self, idx) -> tuple:
        """(radii, masses) views of component idx = (k, ell); KeyError if it is absent."""
        i = self.index(idx)
        span = slice(self.offsets[i], self.offsets[i + 1])
        return self.radii[span], self.masses[span]

    def compress(self, keep, masses) -> "ComponentFamily":
        """The atoms where `keep` holds, with `masses` for their masses; a component left empty drops."""
        counts = np.diff(np.concatenate([[0], np.cumsum(keep)])[self.offsets])
        keys = tuple(itertools.compress(self.keys, counts.tolist()))
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
        for k, lo, hi in self._degree_spans:
            out[lo:hi] = base[lo:hi] ** (k + shift)
        return out

    @cached_property
    def _degree_spans(self) -> list:
        # (k, first atom, end) of the atoms of degree k per distinct degree k:
        # the keys ascend, so the atoms of one degree are contiguous
        ks, first = np.unique(self.degrees, return_index=True)
        bounds = self.offsets[first].tolist() + [int(self.offsets[-1])]
        return list(zip(ks.tolist(), bounds, bounds[1:]))


class PseudoPositiveMeasure:
    """Sparse family of nonnegative radial component measures indexed by (k, ell).

    Absent indices mean a zero component.  Every stored component lives on
    the half-line (atoms >= 0).  `components` maps (k, ell) -> (atoms,
    weights), or is a family packed with the field names `_FIELDS`; each
    component is checked, sorted and merged as a `DiscreteMeasure` of its
    own.
    """

    def __init__(self, n: int, components):
        raw = ComponentFamily.pack(components, _FIELDS)
        atoms, weights, offsets = _sorted_atoms(raw.radii, raw.masses, raw.offsets, half_line=True, keys=raw.keys)
        family = ComponentFamily(raw.keys, offsets, atoms, weights)
        check_indices(n, family.keys)
        self.n, self.family = int(n), family

    @property
    def support_radius(self) -> float:
        return max(0.0, float(self.family.radii.max())) if self.family.radii.size else 0.0

    def truncated(self, k_max: int) -> "PseudoPositiveMeasure":
        """The components of degree <= k_max; self if none is above."""
        fam = self.family
        count = int(np.sum(fam.degrees <= k_max))
        if count == len(fam.keys):
            return self
        head = ComponentFamily(fam.keys[:count], fam.offsets[: count + 1], *(a[: fam.offsets[count]] for a in (fam.radii, fam.masses)))
        out = object.__new__(PseudoPositiveMeasure)  # a prefix of checked components: nothing to check again
        out.n, out.family = self.n, head
        return out


def _u(zeta, dots, r2):
    """u = 1 - 2<theta,x>/zeta + |x|^2/zeta^2 elementwise, zeta, dots = <theta,x> and r2 = |x|^2 broadcasting."""
    return 1.0 - np.asarray(2.0 * dots, dtype=complex) / zeta + r2 / zeta**2  # complex once, not per zeta


def _radical(n: int, u):
    """u^{n/2}: u for n = 2, and u sqrt(u) = exp(1.5 Log u), the principal power, for n = 3."""
    return u if n == 2 else u * np.sqrt(u)


def _kernel(n: int, zeta, dots, r2):
    """Closed-form kernel zeta^{-1} u^{-n/2}, its arguments broadcasting as in `_u`."""
    return 1.0 / (_radical(n, _u(zeta, dots, r2)) * zeta)


@lru_cache(maxsize=None)
def _degrees(n: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    # degrees 0..k_max and the harmonic dimensions d_k, read-only and shared
    k = np.arange(k_max + 1)
    d_k = np.array([float(dim_harmonics(n, kk)) for kk in range(k_max + 1)])
    k.setflags(write=False)
    d_k.setflags(write=False)
    return k, d_k


def hua_kernel(zeta, theta, x, k_max: int) -> complex:
    """Harmonic expansion of the reproducing kernel, truncated at degree k_max.

    The degree-k term is (|x|/zeta)^k sum_l Y_{k,l}(theta) Y_{k,l}(x/|x|).
    By the addition theorem the sum over l is d_k G_k(c), c = <theta, x>/|x|,
    with G_k = P_k (Legendre) on S^2, where d_k G_k = (2k+1) P_k, and
    G_k = T_k (Chebyshev) on S^1, where d_k G_k = 2 T_k = 2 cos(k phi) for
    k >= 1.  All G_k(c) come from one three-term recurrence over the
    degrees (`_zonal`).  Requires |zeta| > |x| (the convergence region);
    the geometric tail left off is bounded by `hua_tail_bound`.
    """
    n = np.size(theta)
    z, theta = _canonical(n, zeta, theta)
    xs = np.asarray(x, dtype=float).tolist()
    if len(xs) != n:
        raise ValueError(f"x must have shape ({n},)")
    r = math.hypot(*xs)
    if abs(z) <= r:
        raise DivergenceRegionError(f"series requires |zeta| > |x|; got {abs(z)} <= {r}")
    acc = 1.0
    if r != 0.0:
        c = min(max(sum(map(operator.mul, theta.tolist(), xs)) / r, -1.0), 1.0)
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
        # kept in ascending (j, k, ell) order, the order of every sum over the terms
        if any(j < 0 for j, _, _ in self.terms):
            raise ValueError("radial exponent j must be nonnegative")
        clean = dict(sorted(((int(j), int(k), int(ell)), float(coeff)) for (j, k, ell), coeff in self.terms.items()))
        check_indices(self.n, [key[1:] for key in clean])
        object.__setattr__(self, "terms", clean)


def _quadric_sum(terms: dict, z: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # sum of coeff zeta^{2j+k} Y_{k,l} over the terms in ascending (j, k, ell)
    # order, ys[..., i] holding term i's Y_{k,l}
    total = np.zeros(np.broadcast_shapes(z.shape, ys.shape[:-1]), dtype=complex)
    for i, ((j, k, _), coeff) in enumerate(terms.items()):
        total += coeff * z ** (2 * j + k) * ys[..., i]
    return total


def almansi_eval_many(polys, points) -> np.ndarray:
    """poly(x) of every (poly, x) pair, all polynomials of one dimension n.

    Every term's |x|^k Y_{k,l}(x/|x|) at every point comes from one
    `solid_harmonic` table over the distinct (k, l); each value then sums
    (coeff * |x|^{2j}) * Y over its terms in ascending (j, k, ell) order.
    """
    dims = {poly.n for poly in polys}
    if len(dims) != 1:
        raise ValueError(f"need polynomials of one dimension n, got {sorted(dims)}")
    n = dims.pop()
    xs = [np.asarray(x, dtype=float) for x in points]
    if len(xs) != len(polys) or any(x.shape != (n,) for x in xs):
        raise ValueError(f"need one point of shape ({n},) per polynomial")
    keys = sorted({key[1:] for poly in polys for key in poly.terms})
    column = {key: i for i, key in enumerate(keys)}
    out = []
    for poly, xv, solid in zip(polys, xs, solid_harmonic(n, keys, np.array(xs)).tolist()):
        r2 = float(xv @ xv)
        total = 0.0
        for (j, k, ell), coeff in poly.terms.items():
            total += coeff * r2**j * solid[column[k, ell]]
        out.append(total)
    return np.array(out)


@lru_cache(maxsize=256)
def _node_harmonics(n: int, degree: int, keys: tuple) -> np.ndarray:
    # Y_{k,l} of each (k, l) in `keys`, indices a polynomial has checked, at
    # the nodes of sphere_nodes(n, degree): read-only (nodes, len(keys)), the
    # table one reproduction needs and no more
    ks, ells = np.array(keys, dtype=int).reshape(-1, 2).T
    table = _harmonic_core(n, ks, ells, sphere_nodes(n, degree)[0])
    table.setflags(write=False)
    return table


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
    depend on how the two rules' node counts relate.  The polynomial checked
    its harmonic indices, so its Y_{k,l} at the nodes are not checked again;
    they are cached per (n, rule degree, indices).
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (poly.n,):
        raise ValueError(f"x must have shape ({poly.n},)")
    r = math.sqrt(xv @ xv)
    if r >= 1.0:
        raise DivergenceRegionError("reproduction contour is the unit circle; need |x| < 1")
    sphere_degree = max((2 * j + 2 * k for j, k, _ in poly.terms), default=0)
    n_zeta = max((2 * j + k for j, k, _ in poly.terms), default=0) + 1
    while (n_zeta + 1) * (n_zeta + 2 if poly.n == 3 else 2) / 2 * r**n_zeta > 1e-16:
        n_zeta += 1
    pts, wts = sphere_nodes(poly.n, sphere_degree)
    ys = _node_harmonics(poly.n, sphere_degree, tuple(key[1:] for key in poly.terms))
    zeta = np.exp(2j * np.pi * np.arange(n_zeta) / n_zeta)
    kern = _kernel(poly.n, zeta[:, None], (pts @ xv)[None, :], r * r)
    pvals = _quadric_sum(poly.terms, zeta[:, None], ys[None])
    sphere_avg = (kern * pvals) @ wts
    return complex(np.sum(zeta * sphere_avg) / n_zeta)


def _tilde_family(mu: PseudoPositiveMeasure) -> ComponentFamily:
    # pushforward of r^k dmu_{k,l}(r) under rho = r^2 for every component,
    # merged as a DiscreteMeasure of its own: the measure's atoms are sorted
    # and >= 0, so rho is in order already.  An atom at r = 0 with k > 0
    # carries zero tilde weight and drops, and so does a component left
    # without atoms
    fam = mu.family
    with np.errstate(over="ignore"):
        w = fam.masses * fam.degree_powers(fam.radii)
    bad = ~np.isfinite(w)
    if bad.any():
        raise OverflowError(f"the tilde weight w r^k of component {fam.keys[fam.owner(np.argmax(bad))]} overflows")
    kept = fam.compress(w > 0.0, w)
    with np.errstate(over="ignore"):
        rho = kept.radii**2
    bad = ~np.isfinite(rho)
    if bad.any():
        raise OverflowError(f"the tilde atom r^2 of component {kept.keys[kept.owner(np.argmax(bad))]} overflows")
    rho, w, offsets = _merge_coincident(rho, kept.masses, kept.offsets)
    tilde = ComponentFamily(kept.keys, offsets, rho, w)
    bad = ~np.isfinite(tilde.masses)
    if bad.any():
        raise OverflowError(f"the merged tilde weight of component {tilde.keys[tilde.owner(np.argmax(bad))]} overflows")
    return tilde


def _check_outside_support(mu: PseudoPositiveMeasure, zetas: np.ndarray) -> np.ndarray:
    """zeta^2 of every entry of the complex array `zetas`, with the bits of
    Python's z * z.

    The first entry with abs(z) <= the support radius (DivergenceRegionError)
    or abs(z) >= 2^511 (OverflowError), support first, is refused; the error's
    `index` is the entry's.  From |zeta^2| = 2^1022 a term 1/(zeta^2 - rho)
    leaves the normal doubles, and from about 2^1023.5 it reads 0; zeta^2
    itself is finite below 2^511.  A NaN entry fails on zeta^2.
    """
    re, im = zetas.real, zetas.imag
    z2 = np.empty(zetas.shape, dtype=complex)
    radius = mu.support_radius
    with np.errstate(over="ignore", invalid="ignore"):
        z2.real = re * re - im * im
        z2.imag = re * im + im * re
        modulus = np.hypot(re, im)  # np.hypot is Python's abs, np.abs is not
        refused = (modulus <= radius) | ~(modulus < 2.0**511)
    if refused.any():
        i = int(np.argmax(refused))
        z = complex(zetas[i])
        try:
            # Python's abs raises "absolute value too large" past the double
            # range, and of a NaN entry, which fails the test, it may read a stale errno
            if not cmath.isnan(z) and abs(z) <= radius:
                raise DivergenceRegionError(f"transform requires |zeta| > support radius {radius}; got |zeta| = {abs(z)}")
            if np.isfinite(z2[i]):
                raise OverflowError(f"transform requires |zeta| < 2^511; got |zeta| = {abs(z)}")
            raise OverflowError(f"zeta^2 is not finite at zeta = {z}")
        except (DivergenceRegionError, OverflowError) as exc:
            exc.index = i
            raise
    return z2


def _tilde_transforms(tilde: ComponentFamily, z2: np.ndarray) -> np.ndarray:
    # T[i, c] = sum_j w_cj / (z2[i] - rho_cj), the Stieltjes transform of
    # every tilde component at every point, shape (points, components);
    # PoleError at an atom, for the first such component and then point
    diffs = z2[:, None] - tilde.radii
    poles = diffs == 0.0
    if poles.any():
        c = tilde.owner(np.flatnonzero(poles.any(axis=0))[0])
        i = np.flatnonzero(poles[:, tilde.offsets[c] : tilde.offsets[c + 1]].any(axis=1))[0]
        raise PoleError(f"Stieltjes transform evaluated at an atom: {complex(z2[i])}")
    return tilde.block_sums(tilde.masses / diffs)


def markov_stieltjes(mu: PseudoPositiveMeasure, zetas, theta) -> np.ndarray:
    """Transform values sum_{k,l} zeta^{1-k} Y_{k,l}(theta) T_{k,l}(zeta^2)
    at every entry of the 1-d complex array `zetas`, for one direction theta.

    T_{k,l} is the one-dimensional Stieltjes transform of the pushforward of
    r^k dmu_{k,l} under rho = r^2, evaluated at zeta^2; each zeta must pass
    `_check_outside_support`.  Each (zeta, theta) is taken at its canonical
    antipodal representative (`_antipodal_flips`), both negated together.
    The terms have the bits of Python complex arithmetic (see the README).
    """
    theta = as_direction(mu.n, theta)
    zetas = np.asarray(zetas, dtype=complex)
    if zetas.ndim != 1:
        raise ValueError(f"zetas must be a 1-d array, got shape {zetas.shape}")
    flip = _antipodal_flips(zetas, theta)
    zetas = np.where(flip, -zetas, zetas)
    z2 = _check_outside_support(mu, zetas)
    tilde = _tilde_family(mu)
    t_vals = _tilde_transforms(tilde, z2)
    top = tilde.keys[-1][0] if tilde.keys else 0
    powers = np.array([[z ** (1 - k) for k in range(top + 1)] for z in zetas.tolist()], dtype=complex).reshape(zetas.size, top + 1)
    # z ** (1 - k) is NaN only where CPython's binary powering overflowed:
    # |zeta|^{k-1} > 1.8e308, so the power is below 1/1.8e308
    powers[np.isnan(powers)] = 0.0
    powers = powers[:, tilde.degrees]
    ys = harmonic_table(mu.n, tilde.keys, np.where(flip[:, None], -theta, theta))
    u_re = powers.real * ys - powers.imag * 0.0
    u_im = powers.real * 0.0 + powers.imag * ys
    terms = np.zeros((zetas.size, len(tilde.keys) + 1), dtype=complex)
    terms.real[:, 1:] = u_re * t_vals.real - u_im * t_vals.imag
    terms.imag[:, 1:] = u_re * t_vals.imag + u_im * t_vals.real
    return np.cumsum(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class GrowthReport:
    """Fitted constants for the bound int r^k dmu_{k,l} <= C D^k."""

    C: float
    D: float


def growth_condition_check(mu: PseudoPositiveMeasure) -> GrowthReport:
    """Fit the smallest geometric envelope of the degree-k component masses.

    m_k = max_l int r^k dmu_{k,l}; the fit is D = max_k (m_k/C)^{1/k} with
    C = m_0 (the largest m_k when m_0 vanishes), so m_k <= C D^k holds up to
    rounding in the last digits.
    """
    fam = mu.family
    m: dict[int, float] = {}
    for (k, _), val in zip(fam.keys, fam.block_sums(fam.masses * fam.degree_powers(fam.radii)).tolist()):
        m[k] = max(m.get(k, 0.0), val)
    positive = [(k, v) for k, v in m.items() if v > 0.0]
    if not positive:
        return GrowthReport(C=0.0, D=1.0)
    m0 = m.get(0, 0.0)
    c = m0 if m0 > 0.0 else max(v for _, v in positive)
    d = max([(v / c) ** (1.0 / k) for k, v in positive if k >= 1], default=1.0)
    return GrowthReport(C=float(c), D=float(d))


def multi_nevanlinna_check(mu: PseudoPositiveMeasure, idx, n_trunc: int, zeta_list) -> np.ndarray:
    """Residuals of the componentwise moment expansion along a ray in zeta.

    With T(zeta^2) the Stieltjes transform of the (k, l) tilde measure
    (weights w r^k at rho = r^2) and s_j = int r^{k+2j} dmu_{k,l}, the
    residual at each zeta is

        | zeta^{4n+2} ( T(zeta^2) - sum_{j=0}^{2n-1} s_j zeta^{-2j-2} ) - s_{2n} |,

    the truncated-moment limit in z = zeta^2, as the exact remainder
    `moment_1d._moment_remainder` of the component's own atoms (zeros for an
    absent one); OverflowError naming the component and the first zeta at
    which it is not finite.  Each zeta must pass `_check_outside_support`.  Along a ray with Im zeta^2 > 0 (arg zeta^2 =
    pi/2 in the standard setup) the residuals decrease like |zeta|^{-2}.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    k, ell = int(idx[0]), int(idx[1])
    check_indices(mu.n, [(k, ell)])
    zetas = np.asarray(zeta_list, dtype=complex).reshape(-1)
    z2 = _check_outside_support(mu, zetas)
    try:
        radii, masses = mu.family.component((k, ell))
    except KeyError:
        return np.zeros(zetas.size)
    res = _moment_remainder(radii**2, masses * radii**k, n_trunc, z2)
    if not np.isfinite(res).all():
        z = complex(zetas[np.isfinite(res).argmin()])
        raise OverflowError(f"at zeta = {z!r} the moment remainder of component {(k, ell)} of order n = {n_trunc} is not finite")
    return res


def divergent_partial_sums(mu: PseudoPositiveMeasure, n_trunc: int, zeta, theta):
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
    z, theta = _canonical(mu.n, zeta, theta)
    f_val = 0.0 + 0.0j
    g_val = 0.0 + 0.0j
    for i, (k, y_val) in enumerate(zip(fam.degrees.tolist(), harmonic_table(mu.n, fam.keys, theta).tolist())):
        for j in range(2 * n_trunc):
            f_val += moments[j][i] * z ** (-(k + 2 * j)) * y_val
        g_val += moments[-1][i] * z ** (-k) * y_val
    return complex(f_val / z), complex(g_val)
