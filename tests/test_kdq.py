import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from toda_kdq import cli, iso_flow, kdq, pseudo_toda, sphere, verify
from toda_kdq.errors import DivergenceRegionError
from toda_kdq.kdq import (
    AlmansiPolynomial,
    PseudoPositiveMeasure,
    _kernel,
    cauchy_reproduce,
    divergent_partial_sums,
    growth_condition_check,
    hua_kernel,
    hua_tail_bound,
    markov_stieltjes,
    multi_nevanlinna_check,
)
from toda_kdq.moment_1d import DiscreteMeasure, stieltjes_transform
from toda_kdq.toda_1d import _evolved_masses

from test_acceptance import verify_all_keywords

E3 = np.array([0.0, 0.0, 1.0])


def canonical(zeta, theta):
    """The canonical representative of the antipodal pair (zeta, theta), one
    point at a time: flip where Re zeta < 0, else where Im zeta < 0, else (at
    zeta = 0) where theta's first nonzero entry is negative, zeta and theta
    negated together.  `kdq._antipodal_flips` is held against it."""
    z, th = complex(zeta), np.asarray(theta, dtype=float)
    if z.real != 0.0:
        flip = z.real < 0.0
    elif z.imag != 0.0:
        flip = z.imag < 0.0
    else:
        nonzero = th[th != 0.0]
        flip = nonzero.size > 0 and nonzero[0] < 0.0
    return (-z, -th) if flip else (z, th)


def r_pow_n(zeta, theta, x):
    """r(zeta theta - x)^n = zeta^{n-1} / `_kernel` = zeta^n u^{n/2} at the canonical representative."""
    z, th = canonical(zeta, theta)
    x = np.asarray(x, dtype=float)
    return complex(z ** (th.size - 1) / _kernel(th.size, np.complex128(z), float(th @ x), float(x @ x)))


RAY = np.exp(1j * np.pi / 4)  # arg zeta^2 = pi/2


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_point_pair(rng, n, ratio_lo=2.0, ratio_hi=5.0):
    """A kernel-expansion point (zeta, theta) and x with |zeta| >= ratio_lo |x|,
    arg(zeta) anywhere in the canonical half-plane (-pi/2, pi/2]."""
    x = rng.normal(size=n)
    x *= rng.uniform(0.2, 0.5) / np.linalg.norm(x)
    theta = unit(rng.normal(size=n))
    zeta = np.linalg.norm(x) * rng.uniform(ratio_lo, ratio_hi) * np.exp(
        1j * (np.pi / 2 - rng.uniform(0.0, np.pi))
    )
    return complex(zeta), theta, x


def direction(n, azimuth, polar):
    if n == 2:
        return np.array([np.cos(azimuth), np.sin(azimuth)])
    return np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])


def basis_pair(n, k, a, b):
    """sum_l Y_{k,l}(a) Y_{k,l}(b) over an explicit orthonormal basis of degree k.

    The basis is built here, not by `toda_kdq.sphere`: cos/sin on S^1, and on
    S^2 the complex harmonics of `scipy.special.sph_harm_y` scaled to the
    probability measure, with the polar angle taken by arctan2 so that points
    near a pole keep their digits.
    """
    if n == 2:
        if k == 0:
            return 1.0
        alpha, beta = np.arctan2(a[1], a[0]), np.arctan2(b[1], b[0])
        return 2.0 * (np.cos(k * alpha) * np.cos(k * beta) + np.sin(k * alpha) * np.sin(k * beta))
    m = np.arange(-k, k + 1)
    ya = sph_harm_y(k, m, np.arctan2(np.hypot(a[0], a[1]), a[2]), np.arctan2(a[1], a[0]))
    yb = sph_harm_y(k, m, np.arctan2(np.hypot(b[0], b[1]), b[2]), np.arctan2(b[1], b[0]))
    return float(4.0 * np.pi * np.sum(ya * np.conj(yb)).real)


def basis_pair_kernel(zeta, theta, x, k_max):
    """The kernel series with each degree summed over explicit basis pairs.

    zeta/(zeta^2 - |x|^2) sum_k zeta^{-k} |x|^k sum_l Y_{k,l}(theta) Y_{k,l}(x/|x|)
    at the canonical representative, the harmonic expansion as written,
    without the addition theorem.
    """
    xv = np.asarray(x, dtype=float)
    z, theta = canonical(zeta, theta)
    r = float(np.linalg.norm(xv))
    acc = 0.0 + 0.0j
    if r == 0.0:
        acc = 1.0
    else:
        for k in range(k_max + 1):
            acc += z ** (-k) * r**k * basis_pair(theta.size, k, theta, xv / r)
    return complex(z / (z * z - r * r) * acc)


def tilde_measure(atoms, weights, k):
    w = weights * atoms**k
    keep = w > 0.0
    if not np.any(keep):
        return None
    return DiscreteMeasure(atoms[keep] ** 2, w[keep], half_line=True)


def per_point_transform(mu, zeta, theta):
    """The transform at one point, every pushforward and harmonic rebuilt there."""
    z, theta = canonical(zeta, theta)
    total = 0.0 + 0.0j
    for k, ell in mu.family.keys:
        atoms, weights = mu.family.component((k, ell))
        tilde = tilde_measure(atoms, weights, k)
        if tilde is None:
            continue
        t_val = stieltjes_transform(tilde, z * z)
        total += z ** (1 - k) * float(sphere.harmonic_table(mu.n, [(k, ell)], theta)[0]) * t_val
    return complex(total)


def random_measure(rng, n, k_max, lo=0.05, hi=0.95):
    comps = {}
    for k in range(k_max + 1):
        for ell in range(1, sphere.dim_harmonics(n, k) + 1):
            atoms = rng.uniform(lo, hi, size=3)
            comps[(k, ell)] = (atoms, rng.uniform(0.1, 1.0, size=3))
    return PseudoPositiveMeasure(n, comps)


def single_component(n, k, ell, atoms, weights):
    return PseudoPositiveMeasure(
        n, {(k, ell): (atoms, weights)}
    )


def python_complex_transform(mu, zetas, theta):
    """markov_stieltjes as a loop of Python complex numbers over the same
    T_{k,l} and Y_{k,l}: zeta^{1-k} * Y * T summed in ascending (k, l) order."""
    tilde = kdq._tilde_family(mu)
    zs, thetas = zip(*[canonical(z, theta) for z in zetas])
    t_rows = kdq._tilde_transforms(tilde, np.array([z * z for z in zs], dtype=complex)).tolist()
    y_rows = sphere.harmonic_table(mu.n, tilde.keys, np.array(thetas)).tolist()
    totals = []
    for z, ys, ts in zip(zs, y_rows, t_rows):
        total = 0.0 + 0.0j
        for (k, _), y_val, t_val in zip(tilde.keys, ys, ts):
            total += z ** (1 - k) * y_val * t_val
        totals.append(total)
    return totals


def per_point_markov_stieltjes(mu, zetas, theta):
    """`markov_stieltjes` as one `canonical` point per zeta, each checked in
    turn: the values, or (index, error type, message) of the first point refused."""
    points = [canonical(z, theta) for z in zetas]
    radius = mu.support_radius
    for i, (z, _) in enumerate(points):
        try:
            # abs of a NaN entry may raise on a stale errno; NaN fails the test
            if not cmath.isnan(z) and abs(z) <= radius:
                raise DivergenceRegionError(f"transform requires |zeta| > support radius {radius}; got |zeta| = {abs(z)}")
            if not cmath.isfinite(z * z):
                raise OverflowError(f"zeta^2 is not finite at zeta = {z}")
            if abs(z) >= 2.0**511:
                raise OverflowError(f"transform requires |zeta| < 2^511; got |zeta| = {abs(z)}")
        except (DivergenceRegionError, OverflowError) as exc:
            return i, type(exc), str(exc)
    thetas = np.array([th for _, th in points]).reshape(len(points), mu.n)
    tilde = kdq._tilde_family(mu)
    zs = [z for z, _ in points]
    t_vals = kdq._tilde_transforms(tilde, np.array([z * z for z in zs], dtype=complex))
    top = tilde.keys[-1][0] if tilde.keys else 0
    powers = np.array([[z ** (1 - k) for k in range(top + 1)] for z in zs], dtype=complex).reshape(len(zs), top + 1)
    powers = powers[:, tilde.degrees]
    ys = sphere.harmonic_table(mu.n, tilde.keys, thetas)
    u_re = powers.real * ys - powers.imag * 0.0
    u_im = powers.real * 0.0 + powers.imag * ys
    terms = np.zeros((len(zs), len(tilde.keys) + 1), dtype=complex)
    terms.real[:, 1:] = u_re * t_vals.real - u_im * t_vals.imag
    terms.imag[:, 1:] = u_re * t_vals.imag + u_im * t_vals.real
    return np.cumsum(terms, axis=1)[:, -1]


# JSON numbers: floats of any size and integers, some past 2^53
_JSON_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**60), 2**60))


def pack_each_entry(components, names):
    """keys, offsets, radii and masses of `components` packed entry by entry:
    one array per field and entry, the last entry of a key kept."""
    table = {(c["k"], c["ell"]): [np.atleast_1d(np.array(c[name], dtype=float)) for name in names] for c in components}
    keys = tuple(sorted(table))
    offsets = np.cumsum([0] + [table[key][0].size for key in keys])
    return (keys, offsets, *(np.concatenate([np.empty(0)] + [table[key][i] for key in keys]) for i in (0, 1)))


class TestCanonical:
    @staticmethod
    def canonical_pair(zeta, theta):
        # kdq._canonical, which the package applies, with the bits of the rules written out in `canonical`
        got, want = kdq._canonical(len(theta), zeta, theta), canonical(zeta, theta)
        assert repr(got[0]) == repr(want[0]) and got[1].tobytes() == want[1].tobytes()
        return got

    def test_canonicalization(self):
        th = unit([0.3, -0.4, 0.5])
        z1, th1 = self.canonical_pair(1.5 + 0.3j, th)
        z2, th2 = self.canonical_pair(-(1.5 + 0.3j), -th)
        assert z1 == z2 == 1.5 + 0.3j
        assert np.array_equal(th1, th2) and np.array_equal(th1, th)

    def test_imaginary_axis_rule(self):
        th = unit([1.0, 1.0])
        z, th2 = self.canonical_pair(-2j, th)
        assert z == 2j
        assert np.array_equal(th2, -th)

    def test_zero_zeta_hemisphere(self):
        th = unit([-1.0, 0.5, 0.2])
        _, th2 = self.canonical_pair(0.0, th)
        assert th2[0] > 0.0
        assert self.canonical_pair(-0.0, [-0.0, 1.0])[1].tobytes() == np.array([-0.0, 1.0]).tobytes()

    def test_operations_antipodally_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3) * 0.3
        th = unit(rng.normal(size=3))
        zeta = 2.0 + 0.7j
        mu = single_component(3, 1, 1, [0.4], [1.0])
        for z, t in ((zeta, th), (-zeta, -th)):
            assert r_pow_n(z, t, x) == r_pow_n(zeta, th, x)
            assert hua_kernel(z, t, x, 20) == hua_kernel(zeta, th, x, 20)
        for z, t in ((zeta, th), (-zeta, -th)):
            assert markov_stieltjes(mu, [z], t).tobytes() == markov_stieltjes(mu, [zeta], th).tobytes()


class TestAronszajn:
    def test_origin(self):
        th = unit([0.6, 0.8])
        for n, theta in ((2, th), (3, E3)):
            assert r_pow_n(1.3 + 0.4j, theta, np.zeros(n)) == pytest.approx((1.3 + 0.4j) ** n)

    def test_aligned_square(self):
        th = unit([0.6, 0.8])
        s = 0.7
        assert r_pow_n(2.0 + 1.0j, th, s * th) == pytest.approx((2.0 + 1.0j - s) ** 2)

    def test_singularity(self):
        # u = 0 (zeta a root of modulus |x|) is a pole of the closed form
        assert kdq._u(np.complex128(0.5), 0.5, 0.25) == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(_kernel(2, np.complex128(0.5), 0.5, 0.25))

    def test_series_branch_where_the_raw_radicand_flips(self):
        # the principal root of zeta^2 - 2 zeta <theta,x> + |x|^2 gave
        # +0.677486+0.669236i here, the negative of the series
        zeta = 0.1 + 1.0j
        exact = zeta**2 / (zeta - 0.3) ** 3
        assert abs(_kernel(3, np.complex128(zeta), 0.3, 0.09) - exact) <= 1e-14 * abs(exact)

    def test_zero_zeta_has_no_u(self):
        # zeta = 0 has no u, and lies outside the series' region |zeta| > |x|
        for x in (np.zeros(3), 0.3 * E3):
            with np.errstate(divide="ignore", invalid="ignore"):
                assert not np.isfinite(_kernel(3, np.complex128(0.0), float(E3 @ x), float(x @ x)))
            with pytest.raises(DivergenceRegionError):
                hua_kernel(0.0, E3, x, 10)

    def test_roots_have_modulus_x(self):
        # the zeros <theta,x> +- i sqrt(|x|^2 - <theta,x>^2) of u in the module docstring
        rng = np.random.default_rng(1)
        for n in (2, 3):
            x = rng.normal(size=n)
            th = unit(rng.normal(size=n))
            t, r = float(th @ x), float(np.linalg.norm(x))
            s = np.sqrt(r * r - t * t)
            for z in (complex(t, s), complex(t, -s)):
                assert abs(z) == pytest.approx(r, abs=1e-12)
                assert abs(kdq._u(np.complex128(z), t, r * r)) < 1e-12


class TestSingularRoots:
    # the zeros of u = 1 - 2<theta,x>/zeta + |x|^2/zeta^2 in zeta
    def test_origin(self):
        # x = 0: u = 1 at every zeta, so zeta^2 u has its two roots at 0
        assert (kdq._u(np.array([0.5, 1j, 2.0 + 1.0j]), 0.0, 0.0) == 1.0).all()

    def test_aligned(self):
        # x = 0.9 theta: one double root at zeta = 0.9
        assert abs(kdq._u(np.complex128(0.9), 0.9, 0.81)) < 1e-15

    def test_orthogonal(self):
        # <theta,x> = 0 and |x| = 1: the roots +-i
        assert (kdq._u(np.array([1j, -1j]), 0.0, 1.0) == 0.0).all()


class TestHuaKernel:
    def test_origin_value(self):
        assert hua_kernel(1.7 - 0.3j, E3, np.zeros(3), 10) == pytest.approx(1.0 / (1.7 - 0.3j))

    def test_aligned_n2_geometric(self):
        th = unit([np.cos(0.4), np.sin(0.4)])
        zeta, s = 1.9 + 0.2j, 0.5
        val = hua_kernel(zeta, th, s * th, 60)
        assert val == pytest.approx(zeta / (zeta - s) ** 2, abs=1e-12)

    def test_aligned_n3_geometric(self):
        zeta, s = 2.1 + 0.1j, 0.6
        val = hua_kernel(zeta, E3, s * E3, 60)
        assert val == pytest.approx(zeta**2 / (zeta - s) ** 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_series_vs_closed_form_within_tail(self, n):
        rng = np.random.default_rng(2)
        for _ in range(25):
            zeta, theta, x = random_point_pair(rng, n)
            series = hua_kernel(zeta, theta, x, 40)
            closed = _kernel(n, np.complex128(zeta), float(theta @ x), float(x @ x))
            bound = hua_tail_bound(n, zeta, x, 40)
            assert abs(series - closed) <= bound + 1e-12

    def test_divergence_region(self):
        with pytest.raises(DivergenceRegionError):
            hua_kernel(0.5, E3, np.array([0.0, 0.0, 0.9]), 10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        k_max=st.integers(0, 60),
        angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 4),
        ratio=st.floats(0.0, 0.9),
        modulus=st.floats(0.5, 3.0),
        arg=st.floats(-np.pi, np.pi),
    )
    def test_matches_basis_pair_oracle(self, n, k_max, angles, ratio, modulus, arg):
        theta = direction(n, angles[0], angles[1])
        x = ratio * modulus * direction(n, angles[2], angles[3])
        zeta = complex(modulus * np.exp(1j * arg))
        scale = abs(zeta / (zeta**2 - float(x @ x))) * sum(
            sphere.dim_harmonics(n, k) * ratio**k for k in range(k_max + 1)
        )
        assert abs(hua_kernel(zeta, theta, x, k_max) - basis_pair_kernel(zeta, theta, x, k_max)) <= 1e-13 * scale

    def test_tail_bound_dominates_truncation_jump(self):
        rng = np.random.default_rng(3)
        zeta, theta, x = random_point_pair(rng, 3)
        coarse = hua_kernel(zeta, theta, x, 10)
        fine = hua_kernel(zeta, theta, x, 60)
        assert abs(coarse - fine) <= hua_tail_bound(3, zeta, x, 10)


class TestKernelGrid:
    @pytest.mark.parametrize("n", [2, 3])
    def test_radical_matches_principal_power(self, n):
        rng = np.random.default_rng(11)
        pts, _ = sphere.sphere_nodes(n, 30)
        for _ in range(5):
            x = rng.normal(size=n)
            x *= rng.uniform(0.05, 0.95) / np.linalg.norm(x)
            zeta = rng.uniform(1.0, 2.0) * np.exp(2j * np.pi * (np.arange(64) + rng.uniform()) / 64)
            dots, r2 = pts @ x, float(x @ x)
            z = zeta[:, None]
            u = 1.0 - 2.0 * dots[None, :] / z + r2 / z**2
            power = u ** (-0.5 * n) / z
            grid = _kernel(n, zeta[:, None], dots[None, :], r2)
            assert np.max(np.abs(grid - power) / np.abs(power)) <= 1e-14


def reference_eval(poly, x):
    # AlmansiPolynomial.eval written out term by term, one solid_harmonic
    # table per polynomial
    xv = np.asarray(x, dtype=float)
    r2 = float(xv @ xv)
    total = 0.0
    solid = sphere.solid_harmonic(poly.n, [key[1:] for key in poly.terms], xv).tolist()
    for ((j, _, _), coeff), y_val in zip(poly.terms.items(), solid):
        total += coeff * r2**j * y_val
    return total


def reference_cauchy(poly, x):
    # cauchy_reproduce written out with the checked harmonic_table, the
    # norm, a fresh contour and the float kernel numerator
    xv = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(xv))
    sphere_degree = max((2 * j + 2 * k for j, k, _ in poly.terms), default=0)
    n_zeta = max((2 * j + k for j, k, _ in poly.terms), default=0) + 1
    while (n_zeta + 1) * (n_zeta + 2 if poly.n == 3 else 2) / 2 * r**n_zeta > 1e-16:
        n_zeta += 1
    pts, wts = sphere.sphere_nodes(poly.n, sphere_degree)
    zeta = np.exp(2j * np.pi * np.arange(n_zeta) / n_zeta)
    z = zeta[:, None]
    u = 1.0 - 2.0 * (pts @ xv)[None, :] / z + r * r / z**2
    kern = 1.0 / (u * z) if poly.n == 2 else 1.0 / (u * np.sqrt(u) * z)
    ys = sphere.harmonic_table(poly.n, [key[1:] for key in poly.terms], pts[None, :, :])
    pvals = np.zeros(np.broadcast_shapes(z.shape, ys.shape[:-1]), dtype=complex)
    for i, ((j, k, _), coeff) in enumerate(poly.terms.items()):
        pvals += coeff * z ** (2 * j + k) * ys[..., i]
    return complex(np.sum(zeta * ((kern * pvals) @ wts)) / n_zeta)


class TestCauchyReproduce:
    def test_constant(self):
        poly = AlmansiPolynomial(3, {(0, 0, 1): 1.0})
        x = np.array([0.2, -0.3, 0.1])
        assert abs(cauchy_reproduce(poly, x) - 1.0) < 1e-10

    def test_radial_square(self):
        poly = AlmansiPolynomial(3, {(1, 0, 1): 1.0})
        x = 0.5 * E3
        assert abs(cauchy_reproduce(poly, x) - 0.25) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_harmonics(self, n):
        rng = np.random.default_rng(4)
        for ell in range(1, sphere.dim_harmonics(n, 1) + 1):
            poly = AlmansiPolynomial(n, {(0, 1, ell): 1.0})
            x = rng.normal(size=n)
            x *= 0.4 / np.linalg.norm(x)
            assert abs(cauchy_reproduce(poly, x) - kdq.almansi_eval_many([poly], [x])[0]) < 1e-8

    def test_mixed_polynomial(self):
        poly = AlmansiPolynomial(2, {(0, 0, 1): 2.0, (1, 0, 1): -1.0, (0, 2, 1): 0.5})
        x = np.array([0.3, 0.2])
        assert abs(cauchy_reproduce(poly, x) - kdq.almansi_eval_many([poly], [x])[0]) < 1e-8

    def test_outside_ball_rejected(self):
        poly = AlmansiPolynomial(2, {(0, 0, 1): 1.0})
        with pytest.raises(DivergenceRegionError):
            cauchy_reproduce(poly, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("offset", range(6, 11))
    def test_verify_seeds_at_rounding_level(self, offset):
        # verify-all's draw at offset 6 and the next four seeds; offset 7 holds
        # the case (n = 2, k = 0, j = 0, |x| = 0.495) where a contour count
        # equal to the S^1 azimuth count read 4.0e-13
        seed = verify_all_keywords(verify.check_kdq_cauchy)["seed"] + offset - 6
        (result,) = verify.check_kdq_cauchy(**verify_all_keywords(verify.check_kdq_cauchy, seed=seed))
        assert result.observed < 1e-14

    @pytest.mark.parametrize("seed", [verify_all_keywords(verify.check_kdq_cauchy)["seed"], 0, 1, 2, 3])
    @pytest.mark.parametrize(
        "k_max, j_max",
        [(sizes["k_max"], sizes["j_max"]) for check, *both in verify.CHECKS if check is verify.check_kdq_cauchy for sizes in both] + [(1, 0)],
    )
    def test_verify_check_equals_reference_loop(self, seed, k_max, j_max):
        # one polynomial, one reference reproduction and one reference direct
        # value per case, over the check's draws at its verify-all and battery
        # sizes and at (1, 0): the check reads the same worst case bit for bit
        rng = np.random.default_rng(seed)
        worst = 0.0
        for n in (2, 3):
            for k in range(k_max + 1):
                for ell in range(1, sphere.dim_harmonics(n, k) + 1):
                    for j in range(j_max + 1):
                        poly = AlmansiPolynomial(n, {(j, k, ell): 1.0})
                        x = verify._inside_ball(rng, n)
                        worst = max(worst, abs(reference_cauchy(poly, x) - reference_eval(poly, x)))
        (result,) = verify.check_kdq_cauchy(seed, k_max, j_max)
        assert result.observed == worst

    @settings(max_examples=50, deadline=None)
    @given(n=st.sampled_from([2, 3]), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_formulas(self, n, count, seed):
        # several terms per polynomial, and points at and near the origin
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(count):
            degrees = rng.integers(0, 4, 3).tolist()
            keys = [(int(rng.integers(0, 3)), k, int(rng.integers(1, sphere.dim_harmonics(n, k) + 1))) for k in degrees]
            polys.append(AlmansiPolynomial(n, {key: rng.normal() for key in keys}))
        points = [unit(rng.normal(size=n)) * rng.choice([0.0, 1e-9, 0.3, 0.8]) for _ in polys]
        for poly, x in zip(polys, points):
            assert cauchy_reproduce(poly, x) == reference_cauchy(poly, x)
            assert kdq.almansi_eval_many([poly], [x])[0] == reference_eval(poly, x)
        values = kdq.almansi_eval_many(polys, points)
        assert values.tobytes() == np.array([reference_eval(p, x) for p, x in zip(polys, points)]).tobytes()

    def test_rejects_mismatched_inputs(self):
        polys = [AlmansiPolynomial(2, {(0, 1, 1): 1.0}), AlmansiPolynomial(3, {(0, 1, 1): 1.0})]
        with pytest.raises(ValueError, match=r"x must have shape \(3,\)"):
            cauchy_reproduce(polys[1], np.zeros(2))
        with pytest.raises(ValueError, match=r"one dimension n, got \[2, 3\]"):
            kdq.almansi_eval_many(polys, [np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match=r"one point of shape \(2,\) per polynomial"):
            kdq.almansi_eval_many(polys[:1], [np.zeros(3)])

    def test_high_degree_caches_only_its_own_columns(self):
        # a monomial of degree 50 on S^2 keeps one column over the 5151 nodes
        # of its degree-100 rule, not the table of every degree up to 50
        poly = AlmansiPolynomial(3, {(0, 50, 51): 1.0})
        x = np.array([0.1, -0.2, 0.15])
        assert abs(cauchy_reproduce(poly, x) - kdq.almansi_eval_many([poly], [x])[0]) < 1e-13
        assert kdq._node_harmonics(3, 100, ((50, 51),)).shape == (5151, 1)

    @pytest.mark.parametrize(
        "defect, fails, passes",
        [("kernel", 2e-8, 5e-9), ("node-column", 5e-8, 2e-8), ("radical", 1e-10, 5e-11), ("raw-radicand", None, None)],
    )
    def test_verify_check_fails_on_a_skew(self, monkeypatch, defect, fails, passes):
        # a relative skew of the kernel of every case, or of the cached node
        # column of Y_{1,2} on S^2, fails kdq-cauchy-reproduction; a skew of
        # the shared radical u^{n/2}, or an earlier closed form, the
        # principal root of the raw radicand, fails
        # kdq-kernel-series-vs-closed; the README records the smallest
        # failing skew of 1, 2, 5 per decade
        kernel, table, radical = kdq._kernel, kdq._node_harmonics, kdq._radical

        def raw_radicand(n, zeta, dots, r2):
            w = zeta * zeta - 2.0 * zeta * dots + r2
            return zeta ** (n - 1) / (w if n == 2 else np.sqrt(w) ** 3)

        def observed(skew):
            if defect == "kernel":
                monkeypatch.setattr(kdq, "_kernel", lambda *args: kernel(*args) * (1.0 + skew))
            elif defect == "node-column":

                def skewed(n, degree, keys):
                    out = table(n, degree, keys).copy()
                    if n == 3:
                        out[:, [key == (1, 2) for key in keys]] *= 1.0 + skew
                    return out

                monkeypatch.setattr(kdq, "_node_harmonics", skewed)
            elif defect == "radical":
                monkeypatch.setattr(kdq, "_radical", lambda n, u: radical(n, u) * (1.0 + skew))
            else:
                monkeypatch.setattr(kdq, "_kernel", raw_radicand)
            check = verify.check_kdq_cauchy if defect in ("kernel", "node-column") else verify.check_kdq_kernel
            (result,) = check(**verify_all_keywords(check))
            return result.passed

        assert not observed(fails)
        if passes is not None:
            assert observed(passes)

    def test_far_point_and_high_degree(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            poly = AlmansiPolynomial(n, {(3, 4, 1): 1.0, (0, 6, 2): -0.5, (1, 0, 1): 2.0})
            x = rng.normal(size=n)
            x *= 0.9 / np.linalg.norm(x)
            assert abs(cauchy_reproduce(poly, x) - kdq.almansi_eval_many([poly], [x])[0]) < 1e-13


class TestMarkovStieltjes:
    def test_origin_mass(self):
        mu = single_component(3, 0, 1, [0.0], [1.0])
        zeta = 2.0 + 0.5j
        assert markov_stieltjes(mu, [zeta], E3)[0] == pytest.approx(1.0 / zeta)

    def test_unit_radius_atom(self):
        mu = single_component(3, 0, 1, [1.0], [1.0])
        zeta = 2.0 + 0.5j
        assert markov_stieltjes(mu, [zeta], E3)[0] == pytest.approx(zeta / (zeta**2 - 1.0))

    def test_degree_one_component(self):
        # k=1 term: Y_{1,ell}(theta) * r/(zeta^2 - r^2) with r = 0.5
        mu = single_component(3, 1, 2, [0.5], [1.0])
        zeta = 3.0 + 1.0j
        y_val = float(sphere.harmonic_table(3, [(1, 2)], E3)[0])
        expected = y_val * 0.5 / (zeta**2 - 0.25)
        assert markov_stieltjes(mu, [zeta], E3)[0] == pytest.approx(expected)

    def test_support_radius_guard(self):
        mu = single_component(3, 0, 1, [1.5], [1.0])
        with pytest.raises(DivergenceRegionError) as exc:
            markov_stieltjes(mu, [2.0, 1.0 + 0.0j], E3)
        assert exc.value.index == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_many_points_match_per_point_sums(self, n):
        rng = np.random.default_rng(13 + n)
        mu = random_measure(rng, n, 5)
        theta = unit(rng.normal(size=n))
        # Re zeta < 0 and Re zeta = 0 move some points to the antipodal theta
        zetas = [2.0 + 0.5j, -1.5 - 0.3j, 3.0j, 1.1 - 1.2j, -2.5 + 0.1j]
        many = markov_stieltjes(mu, zetas, theta)
        assert many.dtype == complex and many.shape == (len(zetas),)
        assert np.array_equal(many, [per_point_transform(mu, z, theta) for z in zetas])
        assert np.array_equal(many, [markov_stieltjes(mu, [z], theta)[0] for z in zetas])
        assert markov_stieltjes(mu, [], theta).shape == (0,)

    def test_json_roundtrip(self):
        # a JSON measure reads as the measure built from its map
        mu = PseudoPositiveMeasure(2, {(0, 1): ([0.3], [1.0]), (2, 2): ([0.8, 0.1], [0.5, 0.5])})
        components = [
            {"k": 2, "ell": 2, "atoms": [0.8, 0.1], "weights": [0.5, 0.5]},
            {"k": 0, "ell": 1, "atoms": 0.3, "weights": [1]},
        ]
        back = cli._read_measure({"n": 2, "k_max": 5, "components": components})
        assert back.n == 2 and max(k for k, _ in back.family.keys) <= 5
        assert back.family.keys == mu.family.keys
        for name in ("offsets", "radii", "masses"):
            assert getattr(back.family, name).tobytes() == getattr(mu.family, name).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        k_max=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        on_axis=st.booleans(),
        args=st.lists(st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi, 0.3, -1.1, 2.0]), min_size=1, max_size=4),
    )
    def test_equals_python_complex_sums(self, n, k_max, seed, on_axis, args):
        # the array passes give the bits of a loop of Python complex numbers;
        # an axis theta and zeta on the real or imaginary axis give terms
        # that are 0.0 and -0.0
        rng = np.random.default_rng(seed)
        family = random_measure(rng, n, k_max, 0.0, 0.9).family
        comps = {key: family.component(key) for key in family.keys if rng.uniform() < 0.8}
        mu = PseudoPositiveMeasure(n, comps)
        theta = np.eye(n)[rng.integers(n)] * rng.choice([-1.0, 1.0]) if on_axis else unit(rng.normal(size=n))
        zetas = [rng.uniform(1.0, 3.0) * np.exp(1j * a) for a in args]
        many = markov_stieltjes(mu, zetas, theta)
        assert many.tobytes() == np.array(python_complex_transform(mu, zetas, theta), dtype=complex).tobytes()
        assert markov_stieltjes(mu, zetas[:1], theta).tobytes() == many[:1].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        k_max=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        on_axis=st.booleans(),
        entries=st.lists(
            st.one_of(
                st.tuples(st.floats(1.0, 3.0), st.floats(-np.pi, np.pi)),  # Re zeta of either sign
                st.sampled_from(["+0-i", "-0-i", "+0+i", "zero", "radius", "-radius", "-i radius", "near-overflow", "overflow", "huge", "nan"]),
            ),
            max_size=5,
        ),
    )
    def test_array_path_has_the_per_point_bits(self, n, k_max, seed, on_axis, entries):
        # the flips, checks and terms on arrays against one `canonical` point per zeta:
        # the same values bit for bit, or the same first refused entry and message
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n, k_max, 0.0, 0.9)
        r = mu.support_radius
        special = {
            "+0-i": complex(0.0, -2.0), "-0-i": complex(-0.0, -2.0), "+0+i": complex(-0.0, 2.0), "zero": complex(-0.0, 0.0),
            "radius": complex(r, 0.0), "-radius": complex(-r, 0.0), "-i radius": complex(0.0, -r),
            "near-overflow": complex(-1.1031054780462262e154, 6.026292692169782e153),  # |zeta| >= 2^511, zeta^2 finite
            "overflow": complex(-1e200, 1e200), "huge": complex(1.7e308, -1.7e308), "nan": complex(float("nan"), 1.0),
        }
        zetas = [special[e] if type(e) is str else e[0] * cmath.exp(1j * e[1]) for e in entries]
        theta = np.eye(n)[rng.integers(n)] * rng.choice([-1.0, 1.0]) if on_axis else unit(rng.normal(size=n))
        want = per_point_markov_stieltjes(mu, zetas, theta)
        try:
            got = markov_stieltjes(mu, zetas, theta)
        except (DivergenceRegionError, OverflowError) as exc:
            got = exc.index, type(exc), str(exc)
        if type(want) is tuple:
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("theta", [[1.0, -0.0], [-1.0, 0.0], [1.0, 0.0]])
    def test_terms_of_zero(self, theta):
        # sin(k phi) is 0.0 or -0.0 on the axis, so each point's one term has
        # zero parts, some -0.0: Python's sum starts at 0.0 + 0.0j, whose
        # 0.0 + -0.0 = 0.0, and the array sum starts there too
        mu = single_component(2, 1, 2, [0.5], [1.0])
        zetas = [2.0, 2.0 + 1j, 2.0 - 1j, 2j, 0.5 + 2j]
        want = np.array(python_complex_transform(mu, zetas, theta), dtype=complex)
        assert markov_stieltjes(mu, zetas, theta).tobytes() == want.tobytes()
        assert np.array([markov_stieltjes(mu, [z], theta)[0] for z in zetas]).tobytes() == want.tobytes()


class TestComponentsReader:
    @pytest.mark.parametrize(
        "components, message",
        [
            ({"k": 0}, "components must be a JSON list, got {'k': 0}"),
            (
                # entry 0 holds the fields of both schemas
                [dict(k=0, ell=1, atoms=[0.5], weights=[1.0], lambdas=[0.5], masses_tilde=[1.0]), [0, 1]],
                "components[1] must be a JSON object, got [0, 1]",
            ),
        ],
    )
    def test_names_the_list_or_the_entry(self, components, message):
        for read in (cli._read_measure, cli._read_pseudo_state):
            with pytest.raises(TypeError) as exc:
                read({"n": 3, "components": components})
            assert str(exc.value) == message

    @settings(max_examples=150, deadline=None)
    @given(
        names=st.sampled_from([("atoms", "weights"), ("lambdas", "masses_tilde")]),
        entries=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(1, 3),
                st.lists(st.tuples(_JSON_NUMBER, _JSON_NUMBER), max_size=5),
                st.booleans(),
            ),
            max_size=12,
        ),
    )
    def test_one_pass_equals_packing_each_entry(self, names, entries):
        # shuffled entries, repeated keys (the last one kept), empty lists and
        # a lone value written as a bare number
        components = []
        for k, ell, pairs, bare in entries:
            radii, masses = [[pair[i] for pair in pairs] for i in (0, 1)]
            if bare and len(pairs) == 1:
                radii, masses = radii[0], masses[0]
            components.append({"k": k, "ell": ell, names[0]: radii, names[1]: masses})
        family = cli._read_components({"components": components}, names)
        keys, offsets, radii, masses = pack_each_entry(components, names)
        assert family.keys == keys
        assert family.offsets.tobytes() == offsets.tobytes()
        assert family.radii.tobytes() == radii.tobytes()
        assert family.masses.tobytes() == masses.tobytes()

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ({"atoms": [0.5, 10**400], "weights": [1.0, 1.0]}, ValueError, "atoms holds an integer too large for a double"),
            ({"atoms": [[0.5, 1.0]], "weights": [1.0, 1.0]}, ValueError, "atoms must be a 1-d array, got shape (1, 2)"),
            ({"atoms": [0.5], "weights": [None]}, TypeError, "weights must hold JSON numbers only, got weights[0] = None"),
        ],
    )
    def test_names_the_entry_at_fault(self, entry, error, message):
        good = {"k": 0, "ell": 1, "atoms": [0.5], "weights": [1.0]}
        with pytest.raises(error) as exc:
            cli._read_measure({"n": 3, "components": [good, dict(entry, k=1, ell=1)]})
        assert str(exc.value) == f"components[1]: {message}"

    def test_nested_empty_list_reads_as_no_atoms(self):
        family = cli._read_components({"components": [{"k": 0, "ell": 1, "atoms": [[]], "weights": []}]}, ("atoms", "weights"))
        assert family.keys == ((0, 1),) and family.offsets.tolist() == [0, 0]

    def test_degree_above_k_max(self):
        # a k_max >= 0 bounds the degrees, checked by the reader once the
        # measure is built, and the error names the first component above it;
        # an absent or negative k_max bounds nothing
        entries = [{"k": k, "ell": ell, "atoms": [0.5], "weights": [1.0]} for k, ell in [(2, 2), (0, 1), (2, 1)]]
        with pytest.raises(ValueError, match=r"^degree exceeds k_max = 1 in component \(2, 1\)$"):
            cli._read_measure({"n": 3, "k_max": 1, "components": entries})
        for bound in ({"k_max": 2}, {"k_max": -1}, {}):
            assert cli._read_measure({"n": 3, "components": entries, **bound}).family.keys == ((0, 1), (2, 1), (2, 2))


def _refuse(*args, **kwargs):
    raise AssertionError("a derived state went through the ingest checks again")


class TestDerivedStates:
    """`evolve` and `truncated` reuse the parent's checked family: none of
    the ingest checks runs again, and the arrays are those of a state built
    through the constructor.  `iso_flow.monotonicity_check` reads the
    measure's family as it is."""

    def test_no_ingest_checks(self, monkeypatch):
        rng = np.random.default_rng(17)
        comps = {(k, 1): (np.sort(rng.uniform(0.2, 1.2, 4)), rng.dirichlet(np.ones(4))) for k in range(3)}
        state = pseudo_toda.PseudoTodaState(3, comps)
        mu = PseudoPositiveMeasure(3, comps)
        # the masses at t = 0.7 of the Toda flow, component by component
        toda = {key: (lam, _evolved_masses(m, lam**2, 0.7)) for key, (lam, m) in comps.items()}
        head = {key: comps[key] for key in [(0, 1), (1, 1)]}
        cases = [
            (lambda: pseudo_toda.evolve(state, 0.7), state, pseudo_toda.PseudoTodaState(3, toda, 0.7)),
            (lambda: mu.truncated(1), mu, PseudoPositiveMeasure(3, head)),
        ]
        for name in ("check_indices", "_sorted_atoms"):
            monkeypatch.setattr(kdq, name, _refuse)
        for name in ("check_indices", "_toda_family"):
            monkeypatch.setattr(pseudo_toda, name, _refuse)
        monkeypatch.setattr(kdq.ComponentFamily, "pack", _refuse)
        for run, parent, want in cases:
            got = run()
            assert vars(got).keys() == vars(want).keys()
            assert all(getattr(got, name) == getattr(want, name) for name in vars(want) if name != "family")
            assert got.family.keys == want.family.keys
            for field in ("offsets", "radii", "masses"):
                assert getattr(got.family, field).tobytes() == getattr(want.family, field).tobytes()
            assert np.shares_memory(got.family.radii, parent.family.radii)
        assert iso_flow.monotonicity_check(mu, [0.0, 1.0]).values.shape == (2, 3)


class TestGrowthCondition:
    def test_unit_atoms(self):
        comps = {}
        for k in range(3):
            for ell in range(1, sphere.dim_harmonics(3, k) + 1):
                comps[(k, ell)] = ([1.0], [1.0])
        rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
        assert rep.C == pytest.approx(1.0, abs=1e-10)
        assert rep.D == pytest.approx(1.0, abs=1e-10)

    def test_c_is_m0_and_envelope_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            family = random_measure(rng, 3, 6, 0.1, 2.0).family
            comps = {key: family.component(key) for key in family.keys if rng.uniform() < 0.7}
            mu = PseudoPositiveMeasure(3, comps)
            rep = growth_condition_check(mu)
            moments = {}  # m_k = max_l int r^k dmu_{k,l}
            for k, ell in mu.family.keys:
                atoms, weights = mu.family.component((k, ell))
                moments[k] = max(moments.get(k, 0.0), float(np.sum(weights * atoms**k)))
            assert rep.C == moments.get(0, max(moments.values()))
            for k, m_k in moments.items():
                assert m_k <= rep.C * rep.D**k * (1.0 + 1e-12)

    def test_empty_measure(self):
        rep = growth_condition_check(PseudoPositiveMeasure(3, {}))
        assert rep.C == 0.0

    def test_geometric_radius(self):
        comps = {(k, 1): ([2.0], [1.0]) for k in range(6)}
        rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
        assert rep.D == pytest.approx(2.0, rel=1e-9)


class TestProjection:
    def test_projection_identity(self):
        # zeta^{k-1} times the sphere average of mu_hat(zeta, .) Y_{k,l}, under a
        # rule exact for the products of Y_{k,l} with every stored degree,
        # equals the 1-d transform of r^k dmu_{k,l} at zeta^2
        rng = np.random.default_rng(5)
        comps = {}
        for k in range(3):
            for ell in range(1, sphere.dim_harmonics(3, k) + 1):
                atoms = np.sort(rng.uniform(0.1, 0.9, size=2))
                w = rng.uniform(0.2, 1.0, size=2)
                comps[(k, ell)] = (atoms, w)
        mu = PseudoPositiveMeasure(3, comps)
        zeta = 4.0 * RAY
        pts, wts = sphere.sphere_nodes(3, 2 + 2 + 2)
        values = np.array([markov_stieltjes(mu, [zeta], th)[0] for th in pts])
        for idx in ((0, 1), (1, 2), (2, 4)):
            atoms, weights = mu.family.component(idx)
            tilde = DiscreteMeasure(atoms**2, weights * atoms ** idx[0], half_line=True)
            direct = stieltjes_transform(tilde, zeta**2)
            projected = zeta ** (idx[0] - 1) * np.sum(wts * values * sphere.harmonic_table(3, [idx], pts)[:, 0])
            assert abs(projected - direct) < 1e-10

    def test_verify_check_fails_on_one_skewed_harmonic(self, monkeypatch):
        # Y_{2,3} on S^2 off by 1e-9 fails both sphere checks of verify-all
        table = sphere.harmonic_table

        def skewed(n, keys, theta):
            vals = table(n, keys, theta)
            if n == 3:
                vals = vals * np.where([tuple(key) == (2, 3) for key in keys], 1.0 + 1e-9, 1.0)
            return vals

        monkeypatch.setattr(sphere, "harmonic_table", skewed)
        (orthonormality,) = verify.check_sphere_orthonormality(**verify_all_keywords(verify.check_sphere_orthonormality))
        (addition,) = verify.check_sphere_addition(**verify_all_keywords(verify.check_sphere_addition))
        assert not orthonormality.passed and not addition.passed


class TestMultiNevanlinna:
    def test_zero_measure(self):
        mu = PseudoPositiveMeasure(3, {})
        res = multi_nevanlinna_check(mu, (0, 1), 1, [4.0 * RAY, 8.0 * RAY])
        assert np.all(res == 0.0)

    def test_single_atom_residual_vanishes(self):
        mu = single_component(3, 0, 1, [1.0], [1.0])
        res = multi_nevanlinna_check(mu, (0, 1), 1, [4.0 * RAY, 8.0 * RAY, 16.0 * RAY])
        assert np.all(np.diff(res) < 0.0)
        # closed form: residual = 1/|zeta^2 - 1|
        for m, r in zip((4.0, 8.0, 16.0), res):
            assert r == pytest.approx(1.0 / abs((m * RAY) ** 2 - 1.0), rel=1e-8)

    def test_decay_order_two(self):
        mu = single_component(3, 0, 1, [0.5], [1.0])
        res = multi_nevanlinna_check(mu, (0, 1), 1, [4.0 * RAY, 8.0 * RAY, 16.0 * RAY])
        ratios = res[:-1] / res[1:]
        assert np.all((ratios > 3.5) & (ratios < 4.5))
        assert res[-1] <= 1e-4

    def test_verify_line_fails_on_a_skew(self, monkeypatch):
        # a relative skew of the tilde atoms rho = r^2 that kdq hands the
        # moment remainder fails kdq-multi-nevanlinna from 0.2 up, and 0.1
        # passes: the README records the smallest failing skew of 1, 2, 5 per
        # decade.  The residual grows like (1 + skew)^3, against a
        # tolerance 1.6 times the reading
        remainder = kdq._moment_remainder

        def observed(skew):
            monkeypatch.setattr(kdq, "_moment_remainder", lambda atoms, weights, n, z: remainder(atoms * (1.0 + skew), weights, n, z))
            (result,) = verify.check_kdq_multi_nevanlinna(**verify_all_keywords(verify.check_kdq_multi_nevanlinna))
            assert result.name == "kdq-multi-nevanlinna"
            return result.passed

        assert not observed(0.2)
        assert observed(0.1)

def per_key_partial_sums(mu, n_trunc, zeta, theta):
    """divergent_partial_sums one key at a time: one harmonic and one moment sum per key and j."""
    z, theta = canonical(zeta, theta)
    f_val = g_val = 0.0 + 0.0j
    for k, ell in mu.family.keys:
        atoms, weights = mu.family.component((k, ell))
        y_val = float(sphere.harmonic_table(mu.n, [(k, ell)], theta)[0])
        moments = [float(np.sum(weights * atoms ** (k + 2 * j))) if atoms.size else 0.0 for j in range(2 * n_trunc + 1)]
        for j in range(2 * n_trunc):
            f_val += moments[j] * z ** (-(k + 2 * j)) * y_val
        g_val += moments[-1] * z ** (-k) * y_val
    return complex(f_val / z), complex(g_val)


class TestDivergentPartialSums:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        k_max=st.integers(0, 5),
        n_trunc=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_key_loop(self, n, k_max, n_trunc, seed):
        # bit for bit, components of 0 to 3 atoms with some keys absent
        rng = np.random.default_rng(seed)
        comps = {}
        for k in range(k_max + 1):
            for ell in range(1, sphere.dim_harmonics(n, k) + 1):
                if rng.random() < 0.7:
                    size = int(rng.integers(0, 4))
                    comps[(k, ell)] = (rng.uniform(0.0, 1.5, size), rng.uniform(0.0, 1.0, size))
        mu = PseudoPositiveMeasure(n, comps)
        zeta, theta = rng.uniform(1.0, 5.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)), unit(rng.normal(size=n))
        assert divergent_partial_sums(mu, n_trunc, zeta, theta) == per_key_partial_sums(mu, n_trunc, zeta, theta)

    def test_n_zero(self):
        mu = single_component(3, 0, 1, [0.7], [1.0])
        f0, g0 = divergent_partial_sums(mu, 0, 3.0 * RAY, E3)
        assert f0 == 0.0
        # s_{0,1;0} is the mass 1.0 of the one atom
        assert g0 == pytest.approx(sphere.harmonic_table(3, [(0, 1)], E3)[0])

    def test_f_is_geometric_truncation(self):
        mu = single_component(3, 0, 1, [0.5], [1.0])
        z = complex(4.0 * RAY)
        f2, _ = divergent_partial_sums(mu, 2, z, E3)
        expected = sum(0.5 ** (2 * j) * z ** (-2 * j - 1) for j in range(4))
        assert f2 == pytest.approx(expected)

    def test_combined_summation_check(self):
        rng = np.random.default_rng(6)
        comps = {}
        for k in range(3):
            for ell in range(1, sphere.dim_harmonics(3, k) + 1):
                comps[(k, ell)] = (np.sort(rng.uniform(0.2, 0.9, 2)), rng.uniform(0.2, 1.0, 2))
        mu = PseudoPositiveMeasure(3, comps)
        th = unit(rng.normal(size=3))
        prev = np.inf
        for mod in (4.0, 8.0, 16.0):
            zeta = complex(mod * RAY)
            mh = markov_stieltjes(mu, [zeta], th)[0]
            f1, g1 = divergent_partial_sums(mu, 1, zeta, th)
            gap = abs(zeta**5 * (mh - f1) - g1)
            assert gap < prev
            prev = gap
        assert prev < 1e-2


def per_key_solid(n, key, x):
    """|x|^k Y_{k,ell}(x/|x|) at one point from a one-key table, in the
    arithmetic of `sphere.solid_harmonic` for a single key."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(pts, axis=-1)
    if not r[0] > 0.0:
        return float(key[0] == 0)
    return float((r ** key[0] * sphere.harmonic_table(n, [key], pts / r[:, None])[:, 0])[0])


def eval_kdq(poly, zeta, theta):
    """poly on the quadric, zeta and the node axis of theta broadcasting:
    `kdq._quadric_sum`, the sum `cauchy_reproduce` integrates, over one
    harmonic table of the terms' (k, l)."""
    ys = sphere.harmonic_table(poly.n, [key[1:] for key in poly.terms], np.asarray(theta, dtype=float))
    return kdq._quadric_sum(poly.terms, np.asarray(zeta, dtype=complex), ys)


def per_key_almansi(poly, x, zeta, theta):
    """`AlmansiPolynomial.eval` at x and `eval_kdq` at (zeta, theta), one term
    and one one-key harmonic table at a time, in ascending (j, k, ell)."""
    xv = np.asarray(x, dtype=float)
    r2 = float(xv @ xv)
    value = 0.0
    z = np.asarray(zeta, dtype=complex)
    th = np.asarray(theta, dtype=float)
    kdq_values = np.zeros(np.broadcast_shapes(z.shape, th.shape[:-1]), dtype=complex)
    for (j, k, ell), coeff in sorted(poly.terms.items()):
        value += coeff * r2**j * per_key_solid(poly.n, (k, ell), xv)
        y_val = sphere.harmonic_table(poly.n, [(k, ell)], th)[..., 0]
        kdq_values += coeff * z ** (2 * j + k) * (float(y_val) if y_val.ndim == 0 else y_val)
    return value, kdq_values


class TestAlmansiPolynomial:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        count=st.integers(1, 6),
        at_origin=st.booleans(),
        one_point=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_key_loop(self, n, count, at_origin, one_point, seed):
        # bit for bit, several terms in any order, at one point and on a
        # (zeta, node) grid, and at x = 0
        rng = np.random.default_rng(seed)
        terms = {}
        for _ in range(count):
            k = int(rng.integers(0, 6))
            terms[(int(rng.integers(0, 4)), k, int(rng.integers(1, sphere.dim_harmonics(n, k) + 1)))] = rng.normal()
        poly = AlmansiPolynomial(n, terms)
        x = np.zeros(n) if at_origin else rng.normal(size=n)
        if one_point:
            zeta, theta = np.complex128(rng.normal() + 1j * rng.normal()), unit(rng.normal(size=n))
        else:
            zeta = (rng.normal(size=3) + 1j * rng.normal(size=3))[:, None]
            theta = sphere.sphere_nodes(n, 4)[0][None, :, :]
        value, kdq_values = per_key_almansi(poly, x, zeta, theta)
        assert kdq.almansi_eval_many([poly], [x])[0] == value
        assert eval_kdq(poly, zeta, theta).tobytes() == kdq_values.tobytes()

    def test_eval_matches_monomial(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        poly = AlmansiPolynomial(3, {(2, 1, 2): 1.0})
        r2 = float(x @ x)
        expected = r2**2 * sphere.solid_harmonic(3, [(1, 2)], x)[0]
        assert kdq.almansi_eval_many([poly], [x])[0] == pytest.approx(expected)

    def test_kdq_extension_on_real_points(self):
        # at zeta = |x| real and theta = x/|x| the extension equals eval
        rng = np.random.default_rng(8)
        x = rng.normal(size=2)
        poly = AlmansiPolynomial(2, {(1, 1, 1): 0.7, (0, 2, 2): -0.4})
        r = np.linalg.norm(x)
        val = eval_kdq(poly, np.complex128(r), x / r)
        assert complex(val) == pytest.approx(kdq.almansi_eval_many([poly], [x])[0])

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            AlmansiPolynomial(2, {(0, 1, 3): 1.0})
