import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from toda_kdq import sphere, verify
from toda_kdq.errors import DivergenceRegionError, PoleError
from toda_kdq.kdq import (
    AlmansiPolynomial,
    KDQPoint,
    PseudoPositiveMeasure,
    _kernel_on_grid,
    aronszajn_r_pow_n,
    cauchy_reproduce,
    divergent_partial_sums,
    growth_condition_check,
    hua_kernel,
    hua_tail_bound,
    markov_stieltjes,
    multi_nevanlinna_check,
    singular_roots,
)
from toda_kdq.moment_1d import DiscreteMeasure, stieltjes_transform

E3 = np.array([0.0, 0.0, 1.0])
RAY = np.exp(1j * np.pi / 4)  # arg zeta^2 = pi/2


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_point_pair(rng, n, ratio_lo=2.0, ratio_hi=5.0):
    """x and a kernel-expansion point with |zeta| >= ratio_lo |x|.

    arg(zeta) is kept within +-pi/4 so the principal-branch radicand
    stays off its cut and the literal closed form matches the series.
    """
    x = rng.normal(size=n)
    x *= rng.uniform(0.2, 0.5) / np.linalg.norm(x)
    theta = unit(rng.normal(size=n))
    zeta = np.linalg.norm(x) * rng.uniform(ratio_lo, ratio_hi) * np.exp(
        1j * rng.uniform(-np.pi / 4, np.pi / 4)
    )
    return KDQPoint(zeta, theta), x


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


def basis_pair_kernel(p, x, k_max):
    """The kernel series with each degree summed over explicit basis pairs.

    zeta/(zeta^2 - |x|^2) sum_k zeta^{-k} |x|^k sum_l Y_{k,l}(theta) Y_{k,l}(x/|x|),
    the harmonic expansion as written, without the addition theorem.
    """
    xv = np.asarray(x, dtype=float)
    z = p.zeta
    r = float(np.linalg.norm(xv))
    acc = 0.0 + 0.0j
    if r == 0.0:
        acc = 1.0
    else:
        for k in range(k_max + 1):
            acc += z ** (-k) * r**k * basis_pair(p.n, k, p.theta, xv / r)
    return complex(z / (z * z - r * r) * acc)


def tilde_measure(atoms, weights, k):
    w = weights * atoms**k
    keep = w > 0.0
    if not np.any(keep):
        return None
    return DiscreteMeasure(atoms[keep] ** 2, w[keep], half_line=True)


def per_point_transform(mu, p):
    """The transform at one point, every pushforward and harmonic rebuilt there."""
    z = p.zeta
    total = 0.0 + 0.0j
    for (k, ell), atoms, weights in mu.family.items():
        tilde = tilde_measure(atoms, weights, k)
        if tilde is None:
            continue
        t_val = stieltjes_transform(tilde, z * z)
        total += z ** (1 - k) * sphere.eval_harmonic(mu.n, (k, ell), p.theta) * t_val
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


class TestKDQPoint:
    def test_canonicalization(self):
        th = unit([0.3, -0.4, 0.5])
        p1 = KDQPoint(1.5 + 0.3j, th)
        p2 = KDQPoint(-(1.5 + 0.3j), -th)
        assert p1.zeta == p2.zeta
        assert np.array_equal(p1.theta, p2.theta)

    def test_imaginary_axis_rule(self):
        th = unit([1.0, 1.0])
        p = KDQPoint(-2j, th)
        assert p.zeta == 2j
        assert np.array_equal(p.theta, -th)

    def test_zero_zeta_hemisphere(self):
        th = unit([-1.0, 0.5, 0.2])
        p = KDQPoint(0.0, th)
        assert p.theta[0] > 0.0

    def test_operations_antipodally_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3) * 0.3
        th = unit(rng.normal(size=3))
        zeta = 2.0 + 0.7j
        mu = single_component(3, 1, 1, [0.4], [1.0])
        for p in (KDQPoint(zeta, th), KDQPoint(-zeta, -th)):
            assert aronszajn_r_pow_n(p, x) == aronszajn_r_pow_n(KDQPoint(zeta, th), x)
            assert hua_kernel(p, x, 20) == hua_kernel(KDQPoint(zeta, th), x, 20)
            assert markov_stieltjes(mu, p) == markov_stieltjes(mu, KDQPoint(zeta, th))


class TestAronszajn:
    def test_origin(self):
        th = unit([0.6, 0.8])
        for n, theta in ((2, th), (3, E3)):
            p = KDQPoint(1.3 + 0.4j, theta)
            assert aronszajn_r_pow_n(p, np.zeros(n)) == pytest.approx(p.zeta**n)

    def test_aligned_square(self):
        th = unit([0.6, 0.8])
        p = KDQPoint(2.0 + 1.0j, th)
        s = 0.7
        assert aronszajn_r_pow_n(p, s * th) == pytest.approx((p.zeta - s) ** 2)

    def test_singularity(self):
        th = unit([1.0, 0.0])
        with pytest.raises(PoleError):
            aronszajn_r_pow_n(KDQPoint(0.5, th), 0.5 * th)

    def test_roots_have_modulus_x(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            x = rng.normal(size=n)
            th = unit(rng.normal(size=n))
            z1, z2 = singular_roots(th, x)
            r = np.linalg.norm(x)
            assert abs(z1) == pytest.approx(r, abs=1e-12)
            assert abs(z2) == pytest.approx(r, abs=1e-12)


class TestSingularRoots:
    def test_origin(self):
        assert singular_roots(E3, np.zeros(3)) == (0.0, 0.0)

    def test_aligned(self):
        th = unit([0.6, 0.8])
        z1, z2 = singular_roots(th, 0.9 * th)
        assert z1 == pytest.approx(0.9) and z2 == pytest.approx(0.9)

    def test_orthogonal(self):
        z1, z2 = singular_roots(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert z1 == pytest.approx(1j) and z2 == pytest.approx(-1j)


class TestHuaKernel:
    def test_origin_value(self):
        p = KDQPoint(1.7 - 0.3j, E3)
        assert hua_kernel(p, np.zeros(3), 10) == pytest.approx(1.0 / p.zeta)

    def test_aligned_n2_geometric(self):
        th = unit([np.cos(0.4), np.sin(0.4)])
        p = KDQPoint(1.9 + 0.2j, th)
        s = 0.5
        val = hua_kernel(p, s * th, 60)
        assert val == pytest.approx(p.zeta / (p.zeta - s) ** 2, abs=1e-12)

    def test_aligned_n3_geometric(self):
        p = KDQPoint(2.1 + 0.1j, E3)
        s = 0.6
        val = hua_kernel(p, s * E3, 60)
        assert val == pytest.approx(p.zeta**2 / (p.zeta - s) ** 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_series_vs_closed_form_within_tail(self, n):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, x = random_point_pair(rng, n)
            series = hua_kernel(p, x, 40)
            closed = p.zeta ** (n - 1) / aronszajn_r_pow_n(p, x)
            bound = hua_tail_bound(n, p.zeta, x, 40)
            assert abs(series - closed) <= bound + 1e-12

    def test_divergence_region(self):
        p = KDQPoint(0.5, E3)
        with pytest.raises(DivergenceRegionError):
            hua_kernel(p, np.array([0.0, 0.0, 0.9]), 10)

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
        p = KDQPoint(modulus * np.exp(1j * arg), theta)
        scale = abs(p.zeta / (p.zeta**2 - float(x @ x))) * sum(
            sphere.dim_harmonics(n, k) * ratio**k for k in range(k_max + 1)
        )
        assert abs(hua_kernel(p, x, k_max) - basis_pair_kernel(p, x, k_max)) <= 1e-13 * scale

    def test_tail_bound_dominates_truncation_jump(self):
        rng = np.random.default_rng(3)
        p, x = random_point_pair(rng, 3)
        coarse = hua_kernel(p, x, 10)
        fine = hua_kernel(p, x, 60)
        assert abs(coarse - fine) <= hua_tail_bound(3, p.zeta, x, 10)


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
            grid = _kernel_on_grid(n, zeta, dots, r2)
            assert np.max(np.abs(grid - power) / np.abs(power)) <= 1e-14


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
            assert abs(cauchy_reproduce(poly, x) - poly.eval(x)) < 1e-8

    def test_mixed_polynomial(self):
        poly = AlmansiPolynomial(2, {(0, 0, 1): 2.0, (1, 0, 1): -1.0, (0, 2, 1): 0.5})
        x = np.array([0.3, 0.2])
        assert abs(cauchy_reproduce(poly, x) - poly.eval(x)) < 1e-8

    def test_outside_ball_rejected(self):
        poly = AlmansiPolynomial(2, {(0, 0, 1): 1.0})
        with pytest.raises(DivergenceRegionError):
            cauchy_reproduce(poly, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("offset", range(6, 11))
    def test_verify_seeds_at_rounding_level(self, offset):
        # offset 7 holds the case (n = 2, k = 0, j = 0, |x| = 0.495) where a
        # contour count equal to the S^1 azimuth count read 4.0e-13
        (result,) = verify.check_kdq_cauchy(verify._SEED + offset, k_max=3, j_max=2)
        assert result.observed < 1e-14

    def test_far_point_and_high_degree(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            poly = AlmansiPolynomial(n, {(3, 4, 1): 1.0, (0, 6, 2): -0.5, (1, 0, 1): 2.0})
            x = rng.normal(size=n)
            x *= 0.9 / np.linalg.norm(x)
            assert abs(cauchy_reproduce(poly, x) - poly.eval(x)) < 1e-13


class TestMarkovStieltjes:
    def test_origin_mass(self):
        mu = single_component(3, 0, 1, [0.0], [1.0])
        p = KDQPoint(2.0 + 0.5j, E3)
        assert markov_stieltjes(mu, p) == pytest.approx(1.0 / p.zeta)

    def test_unit_radius_atom(self):
        mu = single_component(3, 0, 1, [1.0], [1.0])
        p = KDQPoint(2.0 + 0.5j, E3)
        assert markov_stieltjes(mu, p) == pytest.approx(p.zeta / (p.zeta**2 - 1.0))

    def test_degree_one_component(self):
        # k=1 term: Y_{1,ell}(theta) * r/(zeta^2 - r^2) with r = 0.5
        mu = single_component(3, 1, 2, [0.5], [1.0])
        p = KDQPoint(3.0 + 1.0j, E3)
        y_val = sphere.eval_harmonic(3, (1, 2), E3)
        expected = y_val * 0.5 / (p.zeta**2 - 0.25)
        assert markov_stieltjes(mu, p) == pytest.approx(expected)

    def test_support_radius_guard(self):
        mu = single_component(3, 0, 1, [1.5], [1.0])
        with pytest.raises(DivergenceRegionError):
            markov_stieltjes(mu, KDQPoint(1.0 + 0.0j, E3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_many_points_match_per_point_sums(self, n):
        rng = np.random.default_rng(13 + n)
        mu = random_measure(rng, n, 5)
        theta = unit(rng.normal(size=n))
        # Re zeta < 0 and Re zeta = 0 move some points to the antipodal theta
        zetas = [2.0 + 0.5j, -1.5 - 0.3j, 3.0j, 1.1 - 1.2j, -2.5 + 0.1j]
        points = [KDQPoint(z, theta) for z in zetas]
        many = markov_stieltjes(mu, points)
        assert many.dtype == complex and many.shape == (len(points),)
        assert np.array_equal(many, [per_point_transform(mu, p) for p in points])
        assert np.array_equal(many, [markov_stieltjes(mu, p) for p in points])
        assert markov_stieltjes(mu, []).shape == (0,)

    def test_json_roundtrip(self):
        mu = PseudoPositiveMeasure(
            2,
            {
                (0, 1): ([0.3], [1.0]),
                (2, 2): ([0.1, 0.8], [0.5, 0.5]),
            },
            k_max=5,
        )
        back = PseudoPositiveMeasure.from_dict(mu.to_dict())
        assert back.n == 2 and back.k_max == 5
        assert back.family.keys == mu.family.keys
        assert np.array_equal(back.family.component((2, 2))[0], mu.family.component((2, 2))[0])


class TestGrowthCondition:
    def test_unit_atoms(self):
        comps = {}
        for k in range(3):
            for ell in range(1, sphere.dim_harmonics(3, k) + 1):
                comps[(k, ell)] = ([1.0], [1.0])
        rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
        assert rep.ok
        assert rep.C == pytest.approx(1.0, abs=1e-10)
        assert rep.D == pytest.approx(1.0, abs=1e-10)

    def test_c_is_m0_and_envelope_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            comps = {
                key: (atoms, weights)
                for key, atoms, weights in random_measure(rng, 3, 6, 0.1, 2.0).family.items()
                if rng.uniform() < 0.7
            }
            rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
            moments = dict(rep.moments_by_k)
            assert rep.C == moments.get(0, max(moments.values()))
            for k, m_k in rep.moments_by_k:
                assert m_k <= rep.C * rep.D**k * (1.0 + 1e-12)

    def test_empty_measure(self):
        rep = growth_condition_check(PseudoPositiveMeasure(3, {}))
        assert rep.ok and rep.C == 0.0

    def test_geometric_radius(self):
        comps = {(k, 1): ([2.0], [1.0]) for k in range(6)}
        rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
        assert rep.ok
        assert rep.D == pytest.approx(2.0, rel=1e-9)

    def test_super_geometric_flagged(self):
        # moment m_k = k^k grows faster than any geometric envelope
        comps = {
            (k, 1): ([float(max(k, 1))], [1.0])
            for k in range(8)
        }
        rep = growth_condition_check(PseudoPositiveMeasure(3, comps))
        assert not rep.ok


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
        values = markov_stieltjes(mu, [KDQPoint(zeta, th) for th in pts])
        for idx in ((0, 1), (1, 2), (2, 4)):
            atoms, weights = mu.family.component(idx)
            tilde = DiscreteMeasure(atoms**2, weights * atoms ** idx[0], half_line=True)
            direct = stieltjes_transform(tilde, zeta**2)
            projected = zeta ** (idx[0] - 1) * np.sum(wts * values * sphere.eval_harmonic(3, idx, pts))
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
        (orthonormality,) = verify.check_sphere_orthonormality(5)
        (addition,) = verify.check_sphere_addition(verify._SEED, 20, 8)
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


def per_key_partial_sums(mu, n_trunc, p):
    """divergent_partial_sums one key at a time: one harmonic and one moment sum per key and j."""
    z = p.zeta
    f_val = g_val = 0.0 + 0.0j
    for (k, ell), atoms, weights in mu.family.items():
        y_val = sphere.eval_harmonic(mu.n, (k, ell), p.theta)
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
        p = KDQPoint(rng.uniform(1.0, 5.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)), unit(rng.normal(size=n)))
        assert divergent_partial_sums(mu, n_trunc, p) == per_key_partial_sums(mu, n_trunc, p)

    def test_n_zero(self):
        mu = single_component(3, 0, 1, [0.7], [1.0])
        p = KDQPoint(3.0 * RAY, E3)
        f0, g0 = divergent_partial_sums(mu, 0, p)
        assert f0 == 0.0
        # s_{0,1;0} is the mass 1.0 of the one atom
        assert g0 == pytest.approx(sphere.eval_harmonic(3, (0, 1), E3))

    def test_f_is_geometric_truncation(self):
        mu = single_component(3, 0, 1, [0.5], [1.0])
        p = KDQPoint(4.0 * RAY, E3)
        f2, _ = divergent_partial_sums(mu, 2, p)
        z = p.zeta
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
            p = KDQPoint(mod * RAY, th)
            mh = markov_stieltjes(mu, p)
            f1, g1 = divergent_partial_sums(mu, 1, p)
            gap = abs(p.zeta**5 * (mh - f1) - g1)
            assert gap < prev
            prev = gap
        assert prev < 1e-2


class TestAlmansiPolynomial:
    def test_eval_matches_monomial(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        poly = AlmansiPolynomial(3, {(2, 1, 2): 1.0})
        r2 = float(x @ x)
        expected = r2**2 * sphere.solid_harmonic(3, (1, 2), x)
        assert poly.eval(x) == pytest.approx(expected)

    def test_kdq_extension_on_real_points(self):
        # at zeta = |x| real and theta = x/|x| the extension equals eval
        rng = np.random.default_rng(8)
        x = rng.normal(size=2)
        poly = AlmansiPolynomial(2, {(1, 1, 1): 0.7, (0, 2, 2): -0.4})
        r = np.linalg.norm(x)
        val = poly.eval_kdq(np.complex128(r), x / r)
        assert complex(val) == pytest.approx(poly.eval(x))

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            AlmansiPolynomial(2, {(0, 1, 3): 1.0})
