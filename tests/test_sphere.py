import numpy as np
import pytest
from scipy.special import sph_harm_y

from toda_kdq import sphere


def random_directions(rng, n, count):
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestDimHarmonics:
    def test_reference_values(self):
        assert sphere.dim_harmonics(3, 2) == 5
        assert sphere.dim_harmonics(2, 0) == 1
        assert sphere.dim_harmonics(2, 3) == 2

    def test_closed_forms(self):
        for k in range(1, 12):
            assert sphere.dim_harmonics(2, k) == 2
            assert sphere.dim_harmonics(3, k) == 2 * k + 1
        assert sphere.dim_harmonics(3, 0) == 1

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            sphere.dim_harmonics(4, 1)
        with pytest.raises(ValueError):
            sphere.dim_harmonics(3, -1)


class TestEvalHarmonic:
    def test_constant(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for th in random_directions(rng, n, 5):
                assert sphere.eval_harmonic(n, (0, 1), th) == pytest.approx(1.0)

    def test_circle_degree_one(self):
        phi = 0.83
        th = np.array([np.cos(phi), np.sin(phi)])
        assert sphere.eval_harmonic(2, (1, 1), th) == pytest.approx(np.sqrt(2) * np.cos(phi))
        assert sphere.eval_harmonic(2, (1, 2), th) == pytest.approx(np.sqrt(2) * np.sin(phi))

    def test_zonal_degree_one_s2(self):
        # zonal index is ell = k+1; value sqrt(3) cos(gamma)
        for gamma in (0.2, 1.1, 2.5):
            th = np.array([np.sin(gamma), 0.0, np.cos(gamma)])
            assert sphere.eval_harmonic(3, (1, 2), th) == pytest.approx(np.sqrt(3) * np.cos(gamma))

    def test_invalid_index(self):
        th = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            sphere.eval_harmonic(2, (1, 3), th)
        with pytest.raises(ValueError):
            sphere.eval_harmonic(2, (0, 2), th)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            sphere.as_direction(2, [1.0, 1.0])
        with pytest.raises(ValueError):
            sphere.as_direction(3, [1.0, 0.0])


class TestOrthonormality:
    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_matrix(self, n):
        kmax = 6
        pts, wts = sphere.sphere_nodes(n, 2 * kmax)
        bases = [sphere.harmonic_basis(n, k, pts) for k in range(kmax + 1)]
        for i, bi in enumerate(bases):
            for j, bj in enumerate(bases):
                gram = (bi * wts[:, None]).T @ bj
                expected = np.eye(bi.shape[1]) if i == j else np.zeros_like(gram)
                assert np.max(np.abs(gram - expected)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_addition_theorem(self, n):
        rng = np.random.default_rng(7)
        dirs = random_directions(rng, n, 30)
        for k in range(9):
            sums = (sphere.harmonic_basis(n, k, dirs) ** 2).sum(axis=1)
            assert np.max(np.abs(sums - sphere.dim_harmonics(n, k))) < 1e-10


class TestQuadrature:
    # the rule integrates f against the probability measure as wts @ f(pts)
    @pytest.mark.parametrize("n", [2, 3])
    def test_total_mass(self, n):
        pts, wts = sphere.sphere_nodes(n, 8)
        assert wts @ np.ones(len(pts)) == pytest.approx(1.0)

    def test_cos_squared(self):
        pts, wts = sphere.sphere_nodes(3, 4)
        assert wts @ pts[:, 2] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_trig_exactness(self):
        # int cos^2(k phi) d(phi)/2pi = 1/2 exactly at sufficient degree
        for k in (1, 3, 5):
            pts, wts = sphere.sphere_nodes(2, 2 * k)
            val = wts @ np.cos(k * np.arctan2(pts[:, 1], pts[:, 0])) ** 2
            assert val == pytest.approx(0.5, abs=1e-14)


class TestHarmonicsNearThePoles:
    """S^2 harmonics at 1e-10, 1e-8 and 1e-4 rad from either pole, every
    (k, ell) with k <= 24, against `scipy.special.sph_harm_y` scaled to the
    probability measure as perfbench's reference is.  The oracle takes the
    polar angle delta itself; the south pole's values follow by the parity
    Y_k^m(pi - delta, phi) = (-1)^(k+m) Y_k^m(delta, phi), since pi - delta
    would not keep delta's digits.  A value there is of size delta^|m|, so
    it is compared relative to itself."""

    KEYS = [(k, ell) for k in range(25) for ell in range(1, 2 * k + 2)]

    @staticmethod
    def oracle(delta, phi, sign):
        ks = np.array([k for k, _ in TestHarmonicsNearThePoles.KEYS])
        ms = np.array([ell - k - 1 for k, ell in TestHarmonicsNearThePoles.KEYS])
        y = np.sqrt(4.0 * np.pi) * sph_harm_y(ks, np.abs(ms), delta, phi)
        vals = np.where(ms == 0, y.real, np.sqrt(2.0) * np.where(ms > 0, y.real, y.imag))
        return vals * (1.0 if sign > 0 else (-1.0) ** (ks + ms))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-4])
    def test_against_sph_harm_y(self, sign, delta):
        for phi in (0.3, 2.1, -1.3):
            theta = np.array([np.sin(delta) * np.cos(phi), np.sin(delta) * np.sin(phi), sign * np.cos(delta)])
            ref = self.oracle(delta, phi, sign)
            table = sphere.harmonic_table(3, self.KEYS, theta)
            assert np.max(np.abs(table - ref) / np.abs(ref)) < 1e-12
            one = [sphere.eval_harmonic(3, key, theta) for key in self.KEYS[::37]]
            assert np.max(np.abs(np.array(one) - ref[::37]) / np.abs(ref[::37])) < 1e-12

    def test_degree_cap(self):
        # S^2 degrees stop at 1000, where the values at a pole are near 1e209
        theta = np.array([0.0, 0.0, 1.0])
        assert np.isfinite(sphere.harmonic_table(3, [(1000, 1), (1000, 1001), (1000, 2001)], theta)).all()
        with pytest.raises(ValueError, match="exceeds 1000"):
            sphere.check_indices(3, [(0, 1), (1001, 1)])
        assert sphere.harmonic_table(2, [(5000, 1)], np.array([1.0, 0.0])) == pytest.approx(np.sqrt(2.0))

    def test_degree_one_at_1e_8_rad(self):
        # -sqrt(3) sin(delta): the Condon-Shortley sign, and no digit lost
        theta = np.array([np.sin(1e-8), 0.0, np.cos(1e-8)])
        assert sphere.eval_harmonic(3, (1, 3), theta) == pytest.approx(-np.sqrt(3.0) * 1e-8, rel=1e-14)


class TestSolidHarmonic:
    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        for k, ell in [(0, 1), (1, 3), (2, 5), (3, 2)]:
            v1 = sphere.solid_harmonic(3, (k, ell), x)
            v2 = sphere.solid_harmonic(3, (k, ell), 2.0 * x)
            assert v2 == pytest.approx(2.0**k * v1)

    def test_origin(self):
        assert sphere.solid_harmonic(3, (0, 1), np.zeros(3)) == 1.0
        assert sphere.solid_harmonic(3, (2, 1), np.zeros(3)) == 0.0
