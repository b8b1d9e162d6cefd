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


def basis(n, k, theta):
    """The d_k columns of degree k of the harmonic table."""
    return sphere.harmonic_table(n, [(k, ell) for ell in range(1, sphere.dim_harmonics(n, k) + 1)], theta)


class TestEvalHarmonic:
    """Values of `harmonic_table`, and the index check `check_indices` it runs."""

    def test_constant(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            assert np.all(sphere.harmonic_table(n, [(0, 1)], random_directions(rng, n, 5)) == 1.0)

    def test_circle_degree_one(self):
        phi = 0.83
        th = np.array([np.cos(phi), np.sin(phi)])
        expected = np.sqrt(2) * np.array([np.cos(phi), np.sin(phi)])
        np.testing.assert_allclose(sphere.harmonic_table(2, [(1, 1), (1, 2)], th), expected)

    def test_zonal_degree_one_s2(self):
        # zonal index is ell = k+1; value sqrt(3) cos(gamma)
        gammas = np.array([0.2, 1.1, 2.5])
        th = np.column_stack([np.sin(gammas), np.zeros(3), np.cos(gammas)])
        np.testing.assert_allclose(sphere.harmonic_table(3, [(1, 2)], th)[:, 0], np.sqrt(3) * np.cos(gammas))

    def test_invalid_index(self):
        # the message names the first bad key, here always the second
        ks, ells = sphere.check_indices(3, [(0, 1), (2, 5), (1000, 2001)])
        assert ks.tolist() == [0, 2, 1000] and ells.tolist() == [1, 5, 2001]
        cases = [
            (2, (1, 3), "invalid harmonic index (k=1, ell=3); need 1 <= ell <= 2"),
            (2, (0, 2), "invalid harmonic index (k=0, ell=2); need 1 <= ell <= 1"),
            (3, (2, 0), "invalid harmonic index (k=2, ell=0); need 1 <= ell <= 5"),
            (3, (-1, 1), "degree must be nonnegative, got k=-1"),
            (3, (1001, 1), "harmonic degree k=1001 on S^2 exceeds 1000"),
            (4, (0, 1), "unsupported ambient dimension n=4; only 2 and 3"),
        ]
        for n, bad, message in cases:
            keys = [(0, 1), bad, (1, 2), (-3, 9)]
            for check in (sphere.check_indices, lambda n, keys: sphere.harmonic_table(n, keys, np.eye(n)[0])):
                with pytest.raises(ValueError) as exc:
                    check(n, keys)
                assert str(exc.value) == message

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
        bases = [basis(n, k, pts) for k in range(kmax + 1)]
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
            sums = (basis(n, k, dirs) ** 2).sum(axis=1)
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
            one = [sphere.harmonic_table(3, [key], theta)[0] for key in self.KEYS[::37]]
            assert np.array(one).tobytes() == table[::37].tobytes()

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
        assert sphere.harmonic_table(3, [(1, 3)], theta)[0] == pytest.approx(-np.sqrt(3.0) * 1e-8, rel=1e-14)


class TestSolidHarmonic:
    KEYS = [(0, 1), (1, 3), (2, 5), (3, 2)]

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        v1 = sphere.solid_harmonic(3, self.KEYS, x)
        v2 = sphere.solid_harmonic(3, self.KEYS, 2.0 * x)
        np.testing.assert_allclose(v2, 2.0 ** np.array([k for k, _ in self.KEYS]) * v1, rtol=1e-14)

    def test_origin(self):
        assert sphere.solid_harmonic(3, [(0, 1), (2, 1)], np.zeros(3)).tolist() == [1.0, 0.0]

    def test_columns_match_one_key_tables(self):
        # bit for bit at 500 points and the origin: each column is |x|^k, one
        # scalar power, times the key's own one-key table at x/|x|
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(size=(500, 3)), np.zeros(3)])
        r = np.linalg.norm(x[:-1], axis=-1)
        out = sphere.solid_harmonic(3, self.KEYS, x)
        for i, (k, ell) in enumerate(self.KEYS):
            assert out[:-1, i].tobytes() == (r**k * sphere.harmonic_table(3, [(k, ell)], x[:-1] / r[:, None])[:, 0]).tobytes()
            assert out[-1, i] == (k == 0)
