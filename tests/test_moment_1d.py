from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from toda_kdq.errors import PoleError, RankDeficiencyError
from toda_kdq.iso_flow import IsoFlowState
from toda_kdq.moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    continued_fraction_eval,
    jacobi_eigenvalues,
    jacobi_from_measure,
    moments,
    nevanlinna_limit_check,
    recurrence_coefficients,
    resolvent_NN,
    second_kind_poly,
    spectral_data_from_jacobi,
    stieltjes_transform,
)
from toda_kdq.pseudo_toda import PseudoTodaState
from toda_kdq.toda_1d import TodaStatePhysical


def random_measure(rng, n, lo=-2.0, hi=2.0, normalized=True):
    atoms = np.sort(rng.uniform(lo, hi, size=n))
    while np.min(np.diff(atoms), initial=1.0) < 1e-3:
        atoms = np.sort(rng.uniform(lo, hi, size=n))
    w = rng.uniform(0.2, 1.0, size=n)
    if normalized:
        w = w / w.sum()
    return DiscreteMeasure(atoms, w)


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-1, 1, size=n), offdiag=rng.uniform(0.3, 1.0, size=n - 1))


def chebyshev_recurrence(mom, n):
    """Chebyshev algorithm from ordinary moments (independent oracle).

    Returns monic recurrence alphas[0..n-1] and betas[0..n-1] with
    betas[0] = m_0; betas[1:] are the squared orthonormal off-diagonals.
    """
    sigma_prev = np.zeros(2 * n)
    sigma_curr = np.asarray(mom[: 2 * n], dtype=float).copy()
    alphas = np.zeros(n)
    betas = np.zeros(n)
    alphas[0] = mom[1] / mom[0]
    betas[0] = mom[0]
    for k in range(1, n):
        sigma_next = np.zeros(2 * n)
        for ell in range(k, 2 * n - k):
            sigma_next[ell] = (
                sigma_curr[ell + 1] - alphas[k - 1] * sigma_curr[ell] - betas[k - 1] * sigma_prev[ell]
            )
        alphas[k] = sigma_next[k + 1] / sigma_next[k] - sigma_curr[k] / sigma_curr[k - 1]
        betas[k] = sigma_next[k] / sigma_curr[k - 1]
        sigma_prev, sigma_curr = sigma_curr, sigma_next
    return alphas, betas


class TestDiscreteMeasure:
    def test_merge_coincident(self):
        mu = DiscreteMeasure([0.5, 0.5 + 1e-14, -1.0], [0.25, 0.25, 0.5])
        assert len(mu) == 2
        assert mu.weights[-1] == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("atom, weight", [(1e-300, 1e-300), (1e-160, 1e-160), (1e300, 1e300), (-1e300, 1e300)])
    def test_atom_kept_where_a_w_leaves_the_normal_range(self, atom, weight):
        # a lone atom beside another is rewritten as (a w)/w only where a w is
        # a finite normal number
        mu = DiscreteMeasure([atom, 0.5], [weight, 1.0])
        assert mu.atoms.tolist() == sorted([atom, 0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_merged_group_whose_dot_overflows(self):
        mu = DiscreteMeasure([1e300, 1e300, 0.5], [1e10, 3e10, 1.0])
        assert mu.atoms.tolist() == [0.5, 1e300] and mu.weights.tolist() == [1.0, 4e10]

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0], [0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([-1.0], [1.0], half_line=True)

    def test_json_roundtrip(self):
        mu = DiscreteMeasure([0.1, 2.0], [0.3, 0.7], half_line=True)
        back = DiscreteMeasure.from_dict(mu.to_dict())
        assert np.array_equal(back.atoms, mu.atoms)
        assert np.array_equal(back.weights, mu.weights)
        assert back.half_line


def TodaComponent(lambdas, masses_tilde):
    """The arrays a one-component `PseudoTodaState` stores, under their field names."""
    fam = PseudoTodaState(3, {(0, 1): (lambdas, masses_tilde)}).family
    return SimpleNamespace(lambdas=fam.radii, masses_tilde=fam.masses)


def IsoFlowComponent(lambdas, masses):
    """The arrays a one-component `IsoFlowState` stores, under their field names."""
    fam = IsoFlowState({(0, 1): (lambdas, masses)}).family
    return SimpleNamespace(lambdas=fam.radii, masses=fam.masses)


class TestFrozenFields:
    # one valid input per class whose array fields go through the shared
    # validator: lists, ints and scalars are accepted as float vectors
    VALID = {
        DiscreteMeasure: {"atoms": [0.5, -1.0], "weights": [1, 2]},
        JacobiMatrix: {"diag": [0.0, 1.0], "offdiag": 0.5},
        TodaStatePhysical: {"x": [0.0, 1.0], "y": [2, 3]},
        TodaComponent: {"lambdas": [0.5, 0.2], "masses_tilde": [0.5, 0.5]},
        IsoFlowComponent: {"lambdas": [0.5], "masses": 0.0},
    }

    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_read_only_float_vectors(self, cls):
        obj = cls(**self.VALID[cls])
        for name in self.VALID[cls]:
            arr = getattr(obj, name)
            assert arr.dtype == np.float64 and arr.ndim == 1 and not arr.flags.writeable

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_nonfinite_entry_rejected(self, cls, bad):
        # a class's own checks (order, sign, unit sum) can all be False for
        # NaN, so the shared finiteness check must fire
        for name, value in self.VALID[cls].items():
            broken = np.atleast_1d(np.array(value, dtype=float))
            broken[0] = bad
            with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
                cls(**{**self.VALID[cls], name: broken})


class TestMoments:
    def test_single_atom_powers(self):
        mu = DiscreteMeasure([2.0], [1.0])
        assert np.allclose(moments(mu, 3), [1.0, 2.0, 4.0, 8.0])

    def test_total_mass(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 5, normalized=False)
        assert moments(mu, 0)[0] == pytest.approx(mu.total_mass)

    def test_symmetric(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        assert np.allclose(moments(mu, 2), [1.0, 0.0, 0.25])


class TestStieltjes:
    def test_single_atom(self):
        mu = DiscreteMeasure([1.0], [1.0])
        assert stieltjes_transform(mu, 3.0) == pytest.approx(0.5)

    def test_partial_fractions(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        for lam in (2.0, 1.0 + 1.0j, -3.7):
            expected = lam / (lam**2 - 0.25)
            assert stieltjes_transform(mu, lam) == pytest.approx(expected)

    def test_asymptotic_mass(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 4, normalized=False)
        val = stieltjes_transform(mu, 1e6)
        assert abs(val - mu.total_mass / 1e6) < 1e-5 * abs(val)

    def test_pole(self):
        mu = DiscreteMeasure([1.0], [1.0])
        with pytest.raises(PoleError):
            stieltjes_transform(mu, 1.0)


class TestRecurrence:
    def test_two_atom_by_hand(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        alphas, betas = recurrence_coefficients(mu, 2)
        assert np.allclose(alphas, [0.0, 0.0], atol=1e-14)
        assert betas[0] == pytest.approx(0.25)

    def test_single_atom_mean(self):
        mu = DiscreteMeasure([0.7], [1.0])
        alphas, betas = recurrence_coefficients(mu, 1)
        assert alphas[0] == pytest.approx(0.7)
        assert betas.size == 0

    def test_against_chebyshev_oracle(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 5, lo=-1.0, hi=1.0, normalized=False)
        alphas, betas = recurrence_coefficients(mu, 5)
        o_alphas, o_betas = chebyshev_recurrence(moments(mu, 9), 5)
        assert np.max(np.abs(alphas - o_alphas)) < 1e-10
        assert np.max(np.abs(betas - o_betas[1:])) < 1e-10

    def test_rank_deficiency(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(RankDeficiencyError):
            recurrence_coefficients(mu, 3)


class TestJacobiFromMeasure:
    def test_corner_ordering(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        jac = jacobi_from_measure(mu)
        assert np.allclose(jac.diag, [0.0, 0.0], atol=1e-14)
        assert jac.offdiag[0] == pytest.approx(0.5)

    def test_single_atom(self):
        jac = jacobi_from_measure(DiscreteMeasure([0.3], [1.0]))
        assert jac.n == 1 and jac.diag[0] == pytest.approx(0.3)

    def test_mass_requirement(self):
        with pytest.raises(ValueError):
            jacobi_from_measure(DiscreteMeasure([0.0, 1.0], [1.0, 1.0]))

    def test_resolvent_equals_transform(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 6)
        jac = jacobi_from_measure(mu)
        for lam in (2.5, 1.0 + 0.7j):
            assert abs(resolvent_NN(jac, lam) - stieltjes_transform(mu, lam)) < 1e-12

    def test_roundtrip_measure(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            mu = random_measure(rng, n)
            eigenvalues, masses = spectral_data_from_jacobi(jacobi_from_measure(mu))
            assert np.max(np.abs(eigenvalues - mu.atoms)) < 1e-10
            assert np.max(np.abs(masses - mu.weights)) < 1e-10


class TestSpectralData:
    def test_two_by_two(self):
        jac = JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.5])
        eigenvalues, masses = spectral_data_from_jacobi(jac)
        assert np.allclose(eigenvalues, [-0.5, 0.5])
        assert np.allclose(masses, [0.5, 0.5])

    def test_scalar(self):
        eigenvalues, masses = spectral_data_from_jacobi(JacobiMatrix(diag=[1.3], offdiag=[]))
        assert eigenvalues[0] == 1.3 and masses[0] == 1.0

    def test_trace_identity(self):
        rng = np.random.default_rng(6)
        for n in (3, 6, 8):
            jac = random_jacobi(rng, n)
            eigenvalues, _ = spectral_data_from_jacobi(jac)
            tr2 = float(np.sum(jac.diag**2) + 2.0 * np.sum(jac.offdiag**2))
            assert abs(np.sum(eigenvalues**2) - tr2) < 1e-10

    def test_corner_moment_identity(self):
        # s_j = (L^j)_{N,N} for j <= 2N-1
        rng = np.random.default_rng(7)
        jac = random_jacobi(rng, 5)
        mom = moments(DiscreteMeasure(*spectral_data_from_jacobi(jac)), 9)
        dense = jac.to_dense()
        power = np.eye(jac.n)
        for j in range(10):
            assert abs(mom[j] - power[-1, -1]) < 1e-10
            power = power @ dense


class TestJacobiEigenvalues:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 20), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_equals_sterf_per_row(self, rows, n, seed):
        # bit for bit LAPACK ?sterf of each row's diagonals; both that and the
        # eigenvalues that come with the masses are backward stable, within
        # 2 N eps max|lambda| of scipy's ?stevd
        rng = np.random.default_rng(seed)
        diag = rng.uniform(-1.0, 1.0, size=(rows, n))
        offdiag = rng.uniform(0.3, 1.0, size=(rows, n - 1))
        lam = jacobi_eigenvalues(diag, offdiag)
        sterf = [eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf") for d, e in zip(diag, offdiag)]
        assert lam.tobytes() == np.reshape(sterf, (rows, n)).tobytes()
        ref = np.array([eigh_tridiagonal(d, e)[0] for d, e in zip(diag, offdiag)]).reshape(rows, n)
        bound = 2 * n * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True, initial=0.0)
        assert (np.abs(lam - ref) <= bound).all()
        with_masses = [spectral_data_from_jacobi(JacobiMatrix(d, e))[0] for d, e in zip(diag, offdiag)]
        assert (np.abs(lam - np.reshape(with_masses, (rows, n))) <= bound).all()

    def test_blocks_equal_rows_alone(self):
        # 1,100 rows of N = 8 make three stacks; each row's bits do not depend on its stack
        rng = np.random.default_rng(5)
        diag = rng.uniform(-1.0, 1.0, size=(1100, 8))
        offdiag = rng.uniform(0.3, 1.0, size=(1100, 7))
        alone = [jacobi_eigenvalues(d[None], e[None])[0] for d, e in zip(diag, offdiag)]
        assert jacobi_eigenvalues(diag, offdiag).tobytes() == np.array(alone).tobytes()

    def test_no_convergence_names_the_row(self):
        diag = np.zeros((700, 8))
        diag[600, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="did not converge on the Jacobi matrix of row 600"):
            jacobi_eigenvalues(diag, np.ones((700, 7)))

    def test_coincident_eigenvalues_rejected(self):
        # 1 +- 1e-300 rounds to one double
        with pytest.raises(ValueError, match="strictly increasing"):
            jacobi_eigenvalues([[0.0, 0.0], [1.0, 1.0]], [[0.5], [1e-300]])


class TestContinuedFraction:
    def test_scalar(self):
        jac = JacobiMatrix(diag=[0.7], offdiag=[])
        assert continued_fraction_eval(jac, 2.0) == pytest.approx(1.0 / 1.3)

    def test_two_level_by_hand(self):
        jac = JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.5])
        for lam in (2.0, 0.3 + 1.0j):
            assert continued_fraction_eval(jac, lam) == pytest.approx(lam / (lam**2 - 0.25))

    def test_triple_agreement(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 8):
            jac = random_jacobi(rng, n)
            mu = DiscreteMeasure(*spectral_data_from_jacobi(jac))
            for _ in range(10):
                lam = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.0))
                vals = [
                    continued_fraction_eval(jac, lam),
                    resolvent_NN(jac, lam),
                    stieltjes_transform(mu, lam),
                ]
                scale = max(abs(v) for v in vals)
                assert max(abs(p - q) for p in vals for q in vals) < 1e-12 * max(scale, 1.0)

    def test_pole_of_convergent(self):
        jac = JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.5])
        with pytest.raises(PoleError):
            continued_fraction_eval(jac, 0.0)  # eigenvalue of the 1x1 truncation


class TestResolvent:
    def test_scalar(self):
        jac = JacobiMatrix(diag=[0.4], offdiag=[])
        assert resolvent_NN(jac, 1.4) == pytest.approx(1.0)

    def test_two_by_two_value(self):
        jac = JacobiMatrix(diag=[0.0, 0.0], offdiag=[0.5])
        assert resolvent_NN(jac, 1.0) == pytest.approx(4.0 / 3.0)


class TestSecondKind:
    def test_degree_zero(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        for tau in (-1.0, 0.5, 2.3):
            assert second_kind_poly(mu, 0, tau) == 0.0

    def test_degree_one_by_hand(self):
        # P_1(x) = 2x orthonormal; integrand == 2 everywhere, mass 1
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        for tau in (0.5, 0.1, 7.0):  # includes an atom (removable singularity)
            assert second_kind_poly(mu, 1, tau) == pytest.approx(2.0)

    def test_pade_asymptotics(self):
        # Q_n/P_n approximates the transform with error O(lambda^{-2n-1})
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 6)
        alphas, betas = recurrence_coefficients(mu, 4)
        from toda_kdq.moment_1d import _orthonormal_poly

        for n in (1, 2, 3):
            errs = []
            for lam in (4.0, 8.0):
                p_val = _orthonormal_poly(alphas[:n], np.sqrt(betas[:n]), mu.total_mass, n, np.asarray(lam))
                q_val = second_kind_poly(mu, n, lam)
                errs.append(abs(q_val / float(p_val) - stieltjes_transform(mu, lam)))
            order = np.log2(errs[0] / errs[1])
            assert order > 2 * n + 0.5  # decay at least lambda^{-(2n+1)}


class TestNevanlinna:
    def test_single_atom_closed_form(self):
        # f(z) = 1/(1-z); n=1 residual |z^3(f + 1/z + 1/z^2) + 1| = |z^3/(z^2(1-z)) + 1|
        mu = DiscreteMeasure([1.0], [1.0])
        ys = [10.0, 100.0, 1000.0]
        res = nevanlinna_limit_check(mu, 1, ys)
        for y, r in zip(ys, res):
            z = 1j * y
            expected = abs(z / (1.0 - z) + 1.0)
            assert r == pytest.approx(expected, rel=1e-9)
        assert np.all(np.diff(res) < 0.0)

    def test_zero_measure(self):
        mu = DiscreteMeasure([], [])
        assert np.all(nevanlinna_limit_check(mu, 2, [10.0, 100.0]) == 0.0)

    def test_symmetric_second_order_decay(self):
        # paired +-atoms: odd moments vanish, residual drops ~100x per decade
        rng = np.random.default_rng(10)
        u = np.sort(rng.uniform(0.2, 1.2, size=2))
        w = rng.uniform(0.2, 1.0, size=2)
        mu = DiscreteMeasure([-u[1], -u[0], u[0], u[1]], [w[1], w[0], w[0], w[1]])
        for n in (1, 2):
            res = nevanlinna_limit_check(mu, n, [10.0, 100.0, 1000.0])
            assert np.all(np.diff(res) < 0.0)
            assert res[-1] <= 1e-3 * res[0]
