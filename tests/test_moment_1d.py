import re
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from toda_kdq import cli, moment_1d, toda_1d, verify
from toda_kdq.errors import PoleError, RankDeficiencyError
from toda_kdq.moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    continued_fraction_eval,
    jacobi_eigenvalues,
    jacobi_from_measure,
    moments,
    nevanlinna_limit_check,
    resolvent_NN,
    spectral_data_from_jacobi,
    stieltjes_transform,
)
from toda_kdq.kdq import PseudoPositiveMeasure
from toda_kdq.pseudo_toda import PseudoTodaState

from test_acceptance import verify_all_keywords


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

    @settings(max_examples=100, deadline=None)
    @example(values=[0.5, -0.0, 0.0, 0.5, -1.0, 0.0], cuts=[])  # one segment
    @example(values=[0.5, -0.0, 0.0, 0.5, -1.0, 0.0], cuts=[0, 2, 2, 6])  # empty segments among them
    @given(
        values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), max_size=12),
        cuts=st.lists(st.integers(0, 12), max_size=4),
    )
    def test_segment_order_equals_lexsort(self, values, cuts):
        # one segment takes a stable argsort, several a lexsort keyed on the
        # segment: both are the order of the plain lexsort, ties and signed zeros included
        values = np.array(values)
        offsets = np.array([0, *sorted(min(c, values.size) for c in cuts), values.size])
        want = np.lexsort((values, np.repeat(np.arange(offsets.size - 1), np.diff(offsets))))
        assert moment_1d._segment_order(values, offsets).tolist() == want.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0], [0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([-1.0], [1.0], half_line=True)

    def test_json_roundtrip(self):
        # a JSON measure reads as the measure built from its arrays
        mu = DiscreteMeasure([2.0, 0.1], [0.7, 0.3], half_line=True)
        back = cli._read_1d_measure({"atoms": [2, 0.1], "weights": [0.7, 0.3], "half_line": True})
        assert back.atoms.tobytes() == mu.atoms.tobytes()
        assert back.weights.tobytes() == mu.weights.tobytes()
        assert back.half_line
        assert not cli._read_1d_measure({"atoms": 1.0, "weights": 1.0}).half_line


def TodaComponent(lambdas, masses_tilde):
    """The arrays a one-component `PseudoTodaState` stores, under their field names."""
    fam = PseudoTodaState(3, {(0, 1): (lambdas, masses_tilde)}).family
    return SimpleNamespace(lambdas=fam.radii, masses_tilde=fam.masses)


def IsoFlowComponent(atoms, weights):
    """The arrays the Riccati flow reads of a one-component measure, under the measure's field names."""
    fam = PseudoPositiveMeasure(3, {(0, 1): (atoms, weights)}).family
    return SimpleNamespace(atoms=fam.radii, weights=fam.masses)


class TestFrozenFields:
    # one valid input per class whose array fields go through the shared
    # validator: lists, ints and scalars are accepted as float vectors
    VALID = {
        DiscreteMeasure: {"atoms": [0.5, -1.0], "weights": [1, 2]},
        JacobiMatrix: {"diag": [0.0, 1.0], "offdiag": 0.5},
        TodaComponent: {"lambdas": [0.5, 0.2], "masses_tilde": [0.5, 0.5]},
        IsoFlowComponent: {"atoms": [0.5], "weights": 1.0},
    }

    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_read_only_float_vectors(self, cls):
        obj = cls(**self.VALID[cls])
        for name in self.VALID[cls]:
            arr = getattr(obj, name)
            assert arr.dtype == np.float64 and arr.ndim == 1 and not arr.flags.writeable

    @pytest.mark.parametrize("offdiag, item", [([0.5, -0.3], "offdiag[1] = -0.3"), ([0.0, -1.0], "offdiag[0] = 0.0")])
    def test_jacobi_names_the_first_coupling_not_positive(self, offdiag, item):
        with pytest.raises(ValueError, match=rf"\(unreduced\), got {re.escape(item)}$"):
            JacobiMatrix(diag=[0.0, 0.0, 0.0], offdiag=offdiag)

    @pytest.mark.parametrize("name", ["diag", "offdiag"])
    def test_jacobi_refuses_a_nested_list(self, name):
        # a row of either field is refused, not flattened
        fields = {"diag": [0.0, 0.0, 0.0], "offdiag": [0.5, 0.25]}
        fields[name] = [fields[name]]
        with pytest.raises(ValueError, match=rf"^{name} must be a 1-d array, got shape \(1, \d\)$"):
            JacobiMatrix(**fields)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_nonfinite_entry_rejected(self, cls, bad):
        # a class's own checks (order, sign, unit sum) can all be False for
        # NaN, so the shared finiteness check must fire
        # the quadric families name the component
        where = r" in component \(0, 1\)" if cls in (TodaComponent, IsoFlowComponent) else ""
        for name, value in self.VALID[cls].items():
            broken = np.atleast_1d(np.array(value, dtype=float))
            broken[0] = bad
            with pytest.raises(ValueError, match=f"^{name} entries must be finite{where}$"):
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


def recurrence(mu):
    """The recurrence coefficients (alphas, betas) of mu, read off `jacobi_from_measure`
    from the bottom-right corner upward: alpha_i = b_{N-i}, beta_{i+1} = a_{N-1-i}^2."""
    jac = jacobi_from_measure(mu)
    return jac.diag[::-1], jac.offdiag[::-1] ** 2


class TestRecurrence:
    def test_two_atom_by_hand(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        alphas, betas = recurrence(mu)
        assert np.allclose(alphas, [0.0, 0.0], atol=1e-14)
        assert betas[0] == pytest.approx(0.25)

    def test_single_atom_mean(self):
        mu = DiscreteMeasure([0.7], [1.0])
        alphas, betas = recurrence(mu)
        assert alphas[0] == pytest.approx(0.7)
        assert betas.size == 0

    def test_against_chebyshev_oracle(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 5, lo=-1.0, hi=1.0)
        alphas, betas = recurrence(mu)
        o_alphas, o_betas = chebyshev_recurrence(moments(mu, 9), 5)
        assert np.max(np.abs(alphas - o_alphas)) < 1e-10
        assert np.max(np.abs(betas - o_betas[1:])) < 1e-10

    def test_rank_deficiency(self):
        # the second atom's weight puts the next Lanczos vector below the rank threshold
        mu = DiscreteMeasure([0.0, 1.0], [1.0, 1e-30])
        with pytest.raises(RankDeficiencyError, match="effective rank deficiency at Lanczos step 1"):
            jacobi_from_measure(mu)


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


def exact_spectrum(diag, offdiag) -> list:
    """The ascending eigenvalues of one Jacobi matrix, by mpmath at 34 digits."""
    n = len(diag)
    with mpmath.workdps(34):
        mat = mpmath.matrix(n, n)
        for i in range(n):
            mat[i, i] = mpmath.mpf(float(diag[i]))
        for i in range(n - 1):
            mat[i, i + 1] = mat[i + 1, i] = mpmath.mpf(float(offdiag[i]))
        return sorted(mpmath.eigsy(mat, eigvals_only=True))


def assert_near_exact(lam, diag, offdiag, ulps=2.0):
    # every row within `ulps` eps max|lambda| of its exact spectrum
    eps = np.finfo(float).eps
    for row, d, e in zip(lam, diag, offdiag):
        exact = exact_spectrum(d, e)
        with mpmath.workdps(34):
            err = max(abs(mpmath.mpf(float(v)) - x) for v, x in zip(row, exact))
            assert err <= ulps * eps * max(abs(x) for x in exact)


def rk4_rows(n, dt, steps, seed):
    # (b, a) of an RK4 trajectory from a random state of n sites
    rng = np.random.default_rng(seed)
    state = JacobiMatrix(diag=rng.uniform(-1.0, 1.0, n), offdiag=rng.uniform(0.3, 1.0, n - 1))
    traj = toda_1d.integrate_toda(state, steps * dt, dt)
    return traj.b, traj.a


class TestJacobiEigenvalues:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 20), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_within_two_eps_of_the_exact_spectrum(self, rows, n, seed):
        # unrelated rows, which restart from their own ?syevd eigenvalues:
        # within 2 eps max|lambda| of mpmath's spectrum; both these and the
        # eigenvalues that come with the masses are backward stable, within
        # 2 N eps max|lambda| of scipy's ?stevd
        rng = np.random.default_rng(seed)
        diag = rng.uniform(-1.0, 1.0, size=(rows, n))
        offdiag = rng.uniform(0.3, 1.0, size=(rows, n - 1))
        lam = jacobi_eigenvalues(diag, offdiag)
        assert lam.shape == (rows, n)
        assert_near_exact(lam, diag, offdiag)
        ref = np.array([eigh_tridiagonal(d, e)[0] for d, e in zip(diag, offdiag)]).reshape(rows, n)
        bound = 2 * n * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True, initial=0.0)
        assert (np.abs(lam - ref) <= bound).all()
        with_masses = [spectral_data_from_jacobi(JacobiMatrix(d, e))[0] for d, e in zip(diag, offdiag)]
        assert (np.abs(lam - np.reshape(with_masses, (rows, n))) <= bound).all()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 10),
        dt=st.floats(1e-3, 0.05),
        steps=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_rows_within_two_eps(self, n, dt, steps, seed):
        # rows that drift from row 0's spectrum by RK4 error, up to dt = 0.05
        b, a = rk4_rows(n, dt, steps, seed)
        lam = jacobi_eigenvalues(b, a)
        picked = sorted({0, len(b) // 2, len(b) - 1})
        assert_near_exact(lam[picked], b[picked], a[picked])
        ref = np.array([eigh_tridiagonal(d, e)[0] for d, e in zip(b, a)]).reshape(b.shape)
        bound = 2 * n * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(lam - ref) <= bound).all()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 8),
        scale=st.sampled_from([1e-150, 1.0, 1e150, 1e154, 1.3e154, 2e154]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_couplings_near_overflow(self, n, scale, seed):
        # a^2 overflows from about 1.34e154 on: such rows keep ?syevd's values
        b, a = rk4_rows(n, 1e-2, 5, seed)
        b, a = b * scale, a * scale
        lam = jacobi_eigenvalues(b, a)
        assert np.isfinite(lam).all() and (np.diff(lam, axis=1) > 0.0).all()
        ref = np.array([eigh_tridiagonal(d, e)[0] for d, e in zip(b, a)]).reshape(b.shape)
        bound = 2 * n * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(lam - ref) <= bound).all()
        if scale <= 1e154:
            assert_near_exact(lam[[0, -1]], b[[0, -1]], a[[0, -1]])

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 9),
        block=st.sampled_from([1, 7, 40, 300]),
        unrelated=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_do_not_depend_on_the_block_split(self, n, block, unrelated, seed):
        # trajectory rows, then unrelated ones that restart
        b, a = rk4_rows(n, 2e-2, 40, seed)
        rng = np.random.default_rng(seed)
        b = np.concatenate([b, rng.uniform(-1.0, 1.0, (unrelated, n))])
        a = np.concatenate([a, rng.uniform(0.3, 1.0, (unrelated, n - 1))])
        whole = jacobi_eigenvalues(b, a)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moment_1d, "_BLOCK", block)
            assert jacobi_eigenvalues(b, a).tobytes() == whole.tobytes()

    def test_rows_not_certified_from_row_0_have_their_bits_alone(self, monkeypatch):
        # rows shifted by 100 from row 0's spectrum cannot converge in 3
        # steps; each restarts from its own ?syevd eigenvalues, as row 0 of
        # a call of its own does
        b, a = rk4_rows(8, 1e-2, 20, 3)
        b[5:15] += 100.0
        restarted = []
        eigvalsh_rows = moment_1d._eigvalsh_rows

        def spy(diag, offdiag, rows):
            restarted.extend(rows)
            return eigvalsh_rows(diag, offdiag, rows)

        monkeypatch.setattr(moment_1d, "_eigvalsh_rows", spy)
        lam = jacobi_eigenvalues(b, a)
        assert restarted == [0, *range(5, 15)]
        for i in range(len(b)):
            alone = jacobi_eigenvalues(b[i : i + 1], a[i : i + 1])[0]
            if i in range(5, 15):
                assert lam[i].tobytes() == alone.tobytes()
            else:
                assert (np.abs(lam[i] - alone) <= 2 * np.finfo(float).eps * np.abs(alone).max()).all()
        assert_near_exact(lam[4:6], b[4:6], a[4:6])

    def test_certificate_refuses_values_off_the_spectrum(self):
        # with a zero last step only the Sturm counts at the midpoints can
        # tell that one value is not an eigenvalue
        diag, offdiag = np.array([[0.3, -0.2, 0.9, 0.1]]), np.array([[0.6, 0.4, 0.8]])
        lam = jacobi_eigenvalues(diag, offdiag)
        b, a2, zero = diag.T.copy(), offdiag.T**2, np.zeros((4, 1))
        assert moment_1d._certified(b, a2, lam.T.copy(), zero).tolist() == [True]
        off = lam.T.copy()
        off[1] = 0.5 * (off[1] + off[2])  # still strictly increasing
        assert moment_1d._certified(b, a2, off, zero).tolist() == [False]

    def test_decoupled_first_site_is_certified(self, monkeypatch):
        # a first coupling of 1e-20 puts an eigenvalue on b_1 exactly, a zero
        # first pivot; it is shifted off, so the second row certifies from
        # the first row's spectrum and never restarts
        diag, offdiag = np.array([[0.5, -0.3, 0.1]] * 2), np.array([[1e-20, 0.7]] * 2)
        restarted = []
        eigvalsh_rows = moment_1d._eigvalsh_rows

        def spy(d, e, rows):
            restarted.extend(rows)
            return eigvalsh_rows(d, e, rows)

        monkeypatch.setattr(moment_1d, "_eigvalsh_rows", spy)
        lam = jacobi_eigenvalues(diag, offdiag)
        assert restarted == [0] and 0.5 in lam[1]
        assert_near_exact(lam, diag, offdiag)

    def test_blocks_equal_rows_alone(self):
        # 1,100 unrelated rows of N = 8 restart in three dense stacks; none
        # certifies from row 0's spectrum, so each row has its bits alone
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


class TestVerifyLines:
    @pytest.mark.parametrize(
        "line, defect, fails, passes",
        [
            ("moment-inverse-roundtrip", "lanczos-alphas", 5e-11, 2e-11),
            ("moment-cf-resolvent-eigen", "eigh-couplings", 2e-11, 1e-11),
            ("moment-nevanlinna-decay", "remainder-weights", 2e-2, 1e-2),
        ],
    )
    def test_verify_line_fails_on_a_skew(self, monkeypatch, line, defect, fails, passes):
        # a relative skew of the Lanczos diagonal coefficients, of the
        # couplings of the matrix that spectral_data_from_jacobi decomposes,
        # or of the weights of the positive atoms that the moment remainder
        # reads fails the verify-all line from `fails` up, and `passes`
        # passes: the README records the smallest failing skew of 1, 2, 5
        # per decade
        lanczos, dense_rows, remainder = moment_1d._lanczos, moment_1d._dense_rows, moment_1d._moment_remainder

        def observed(skew):
            def skewed_lanczos(*args, **kwargs):
                alphas, sb = lanczos(*args, **kwargs)
                return alphas * (1.0 + skew), sb

            def skewed_weights(atoms, weights, n, z):
                return remainder(atoms, weights * np.where(atoms > 0.0, 1.0 + skew, 1.0), n, z)

            if defect == "lanczos-alphas":
                monkeypatch.setattr(moment_1d, "_lanczos", skewed_lanczos)
                check = verify.check_moment_roundtrip
            elif defect == "eigh-couplings":
                monkeypatch.setattr(moment_1d, "_dense_rows", lambda diag, offdiag: dense_rows(diag, offdiag * (1.0 + skew)))
                check = verify.check_moment_triple
            else:
                monkeypatch.setattr(moment_1d, "_moment_remainder", skewed_weights)
                check = verify.check_moment_nevanlinna
            return check(**verify_all_keywords(check))[0]

        assert observed(0.0).name == line
        assert not observed(fails).passed
        assert observed(passes).passed
