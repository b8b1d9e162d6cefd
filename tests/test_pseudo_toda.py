import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toda_kdq import cli, kdq, pseudo_toda, sphere, verify
from toda_kdq.errors import RankDeficiencyError
from toda_kdq.moment_1d import DiscreteMeasure, JacobiMatrix, jacobi_from_measure, spectral_data_from_jacobi
from toda_kdq.toda_1d import _evolved_masses
from toda_kdq.pseudo_toda import (
    PseudoTodaState,
    _untilde,
    component_ode_residual,
    evolve,
    family_jacobi,
    flaschka_surfaces,
    normalization_invariant,
    state_to_measure,
    state_trajectory_csv,
    total_hamiltonian,
)
from test_toda_1d import hamiltonian, written_out_flow

E3 = np.array([0.0, 0.0, 1.0])

TWO_ATOM = PseudoTodaState(3, {(0, 1): ([0.5, 1.0], [0.5, 0.5])})


def full_state(rng, n=3, kmax=2, atoms=4, lam_hi=1.2):
    comps = {}
    for k in range(kmax + 1):
        for ell in range(1, sphere.dim_harmonics(n, k) + 1):
            lam = np.sort(rng.uniform(0.2, lam_hi, size=atoms))
            while np.min(np.diff(lam)) < 1e-3:
                lam = np.sort(rng.uniform(0.2, lam_hi, size=atoms))
            m = rng.uniform(0.2, 1.0, size=atoms)
            comps[(k, ell)] = (lam, m / m.sum())
    return PseudoTodaState(n, comps)


def jacobi_row(state, key) -> JacobiMatrix:
    """Component `key`'s row of `family_jacobi`, cut to its m sites: the
    row's couplings are > 0 there and 0 past them."""
    diag, offdiag = family_jacobi(state)
    i = state.family.index(key)
    m = 1 + int(np.count_nonzero(offdiag[i]))
    return JacobiMatrix(diag=diag[i, :m], offdiag=offdiag[i, : m - 1])


def tilde(k, lambdas, masses):
    """(lambda^2, r^2 lambda^k) of one component of degree k, by `kdq._tilde_family`."""
    fam = kdq._tilde_family(kdq.PseudoPositiveMeasure(3, {(k, 1): (lambdas, masses)}))
    return fam.radii, fam.masses


class TestTildeTransform:
    def test_degree_zero_identity(self):
        lt, mt = tilde(0, [0.3, 0.8], [0.4, 0.6])
        assert np.allclose(lt, [0.09, 0.64])
        assert np.allclose(mt, [0.4, 0.6])

    def test_plug_in(self):
        lt, mt = tilde(2, [2.0], [0.25])
        assert lt[0] == 4.0 and mt[0] == 1.0

    def test_normalization_equivalence(self):
        # sum lambda^k r^2 = 1  iff  sum of tilde masses = 1
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.3, 1.5, size=4)
        r2 = rng.uniform(0.2, 1.0, size=4)
        r2 /= np.sum(lam**3 * r2)
        _, mt = tilde(3, lam, r2)
        assert mt.sum() == pytest.approx(1.0, abs=1e-14)

    def test_inverse(self):
        # the measure of a state maps back to the state's tilde atoms and masses
        rng = np.random.default_rng(1)
        lam = np.sort(rng.uniform(0.2, 2.0, size=5))
        mt = rng.uniform(0.1, 1.0, size=5)
        mt /= mt.sum()
        r_lam, r_r2 = state_to_measure(PseudoTodaState(3, {(3, 1): (lam, mt)})).family.component((3, 1))
        lt_back, mt_back = tilde(3, r_lam, r_r2)
        assert np.array_equal(lt_back, lam**2)
        assert np.max(np.abs(mt_back - mt)) < 1e-14

    def test_inverse_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            _untilde(1, np.array([0.0]), np.array([1.0]))


class TestEvolve:
    def test_time_zero_identity(self):
        ev = evolve(TWO_ATOM, 0.0)
        lambdas, masses_tilde = ev.family.component((0, 1))
        assert np.array_equal(lambdas, TWO_ATOM.family.component((0, 1))[0])
        assert np.allclose(masses_tilde, [0.5, 0.5])

    def test_equal_tilde_radii_static(self):
        # duplicate lambdas are allowed in a component; equal exponents cancel
        st = PseudoTodaState(3, {(0, 1): ([0.5, 0.5], [0.4, 0.6])})
        ev = evolve(st, 3.0)
        assert np.allclose(ev.family.component((0, 1))[1], [0.4, 0.6])

    def test_two_atom_closed_form(self):
        for t in (0.5, 2.0, 10.0):
            ev = evolve(TWO_ATOM, t)
            assert ev.family.component((0, 1))[1][0] == pytest.approx(
                1.0 / (1.0 + np.exp(-1.5 * t))
            )

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        st = full_state(rng, kmax=1, atoms=3)
        ev_a = evolve(evolve(st, 0.8), 1.7)
        ev_b = evolve(st, 2.5)
        for key in st.family.keys:
            dev = np.max(np.abs(ev_a.family.component(key)[1] - ev_b.family.component(key)[1]))
            assert dev < 1e-12
        assert ev_a.time == pytest.approx(ev_b.time)

    def test_nan_time_is_refused(self):
        with pytest.raises(ValueError, match=r"^evolution time must be a number, got t = nan$"):
            evolve(TWO_ATOM, float("nan"))

    def test_eigenvalues_fixed(self):
        ev = evolve(TWO_ATOM, 5.0)
        assert np.array_equal(ev.family.component((0, 1))[0], TWO_ATOM.family.component((0, 1))[0])


class TestComponentJacobi:
    def test_single_atom(self):
        st = PseudoTodaState(3, {(0, 1): ([0.7], [1.0])})
        jac = jacobi_row(st, (0, 1))
        assert jac.n == 1 and jac.diag[0] == pytest.approx(0.49)  # tilde radius 0.7^2

    def test_two_atom_mean_variance(self):
        jac = jacobi_row(TWO_ATOM, (0, 1))
        assert jac.diag[-1] == pytest.approx(0.625)
        assert jac.offdiag[0] ** 2 == pytest.approx(0.140625)

    def test_time_zero_uses_masses_as_given(self):
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])})
        ref = jacobi_from_measure(DiscreteMeasure([0.2**2, 0.5**2, 0.9**2], [0.3, 0.3, 0.4], half_line=True))
        jac = jacobi_row(st, (0, 1))
        assert jac.diag.tobytes() == ref.diag.tobytes() and jac.offdiag.tobytes() == ref.offdiag.tobytes()

    def test_matches_lanczos_on_evolved_masses(self):
        # where Lanczos on the late masses still holds its digits
        rng = np.random.default_rng(8)
        st = full_state(rng, kmax=1, atoms=4)
        for t in (-0.7, 0.3, 2.0):
            ev = evolve(st, t)
            for key, lambdas, masses_tilde in ev.family.items():
                ref = jacobi_from_measure(DiscreteMeasure(lambdas**2, masses_tilde, half_line=True))
                jac = jacobi_row(ev, key)
                assert np.max(np.abs(jac.diag - ref.diag)) < 1e-12
                assert np.max(np.abs(jac.offdiag - ref.offdiag)) < 1e-12

    def test_late_time_keeps_hamiltonian(self):
        # at t = 100 the smallest tilde mass is e^{-2 * 100 * (1.44 - 0.04)} of
        # the largest, below Lanczos's rank threshold
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9, 1.2], [0.1, 0.2, 0.3, 0.4])})
        ev = evolve(st, 100.0)
        lambdas, masses = ev.family.component((0, 1))
        with pytest.raises(RankDeficiencyError):
            jacobi_from_measure(DiscreteMeasure(lambdas**2, masses, half_line=True))
        jac = jacobi_row(ev, (0, 1))
        h = 2.0 * np.sum(lambdas**4)
        assert abs(hamiltonian(jac) - h) / h < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(jac.to_dense()) - lambdas**2)) < 1e-12

    def test_spectral_data_of_a_late_state(self):
        # the corner masses of the t = 100 matrix underflow: 1.1e-18, then 0.0
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9, 1.2], [0.1, 0.2, 0.3, 0.4])})
        eigenvalues, masses = spectral_data_from_jacobi(jacobi_row(evolve(st, 100.0), (0, 1)))
        assert np.max(np.abs(eigenvalues - np.array([0.2, 0.5, 0.9, 1.2]) ** 2)) < 1e-12
        assert (masses >= 0.0).all() and abs(masses.sum() - 1.0) < 1e-12

    def test_masses_given_at_a_late_time(self):
        # reweighted back to time 0 these masses span e^{-280}: Lanczos runs on
        # them as given, and nothing is flowed
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9, 1.2], [0.25] * 4)}, time=100.0)
        ref = jacobi_from_measure(DiscreteMeasure(np.array([0.2, 0.5, 0.9, 1.2]) ** 2, [0.25] * 4, half_line=True))
        jac = jacobi_row(st, (0, 1))
        assert jac.diag.tobytes() == ref.diag.tobytes() and jac.offdiag.tobytes() == ref.offdiag.tobytes()

    def test_isospectral_along_evolution(self):
        rng = np.random.default_rng(3)
        st = full_state(rng, kmax=1, atoms=4)
        for key in st.family.keys:
            lam0 = spectral_data_from_jacobi(jacobi_row(st, key))[0]
            for t in (0.5, 2.0, 8.0):
                lam = spectral_data_from_jacobi(jacobi_row(evolve(st, t), key))[0]
                assert np.max(np.abs(lam - lam0)) < 1e-10


def per_key_lanczos(atoms, weights):
    """The per-key Lanczos that `family_jacobi` replaced: one measure, its
    reorthogonalization by matrix-vector products, sqrt(beta) squared and
    rooted again; the reference for the digits of the stacked path."""
    n = atoms.size
    q = np.sqrt(weights)
    big_q = np.zeros((n, n))
    big_q[:, 0] = q / np.linalg.norm(q)
    alphas, sb = np.zeros(n), np.zeros(n - 1)
    for i in range(n):
        u = atoms * big_q[:, i]
        if i > 0:
            u -= sb[i - 1] * big_q[:, i - 1]
        alphas[i] = big_q[:, i] @ u
        u -= alphas[i] * big_q[:, i]
        for _ in range(2):
            u -= big_q[:, : i + 1] @ (big_q[:, : i + 1].T @ u)
        if i < n - 1:
            sb[i] = np.linalg.norm(u)
            big_q[:, i + 1] = u / sb[i]
    return JacobiMatrix(alphas[::-1].copy(), np.sqrt(sb**2)[::-1].copy())


def per_key_component_jacobi(state, key):
    """The per-key path `family_jacobi` replaced: `per_key_lanczos` at time 0
    or at the state's time, by the same rule, and the QR flow from 0 as
    `written_out_flow` takes it."""
    lambdas, masses = state.family.component(key)
    x = lambdas**2
    at_zero = _evolved_masses(masses, x, -state.time) if state.time != 0.0 else masses
    if not at_zero.min() > masses.min():
        return per_key_lanczos(x, masses)
    start = per_key_lanczos(x, at_zero)
    (diag,), (offdiag,) = written_out_flow(start.diag, start.offdiag, [state.time])
    return JacobiMatrix(diag, offdiag)


def mp_jacobi(x, masses, t, dps=50):
    """Jacobi entries (diag, offdiag) of the tilde measure with masses
    m_j e^{-2 x_j t} / sum_m m_m e^{-2 x_m t}, by the Stieltjes procedure in
    mpmath at `dps` digits: the exact QR flow to time t of the Lanczos matrix
    of the masses m at time 0."""
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in x]
        w = [mpmath.mpf(float(m)) * mpmath.exp(-2 * v * mpmath.mpf(t)) for m, v in zip(masses, xs)]
        total = mpmath.fsum(w)
        w = [v / total for v in w]
        p_prev, p = [mpmath.mpf(0)] * len(xs), [mpmath.mpf(1)] * len(xs)
        alphas, betas, norm_prev = [], [], None
        for _ in xs:
            norm = mpmath.fsum(wi * pi**2 for wi, pi in zip(w, p))
            alpha = mpmath.fsum(wi * xi * pi**2 for wi, xi, pi in zip(w, xs, p)) / norm
            beta = norm / norm_prev if norm_prev is not None else mpmath.mpf(0)
            alphas.append(alpha)
            if norm_prev is not None:
                betas.append(beta)
            p_prev, p, norm_prev = p, [(xi - alpha) * pi - beta * pp for xi, pi, pp in zip(xs, p, p_prev)], norm
        return alphas[::-1], [mpmath.sqrt(b) for b in betas][::-1]


class TestFamilyJacobi:
    @settings(max_examples=60, deadline=None)
    @given(
        kmax=st.integers(0, 3),
        atoms=st.integers(2, 5),
        t=st.sampled_from([0.0, -0.3, 0.7, 5.0, 50.0]),
        merge=st.booleans(),
        short=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_component_jacobi(self, kmax, atoms, t, merge, short, seed):
        # bit for bit, with tilde atoms that merge and components of fewer
        # atoms in their own size groups, zeros past each row's sites
        rng = np.random.default_rng(seed)
        comps = {key: (lam, m) for key, lam, m in full_state(rng, kmax=kmax, atoms=atoms).family.items()}
        keys = sorted(comps)
        if merge:
            lam, m = comps[keys[-1]]
            comps[keys[-1]] = (np.concatenate([lam[:1], lam[:-1]]), m)
        if short and len(keys) > 1:
            lam, m = comps[keys[0]]
            comps[keys[0]] = (lam[1:], m[1:] / m[1:].sum())
        state = evolve(PseudoTodaState(3, comps), t)
        diag, offdiag = family_jacobi(state)
        assert diag.shape == (len(keys), atoms) and offdiag.shape == (len(keys), atoms - 1)
        for i, key in enumerate(keys):
            # the component's row in a family of its own
            jac = jacobi_row(PseudoTodaState(3, {key: state.family.component(key)}, state.time), key)
            assert jac.diag.tobytes() == diag[i, : jac.n].tobytes()
            assert jac.offdiag.tobytes() == offdiag[i, : jac.n - 1].tobytes()
            assert not diag[i, jac.n :].any() and not offdiag[i, jac.n - 1 :].any()

    def test_against_mpmath_oracle(self):
        """Both paths against 50 digits: the stacked `family_jacobi` and the
        per-key path it replaced, on 5 states of 16 components of 6 atoms at
        t = 0, 0.7, 5 and 50.  Neither keeps more digits: the worst errors
        are 8.5e-14 (diagonals, absolute) and 4.0e-12 (couplings, relative)
        for the stacked path and 9.4e-14 and 4.4e-12 for the per-key one, and
        on other seeds the per-key path is ahead."""
        rng = np.random.default_rng(16)
        worst = {"stacked": [0.0, 0.0], "per-key": [0.0, 0.0]}
        for _ in range(5):
            comps = {}
            for key in [(k, ell) for k in range(4) for ell in range(1, 2 * k + 2)][:16]:
                lam = np.sort(rng.uniform(0.2, 1.2, 6))
                while np.min(np.diff(lam)) < 1e-3:
                    lam = np.sort(rng.uniform(0.2, 1.2, 6))
                m = rng.uniform(0.2, 1.0, 6)
                comps[key] = (lam, m / m.sum())
            state = PseudoTodaState(3, comps)
            for t in (0.0, 0.7, 5.0, 50.0):
                ev = evolve(state, t)
                diag, offdiag = family_jacobi(ev)
                for i, (key, lam, m) in enumerate(state.family.items()):
                    exact_b, exact_a = mp_jacobi(lam**2, m, t)
                    old = per_key_component_jacobi(ev, key)
                    for path, b, a in (("stacked", diag[i], offdiag[i]), ("per-key", old.diag, old.offdiag)):
                        err_b = max(abs(float(mpmath.mpf(float(v)) - e)) for v, e in zip(b, exact_b))
                        err_a = max(abs(float((mpmath.mpf(float(v)) - e) / e)) for v, e in zip(a, exact_a))
                        worst[path] = [max(worst[path][0], err_b), max(worst[path][1], err_a)]
        assert worst["stacked"][0] < 1e-12 and worst["stacked"][1] < 5e-11
        # at most one digit behind the per-key path
        assert worst["stacked"][0] < 10.0 * worst["per-key"][0] and worst["stacked"][1] < 10.0 * worst["per-key"][1]

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.integers(2, 5),
        t=st.one_of(st.floats(-20.0, -4.0), st.floats(4.0, 20.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_written_out_flow(self, atoms, t, seed):
        # bit for bit, on components whose spectral widths differ, so that
        # their rows take different numbers of QR checkpoints to t
        rng = np.random.default_rng(seed)
        keys, spreads = [(0, 1), (1, 1), (1, 2), (1, 3)], [0.3, 0.8, 1.4, 2.0]
        comps = {}
        for key, spread in zip(keys, spreads):
            lam = np.sort(rng.uniform(0.2, 0.2 + spread, atoms))
            while np.min(np.diff(lam)) < 1e-3:
                lam = np.sort(rng.uniform(0.2, 0.2 + spread, atoms))
            m = rng.uniform(0.2, 1.0, atoms)
            comps[key] = (lam, m / m.sum())
        state = evolve(PseudoTodaState(3, comps), t)
        # the rows at time 0 that family_jacobi flows from: the masses it
        # takes back to time 0, in one block as it does, then its Lanczos
        lambdas = state.family.radii.reshape(len(keys), atoms)
        masses = state.family.masses.reshape(len(keys), atoms)
        at_zero = _evolved_masses(masses, lambdas**2, -t)
        start_b, start_a = family_jacobi(PseudoTodaState(3, dict(zip(keys, zip(lambdas, at_zero)))))
        diag, offdiag = family_jacobi(state)
        checkpoints = []
        for i in np.flatnonzero(at_zero.min(axis=1) > masses.min(axis=1)):
            ref_b, ref_a = written_out_flow(start_b[i], start_a[i], [t])
            assert diag[i].tobytes() == ref_b[0].tobytes() and offdiag[i].tobytes() == ref_a[0].tobytes()
            lam = np.linalg.eigvalsh(JacobiMatrix(start_b[i], start_a[i]).to_dense())
            checkpoints.append(np.floor(abs(t) / (8.0 / (lam[-1] - lam[0]))))
        assume(len(set(checkpoints)) > 1)

    def test_errors_name_the_component(self):
        # the second atom of (1, 2) is below Lanczos's rank threshold
        st0 = PseudoTodaState(3, {(0, 1): ([0.5, 1.0], [0.5, 0.5]), (1, 2): ([0.2, 0.9], [1.0, 1e-30])})
        with pytest.raises(RankDeficiencyError, match=r"^component \(1, 2\): effective rank deficiency"):
            family_jacobi(st0)


class TestHamiltonians:
    def test_single_atom(self):
        # H_{k,l} = 2 sum_j lambda_j^4 is the Jacobi matrix's Hamiltonian
        st = PseudoTodaState(3, {(0, 1): ([1.0], [1.0])})
        assert hamiltonian(jacobi_row(st, (0, 1))) == 2.0

    def test_two_atom(self):
        assert hamiltonian(jacobi_row(TWO_ATOM, (0, 1))) == pytest.approx(2.0 * (0.5**4 + 1.0**4))

    def test_total_sum(self):
        st = PseudoTodaState(
            3,
            {(0, 1): ([1.0], [1.0]), (1, 1): ([0.5, 1.0], [0.5, 0.5])},
        )
        assert total_hamiltonian(st) == pytest.approx(4.125)

    def test_empty_state(self):
        assert total_hamiltonian(PseudoTodaState(3, {})) == 0.0

    def test_matches_jacobi_entries(self):
        # H = 4 (sum at^2 + 1/2 sum bt^2) via the trace identity on L_{k,l}
        rng = np.random.default_rng(4)
        st = full_state(rng, kmax=2, atoms=3)
        for key, lambdas, _ in st.family.items():
            assert abs(hamiltonian(jacobi_row(st, key)) - 2.0 * np.sum(lambdas**4)) < 1e-10

    def test_verify_check_reads_jacobi_entries(self, monkeypatch):
        # one row of couplings off by 1e-9 must fail pseudo-hamiltonian-constant
        def skewed(state):
            diag, offdiag = family_jacobi(state)
            offdiag = offdiag.copy()
            offdiag[0] *= 1.0 + 1e-9
            return diag, offdiag

        monkeypatch.setattr(pseudo_toda, "family_jacobi", skewed)
        results = {r.name: r for r in verify.check_pseudo_toda(3333, ode_times=(0.0,))}
        assert not results["pseudo-hamiltonian-constant"].passed

    def test_invariant_under_evolution(self):
        rng = np.random.default_rng(5)
        st = full_state(rng, kmax=1, atoms=3)
        h0 = total_hamiltonian(st)
        for t in (1.0, 10.0, 100.0):
            assert total_hamiltonian(evolve(st, t)) == h0  # radii untouched


class TestNormalization:
    def test_evolved_states(self):
        rng = np.random.default_rng(6)
        st = full_state(rng)
        for t in (0.0, 1.0, 10.0, 100.0):
            assert normalization_invariant(evolve(st, t)) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PseudoTodaState(3, {(0, 1): ([0.5, 1.0], [0.5, 0.6])})

    def test_empty(self):
        assert normalization_invariant(PseudoTodaState(3, {})) == 0.0


class TestOdeResidual:
    def test_equal_radii_static(self):
        st = PseudoTodaState(3, {(0, 1): ([0.5, 0.5 + 1e-15], [0.5, 0.5])})
        # coincident tilde atoms merge; dynamics of the merged 1x1 system is frozen
        assert component_ode_residual(st, 0.0)[0] < 1e-12

    def test_two_atom_at_origin(self):
        assert component_ode_residual(TWO_ATOM, 0.0)[0] < 1e-6

    def test_quadratic_in_dt(self, monkeypatch):
        r_fine = component_ode_residual(TWO_ATOM, 0.3)[0]
        monkeypatch.setattr(pseudo_toda, "_ODE_DT", 2e-4)
        r_coarse = component_ode_residual(TWO_ATOM, 0.3)[0]
        assert 3.0 < r_coarse / r_fine < 5.0


class TestSurfaces:
    def test_single_component_constant(self):
        jac = jacobi_row(TWO_ATOM, (0, 1))
        a1, b1 = flaschka_surfaces(TWO_ATOM, 1, E3)
        assert a1 == pytest.approx(jac.offdiag[0])
        assert b1 == pytest.approx(jac.diag[0])
        a2, b2 = flaschka_surfaces(TWO_ATOM, 2, E3)
        assert a2 == 0.0  # free-end convention at the last site
        assert b2 == pytest.approx(jac.diag[1])

    @pytest.mark.parametrize("j", [0, 3])
    def test_site_outside_the_lattice(self, j):
        with pytest.raises(ValueError, match=r"^site j must be in 1\.\.2$"):
            flaschka_surfaces(TWO_ATOM, j, E3)

    def test_two_component_sum(self):
        st = PseudoTodaState(
            3,
            {
                (0, 1): ([0.5, 1.0], [0.5, 0.5]),
                (1, 2): ([0.3, 0.8], [0.4, 0.6]),
            },
        )
        th = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        jac0 = jacobi_row(st, (0, 1))
        jac1 = jacobi_row(st, (1, 2))
        y1 = float(sphere.harmonic_table(3, [(1, 2)], th)[0])
        a1, b1 = flaschka_surfaces(st, 1, th)
        assert a1 == pytest.approx(jac0.offdiag[0] + jac1.offdiag[0] * y1)
        assert b1 == pytest.approx(jac0.diag[0] + jac1.diag[0] * y1)

    def test_projection_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        st = full_state(rng, kmax=2, atoms=3)
        pts, wts = sphere.sphere_nodes(3, 8)
        surf = np.array([flaschka_surfaces(st, 1, p)[0] for p in pts])
        keys = ((0, 1), (1, 3), (2, 5))
        for key, y_vals in zip(keys, sphere.harmonic_table(3, keys, pts).T):
            jac = jacobi_row(st, key)
            coeff = float(np.sum(wts * surf * y_vals))
            assert abs(coeff - jac.offdiag[0]) < 1e-10

    def test_heterogeneous_sizes_rejected(self):
        st = PseudoTodaState(
            3,
            {
                (0, 1): ([0.5], [1.0]),
                (1, 1): ([0.3, 0.8], [0.5, 0.5]),
            },
        )
        with pytest.raises(ValueError):
            flaschka_surfaces(st, 1, E3)


def per_key_surfaces(state, j, theta):
    """`flaschka_surfaces` one component and one one-key harmonic table at a
    time, in ascending (k, l)."""
    n_sites = state.common_size()
    a_val = b_val = 0.0
    for key in state.family.keys:
        jac = jacobi_row(state, key)
        y_val = float(sphere.harmonic_table(state.n, [key], theta)[0])
        if j <= n_sites - 1:
            a_val += float(jac.offdiag[j - 1]) * y_val
        b_val += float(jac.diag[j - 1]) * y_val
    return a_val, b_val


class TestSurfacesPerKey:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        kmax=st.integers(0, 3),
        atoms=st.integers(2, 4),
        t=st.sampled_from([0.0, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_key_loop(self, n, kmax, atoms, t, seed):
        # bit for bit at every site, with some keys absent
        rng = np.random.default_rng(seed)
        st_full = full_state(rng, n=n, kmax=kmax, atoms=atoms)
        keep = [key for key in st_full.family.keys if rng.random() < 0.7] or [(0, 1)]
        state = evolve(PseudoTodaState(n, {key: st_full.family.component(key) for key in keep}), t)
        theta = rng.normal(size=n)
        theta /= np.linalg.norm(theta)
        for j in range(1, atoms + 1):
            assert flaschka_surfaces(state, j, theta) == per_key_surfaces(state, j, theta)


class TestMeasureBridge:
    def test_growth_constants_are_one(self):
        rng = np.random.default_rng(9)
        st = full_state(rng)
        for t in (0.0, 2.0, 20.0):
            rep = kdq.growth_condition_check(state_to_measure(evolve(st, t)))
            assert abs(rep.C - 1.0) < 1e-10
            assert abs(rep.D - 1.0) < 1e-10

    def test_transform_converges_outside_unit_ball(self):
        rng = np.random.default_rng(10)
        st = full_state(rng)
        mu = state_to_measure(evolve(st, 1.0))
        for mod in (1.3, 2.0, 4.0):
            val = kdq.markov_stieltjes(mu, [mod * np.exp(1j * np.pi / 4)], E3)[0]
            assert np.isfinite(val.real) and np.isfinite(val.imag)

    @pytest.mark.parametrize("lam", [[1e-170, 0.5], [0.5, 1e160]])
    def test_radii_whose_square_leaves_the_double_range(self, lam):
        # lambda^2 underflows to 0 or overflows to inf; r^2 = rt^2 / lambda
        # comes from lambda itself
        st = PseudoTodaState(3, {(1, 1): (lam, [0.5, 0.5])})
        with np.errstate(all="raise"):
            mu = state_to_measure(st)
        assert mu.family.radii.tolist() == lam
        assert mu.family.masses.tolist() == [0.5 / lam[0], 0.5 / lam[1]]

    def test_zero_radius_at_positive_degree_raises(self):
        st = PseudoTodaState(3, {(0, 1): ([0.0, 0.5], [0.5, 0.5]), (1, 1): ([0.0, 0.5], [0.5, 0.5])})
        with pytest.raises(ZeroDivisionError, match="lambda = 0"):
            state_to_measure(st)


class TestSerialization:
    def test_json_roundtrip(self):
        # a JSON state reads as the state built from its map
        st = PseudoTodaState(3, {(0, 1): ([0.9, 0.4], [0.25, 0.75]), (1, 3): ([0.5, 1.2], [0.5, 0.5])}, time=2.0)
        components = [
            {"k": 1, "ell": 3, "lambdas": [0.5, 1.2], "masses_tilde": [0.5, 0.5]},
            {"k": 0, "ell": 1, "lambdas": [0.9, 0.4], "masses_tilde": [0.25, 0.75]},
        ]
        back = cli._read_pseudo_state({"n": 3, "components": components, "t": 2})
        assert (back.n, back.time, back.family.keys) == (st.n, st.time, st.family.keys)
        for name in ("offsets", "radii", "masses"):
            assert getattr(back.family, name).tobytes() == getattr(st.family, name).tobytes()
        assert cli._read_pseudo_state({"n": 3, "components": components}).time == 0.0

    def test_csv_header(self):
        text = state_trajectory_csv(TWO_ATOM, [0.0, 1.0])
        lines = text.strip().split("\n")
        assert lines[0] == "t,H_total,rt2_k0_l1_j1,rt2_k0_l1_j2"
        assert len(lines) == 3


class TestVerifyLines:
    @pytest.mark.parametrize(
        "line, defect, fails, passes",
        [
            ("pseudo-normalization", "evolved-masses", 1e-12, 5e-13),
            ("pseudo-growth-c-d-one", "untilded-masses", 1e-12, 5e-13),
            ("pseudo-ode-residual", "toda-rhs", 5e-6, 2e-6),
        ],
    )
    def test_verify_line_fails_on_a_skew(self, monkeypatch, line, defect, fails, passes):
        # a relative skew of the tilde masses that evolve writes, of the
        # masses r^2 = rt^2 / lambda^k of the associated measure, or of the
        # Toda right-hand sides that the ODE residual differences against,
        # fails the verify-all line from `fails` up, and `passes` passes: the
        # README records the smallest failing skew of 1, 2, 5 per decade
        evolved, untilde, rhs = pseudo_toda._evolved_masses, pseudo_toda._untilde, pseudo_toda._rhs_rows

        def observed(skew):
            if defect == "evolved-masses":
                monkeypatch.setattr(pseudo_toda, "_evolved_masses", lambda m, x, t: evolved(m, x, t) * (1.0 + skew))
            elif defect == "untilded-masses":
                monkeypatch.setattr(pseudo_toda, "_untilde", lambda k, lam, mt: (lam, untilde(k, lam, mt)[1] * (1.0 + skew)))
            else:
                monkeypatch.setattr(pseudo_toda, "_rhs_rows", lambda b, a: tuple(x * (1.0 + skew) for x in rhs(b, a)))
            results = {r.name: r for r in verify.check_pseudo_toda(verify._SEED + 7, ode_times=(0.5,))}
            return results[line]

        assert not observed(fails).passed
        assert observed(passes).passed
