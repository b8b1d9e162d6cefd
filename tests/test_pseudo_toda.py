import numpy as np
import pytest

from toda_kdq import kdq, pseudo_toda, sphere, verify
from toda_kdq.errors import RankDeficiencyError
from toda_kdq.moment_1d import DiscreteMeasure, JacobiMatrix, jacobi_from_measure, spectral_data_from_jacobi
from toda_kdq.toda_1d import hamiltonian_ab
from toda_kdq.pseudo_toda import (
    PseudoTodaState,
    component_hamiltonian,
    component_jacobi,
    component_ode_residual,
    evolve,
    flaschka_surfaces,
    normalization_invariant,
    physical_surfaces,
    state_to_measure,
    state_trajectory_csv,
    tilde_inverse,
    tilde_transform,
    total_hamiltonian,
)

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


class TestTildeTransform:
    def test_degree_zero_identity(self):
        lt, mt = tilde_transform(0, [0.3, 0.8], [0.4, 0.6])
        assert np.allclose(lt, [0.09, 0.64])
        assert np.allclose(mt, [0.4, 0.6])

    def test_plug_in(self):
        lt, mt = tilde_transform(2, [2.0], [0.25])
        assert lt[0] == 4.0 and mt[0] == 1.0

    def test_normalization_equivalence(self):
        # sum lambda^k r^2 = 1  iff  sum of tilde masses = 1
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.3, 1.5, size=4)
        r2 = rng.uniform(0.2, 1.0, size=4)
        r2 /= np.sum(lam**3 * r2)
        _, mt = tilde_transform(3, lam, r2)
        assert mt.sum() == pytest.approx(1.0, abs=1e-14)

    def test_annihilation_warning(self):
        with pytest.warns(UserWarning):
            tilde_transform(2, [0.0, 1.0], [0.5, 0.5])

    def test_inverse(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.2, 2.0, size=5)
        r2 = rng.uniform(0.1, 1.0, size=5)
        lt, mt = tilde_transform(3, lam, r2)
        lam_back, r2_back = tilde_inverse(3, lt, mt)
        assert np.max(np.abs(lam_back - lam)) < 1e-14
        assert np.max(np.abs(r2_back - r2)) < 1e-14

    def test_inverse_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            tilde_inverse(1, [0.0], [1.0])


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

    def test_eigenvalues_fixed(self):
        ev = evolve(TWO_ATOM, 5.0)
        assert np.array_equal(ev.family.component((0, 1))[0], TWO_ATOM.family.component((0, 1))[0])


class TestComponentJacobi:
    def test_single_atom(self):
        st = PseudoTodaState(3, {(0, 1): ([0.7], [1.0])})
        jac = component_jacobi(st, (0, 1))
        assert jac.n == 1 and jac.diag[0] == pytest.approx(0.49)  # tilde radius 0.7^2

    def test_two_atom_mean_variance(self):
        jac = component_jacobi(TWO_ATOM, (0, 1))
        assert jac.diag[-1] == pytest.approx(0.625)
        assert jac.offdiag[0] ** 2 == pytest.approx(0.140625)

    def test_time_zero_uses_masses_as_given(self):
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])})
        ref = jacobi_from_measure(DiscreteMeasure([0.2**2, 0.5**2, 0.9**2], [0.3, 0.3, 0.4], half_line=True))
        jac = component_jacobi(st, (0, 1))
        assert jac.diag.tobytes() == ref.diag.tobytes() and jac.offdiag.tobytes() == ref.offdiag.tobytes()

    def test_matches_lanczos_on_evolved_masses(self):
        # where Lanczos on the late masses still holds its digits
        rng = np.random.default_rng(8)
        st = full_state(rng, kmax=1, atoms=4)
        for t in (-0.7, 0.3, 2.0):
            ev = evolve(st, t)
            for key, lambdas, masses_tilde in ev.family.items():
                ref = jacobi_from_measure(DiscreteMeasure(lambdas**2, masses_tilde, half_line=True))
                jac = component_jacobi(ev, key)
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
        jac = component_jacobi(ev, (0, 1))
        h = component_hamiltonian(ev, (0, 1))
        assert abs(hamiltonian_ab(jac) - h) / h < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(jac.to_dense()) - lambdas**2)) < 1e-12

    def test_spectral_data_of_a_late_state(self):
        # the corner masses of the t = 100 matrix underflow: 1.1e-18, then 0.0
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9, 1.2], [0.1, 0.2, 0.3, 0.4])})
        eigenvalues, masses = spectral_data_from_jacobi(component_jacobi(evolve(st, 100.0), (0, 1)))
        assert np.max(np.abs(eigenvalues - np.array([0.2, 0.5, 0.9, 1.2]) ** 2)) < 1e-12
        assert (masses >= 0.0).all() and abs(masses.sum() - 1.0) < 1e-12

    def test_masses_given_at_a_late_time(self):
        # reweighted back to time 0 these masses span e^{-280}: Lanczos runs on
        # them as given, and nothing is flowed
        st = PseudoTodaState(3, {(0, 1): ([0.2, 0.5, 0.9, 1.2], [0.25] * 4)}, time=100.0)
        ref = jacobi_from_measure(DiscreteMeasure(np.array([0.2, 0.5, 0.9, 1.2]) ** 2, [0.25] * 4, half_line=True))
        jac = component_jacobi(st, (0, 1))
        assert jac.diag.tobytes() == ref.diag.tobytes() and jac.offdiag.tobytes() == ref.offdiag.tobytes()

    def test_isospectral_along_evolution(self):
        rng = np.random.default_rng(3)
        st = full_state(rng, kmax=1, atoms=4)
        for key in st.family.keys:
            lam0 = spectral_data_from_jacobi(component_jacobi(st, key))[0]
            for t in (0.5, 2.0, 8.0):
                lam = spectral_data_from_jacobi(component_jacobi(evolve(st, t), key))[0]
                assert np.max(np.abs(lam - lam0)) < 1e-10


class TestHamiltonians:
    def test_single_atom(self):
        st = PseudoTodaState(3, {(0, 1): ([1.0], [1.0])})
        assert component_hamiltonian(st, (0, 1)) == 2.0

    def test_two_atom(self):
        assert component_hamiltonian(TWO_ATOM, (0, 1)) == pytest.approx(2.125)

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
        for key in st.family.keys:
            jac = component_jacobi(st, key)
            h_entries = 4.0 * (np.sum(jac.offdiag**2) + 0.5 * np.sum(jac.diag**2))
            assert abs(h_entries - component_hamiltonian(st, key)) < 1e-10

    def test_verify_check_reads_jacobi_entries(self, monkeypatch):
        # a Jacobi matrix off by 1e-9 must fail pseudo-hamiltonian-constant
        def skewed(state, idx):
            jac = component_jacobi(state, idx)
            return JacobiMatrix(jac.diag, jac.offdiag * (1.0 + 1e-9))

        monkeypatch.setattr(pseudo_toda, "component_jacobi", skewed)
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
        assert component_ode_residual(st, (0, 1), 0.0, 1e-4) < 1e-12

    def test_two_atom_at_origin(self):
        assert component_ode_residual(TWO_ATOM, (0, 1), 0.0, 1e-4) < 1e-6

    def test_quadratic_in_dt(self):
        r_coarse = component_ode_residual(TWO_ATOM, (0, 1), 0.3, 2e-4)
        r_fine = component_ode_residual(TWO_ATOM, (0, 1), 0.3, 1e-4)
        assert 3.0 < r_coarse / r_fine < 5.0


class TestSurfaces:
    def test_single_component_constant(self):
        jac = component_jacobi(TWO_ATOM, (0, 1))
        a1, b1 = flaschka_surfaces(TWO_ATOM, 1, E3)
        assert a1 == pytest.approx(jac.offdiag[0])
        assert b1 == pytest.approx(jac.diag[0])
        a2, b2 = flaschka_surfaces(TWO_ATOM, 2, E3)
        assert a2 == 0.0  # free-end convention at the last site
        assert b2 == pytest.approx(jac.diag[1])

    def test_two_component_sum(self):
        st = PseudoTodaState(
            3,
            {
                (0, 1): ([0.5, 1.0], [0.5, 0.5]),
                (1, 2): ([0.3, 0.8], [0.4, 0.6]),
            },
        )
        th = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        jac0 = component_jacobi(st, (0, 1))
        jac1 = component_jacobi(st, (1, 2))
        y1 = sphere.eval_harmonic(3, (1, 2), th)
        a1, b1 = flaschka_surfaces(st, 1, th)
        assert a1 == pytest.approx(jac0.offdiag[0] + jac1.offdiag[0] * y1)
        assert b1 == pytest.approx(jac0.diag[0] + jac1.diag[0] * y1)

    def test_projection_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        st = full_state(rng, kmax=2, atoms=3)
        pts, wts = sphere.sphere_nodes(3, 8)
        surf = np.array([flaschka_surfaces(st, 1, p)[0] for p in pts])
        for key in ((0, 1), (1, 3), (2, 5)):
            jac = component_jacobi(st, key)
            y_vals = np.array([sphere.eval_harmonic(3, key, p) for p in pts])
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

    def test_physical_single_component(self):
        surf = physical_surfaces(TWO_ATOM, 1, E3)
        assert surf.x == pytest.approx(1.0)  # empty product, k=0 gauge is 1
        jac = component_jacobi(TWO_ATOM, (0, 1))
        assert surf.y == pytest.approx(-2.0 * jac.diag[0])
        assert surf.x_partials[-1] == surf.x

    def test_physical_product_form(self):
        st = PseudoTodaState(3, {(1, 1): ([0.5, 1.0], [0.5, 0.5])})
        jac = component_jacobi(st, (1, 1))
        surf = physical_surfaces(st, 2, E3)
        y1 = sphere.eval_harmonic(3, (1, 1), E3)
        expected = 4.0 * jac.offdiag[0] ** 2 * 1.0 * y1  # gauge max(1,1)^{-1} = 1
        assert surf.x == pytest.approx(expected)

    def test_partial_sums_converge_for_decaying_data(self):
        # n=2 gauge is identically 1; decay must come from the couplings
        rng = np.random.default_rng(8)
        comps = {}
        for k in range(8):
            for ell in range(1, sphere.dim_harmonics(2, k) + 1):
                scale = 0.5**k
                lam = np.sort(rng.uniform(0.1, 0.4, 2)) * scale
                while np.min(np.diff(lam)) < 1e-6:
                    lam = np.sort(rng.uniform(0.1, 0.4, 2)) * scale
                m = rng.uniform(0.2, 1.0, 2)
                comps[(k, ell)] = (lam, m / m.sum())
        st = PseudoTodaState(2, comps)
        th = np.array([np.cos(0.9), np.sin(0.9)])
        surf = physical_surfaces(st, 2, th)
        increments = np.abs(np.diff(np.asarray(surf.x_partials)))
        assert increments[-1] < 1e-3 * max(abs(surf.x), 1e-30) + 1e-12


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
            p = kdq.KDQPoint(mod * np.exp(1j * np.pi / 4), E3)
            val = kdq.markov_stieltjes(mu, p)
            assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(11)
        st = full_state(rng, kmax=1, atoms=3)
        back = PseudoTodaState.from_dict(st.to_dict())
        assert back.family.keys == st.family.keys
        for key in st.family.keys:
            assert np.allclose(back.family.component(key)[0], st.family.component(key)[0])
            assert np.allclose(back.family.component(key)[1], st.family.component(key)[1])

    def test_csv_header(self):
        text = state_trajectory_csv(TWO_ATOM, [0.0, 1.0])
        lines = text.strip().split("\n")
        assert lines[0] == "t,H_total,rt2_k0_l1_j1,rt2_k0_l1_j2"
        assert len(lines) == 3
