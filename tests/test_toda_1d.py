import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_kdq import toda_1d
from toda_kdq.errors import PositivityLossError
from toda_kdq.moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    jacobi_eigenvalues,
    jacobi_from_measure,
    spectral_data_from_jacobi,
)
from toda_kdq.toda_1d import (
    TodaStatePhysical,
    flaschka_inverse,
    flaschka_map,
    hamiltonian_ab,
    hamiltonian_xy,
    integrate_ensemble,
    integrate_toda,
    lax_matrices,
    spectral_solve,
    toda_rhs,
    trajectory_to_csv,
)


def random_state(rng, n):
    return JacobiMatrix(offdiag=rng.uniform(0.3, 1.0, size=n - 1), diag=rng.uniform(-1.0, 1.0, size=n))


SYMMETRIC_N2 = JacobiMatrix(offdiag=[0.5], diag=[0.0, 0.0])


def closed_form_n2(t):
    return 0.5 / np.cosh(t), 0.5 * np.tanh(t), -0.5 * np.tanh(t)


def reference_steps(s0, n_steps, dt):
    """The states (a, b) after steps 1..n_steps, one state alone, as
    integrate_toda ran before the ensemble engine."""

    def rhs(a, b):
        asq = a**2
        return a * (b[1:] - b[:-1]), 2.0 * (np.concatenate([asq, [0.0]]) - np.concatenate([[0.0], asq]))

    a, b = s0.offdiag.copy(), s0.diag.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            ka1, kb1 = rhs(a, b)
            ka2, kb2 = rhs(a + 0.5 * dt * ka1, b + 0.5 * dt * kb1)
            ka3, kb3 = rhs(a + 0.5 * dt * ka2, b + 0.5 * dt * kb2)
            ka4, kb4 = rhs(a + dt * ka3, b + dt * kb3)
            a = a + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
            b = b + (dt / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
            yield a, b


def reference_rk4(s0, t_final, dt):
    a_rows, b_rows = [s0.offdiag], [s0.diag]
    for a, b in reference_steps(s0, int(round(t_final / dt)), dt):
        a_rows.append(a)
        b_rows.append(b)
    return np.array(a_rows).reshape(len(a_rows), s0.n - 1), np.array(b_rows)


def reference_error(states, n_steps, dt):
    """The PositivityLossError message of a check after every step, or None.

    Each state fails at its first step with a non-finite entry or else a
    coupling <= 0; the ensemble fails at the first such step, naming the first
    state with a non-finite entry there, or else the first with a coupling <= 0."""
    failures = []
    for i, s in enumerate(states):
        for step, (a, b) in enumerate(reference_steps(s, n_steps, dt), start=1):
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                failures.append((step, 0, i, f"non-finite state at t = {step * dt}"))
                break
            if (a <= 0.0).any():
                failures.append((step, 1, i, f"coupling left the positive cone at t = {step * dt}; reduce dt"))
                break
    if not failures:
        return None
    _, _, i, message = min(failures)
    return message if len(states) == 1 else f"state {i} (N = {states[i].n}): " + message


def reference_csv(traj):
    """Row by row, through a state and the eigenvalues of its Jacobi matrix alone."""
    n = traj.b.shape[1]
    header = (
        ["t"]
        + [f"a_{j}" for j in range(1, n)]
        + [f"b_{j}" for j in range(1, n + 1)]
        + ["H"]
        + [f"lambda_{j}" for j in range(1, n + 1)]
    )
    lines = [",".join(header)]
    for i in range(len(traj)):
        state = traj.state(i)
        jac = lax_matrices(state)[0]
        lam = jacobi_eigenvalues(jac.diag[None], jac.offdiag[None])[0]
        row = [traj.times[i]] + list(traj.a[i]) + list(traj.b[i]) + [hamiltonian_ab(state)] + list(lam)
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def reference_spectral_solve(s0, t):
    """The spectral-measure route: corner masses reweighted by e^{-2 lambda t}, then Lanczos."""
    eigenvalues, masses = spectral_data_from_jacobi(s0)
    masses = toda_1d._evolved_masses(masses, eigenvalues, t)
    return jacobi_from_measure(DiscreteMeasure(eigenvalues, masses))


def qr_rows(diag, offdiag, times):
    """Diagonals (T, N) and couplings (T, N-1) of `spectral_solve` at `times`."""
    traj = spectral_solve(JacobiMatrix(diag, offdiag), times)
    return traj.b, traj.a


class TestHamiltonians:
    def test_xy_rest_state(self):
        assert hamiltonian_xy(TodaStatePhysical(x=[0.0, 0.0], y=[0.0, 0.0])) == pytest.approx(1.0)

    def test_xy_example(self):
        s = TodaStatePhysical(x=[np.log(2.0), 0.0], y=[1.0, -1.0])
        assert hamiltonian_xy(s) == pytest.approx(3.0)

    def test_xy_free_limit(self):
        s = TodaStatePhysical(x=[-50.0, 50.0], y=[2.0, 1.0])
        assert hamiltonian_xy(s) == pytest.approx(2.5)

    def test_xy_overflow(self):
        with pytest.raises(OverflowError):
            hamiltonian_xy(TodaStatePhysical(x=[2000.0, 0.0], y=[0.0, 0.0]))

    def test_ab_example(self):
        assert hamiltonian_ab(SYMMETRIC_N2) == pytest.approx(1.0)

    def test_ab_equals_xy(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            phys = TodaStatePhysical(x=rng.uniform(-1, 1, n), y=rng.uniform(-1, 1, n))
            assert hamiltonian_ab(flaschka_map(phys)) == pytest.approx(hamiltonian_xy(phys))

    def test_ab_equals_twice_trace_l_squared(self):
        rng = np.random.default_rng(1)
        for n in (2, 5):
            s = random_state(rng, n)
            lax, _ = lax_matrices(s)
            tr2 = float(np.trace(lax.to_dense() @ lax.to_dense()))
            assert abs(2.0 * tr2 - hamiltonian_ab(s)) < 1e-12


class TestFlaschkaMaps:
    def test_rest_state(self):
        s = flaschka_map(TodaStatePhysical(x=[0.0, 0.0], y=[0.0, 0.0]))
        assert np.allclose(s.offdiag, [0.5]) and np.allclose(s.diag, [0.0, 0.0])

    def test_gauge_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        s1 = flaschka_map(TodaStatePhysical(x=x, y=y))
        s2 = flaschka_map(TodaStatePhysical(x=x + 3.7, y=y))
        # the shift perturbs the differences x_j - x_{j+1} by at most 1 ulp
        assert np.allclose(s1.offdiag, s2.offdiag, rtol=1e-14, atol=0.0)
        assert np.array_equal(s1.diag, s2.diag)

    def test_momentum_sign(self):
        s = flaschka_map(TodaStatePhysical(x=[0.0, 0.0], y=[2.0, -2.0]))
        assert np.allclose(s.diag, [-1.0, 1.0])

    def test_inverse_example(self):
        phys = flaschka_inverse(SYMMETRIC_N2, gauge=0.0)
        assert np.allclose(phys.x, [0.0, 0.0], atol=1e-15)
        assert np.allclose(phys.y, [0.0, 0.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for n in (2, 5):
            s = random_state(rng, n)
            back = flaschka_map(flaschka_inverse(s, gauge=rng.normal()))
            assert np.max(np.abs(back.offdiag - s.offdiag)) < 1e-12
            assert np.max(np.abs(back.diag - s.diag)) < 1e-12

    def test_gauge_shift(self):
        phys0 = flaschka_inverse(SYMMETRIC_N2, gauge=0.0)
        phys1 = flaschka_inverse(SYMMETRIC_N2, gauge=1.5)
        assert np.allclose(phys1.x - phys0.x, 1.5)

    def test_configuration_class_roundtrip(self):
        rng = np.random.default_rng(4)
        phys = TodaStatePhysical(x=rng.uniform(-1, 1, 4), y=rng.uniform(-1, 1, 4))
        back = flaschka_inverse(flaschka_map(phys), gauge=phys.x[0])
        assert np.max(np.abs(back.x - phys.x)) < 1e-12
        assert np.max(np.abs(back.y - phys.y)) < 1e-14


class TestRhs:
    def test_equal_b_freezes_couplings(self):
        s = JacobiMatrix(offdiag=[0.3, 0.9], diag=[0.7, 0.7, 0.7])
        da, _ = toda_rhs(s)
        assert np.allclose(da, 0.0)

    def test_symmetric_state(self):
        da, db = toda_rhs(SYMMETRIC_N2)
        assert np.allclose(da, [0.0])
        assert np.allclose(db, [0.5, -0.5])

    def test_decoupled_limit(self):
        s = JacobiMatrix(offdiag=[1e-9, 1e-9], diag=[0.1, -0.3, 0.5])
        _, db = toda_rhs(s)
        assert np.max(np.abs(db)) < 1e-15


class TestIntegration:
    def test_decoupled_state_is_static(self):
        s = JacobiMatrix(offdiag=[1e-8], diag=[0.4, -0.6])
        traj = integrate_toda(s, 1.0, 1e-2)
        assert np.max(np.abs(traj.b - s.diag)) < 1e-12

    def test_closed_form_n2(self):
        traj = integrate_toda(SYMMETRIC_N2, 5.0, 1e-3)
        worst = 0.0
        for i, t in enumerate(traj.times):
            a_ref, b1_ref, b2_ref = closed_form_n2(t)
            worst = max(
                worst,
                abs(traj.a[i, 0] - a_ref),
                abs(traj.b[i, 0] - b1_ref),
                abs(traj.b[i, 1] - b2_ref),
            )
        assert worst < 1e-6

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (4e-2, 2e-2):
            traj = integrate_toda(SYMMETRIC_N2, 2.0, dt)
            s_exact = spectral_solve(SYMMETRIC_N2, [2.0]).state(0)
            last = traj.state(-1)
            errs.append(
                max(np.max(np.abs(last.offdiag - s_exact.offdiag)), np.max(np.abs(last.diag - s_exact.diag)))
            )
        assert errs[0] / errs[1] > 12.0  # ~16x for order 4

    def test_positivity_loss_reported(self):
        stiff = JacobiMatrix(offdiag=[2.0], diag=[-4.0, 4.0])
        with pytest.raises(PositivityLossError, match=r"^non-finite state at t = 1\.5$"):
            integrate_toda(stiff, 5.0, 0.5)
        strong = JacobiMatrix(offdiag=[1e3], diag=[0.0, 0.0])
        with pytest.raises(PositivityLossError, match=r"^coupling left the positive cone at t = 0\.5; reduce dt$"):
            integrate_toda(strong, 5.0, 0.5)

    def test_ensemble_error_names_state(self):
        calm = JacobiMatrix(offdiag=[0.3, 0.2], diag=[0.1, 0.0, -0.1])
        stiff = JacobiMatrix(offdiag=[2.0], diag=[-4.0, 4.0])
        strong = JacobiMatrix(offdiag=[1e3], diag=[0.0, 0.0])
        with pytest.raises(PositivityLossError, match=r"^state 1 \(N = 2\): non-finite state at t = 1\.5$"):
            integrate_ensemble([calm, stiff], 5.0, 0.5)
        with pytest.raises(
            PositivityLossError, match=r"^state 2 \(N = 2\): coupling left the positive cone at t = 0\.5; reduce dt$"
        ):
            integrate_ensemble([calm, calm, strong], 5.0, 0.5)
        # the joints on both sides of the stiff state stay out of a' as it blows up
        with pytest.raises(PositivityLossError, match=r"^state 1 \(N = 2\): non-finite state at t = 1\.5$"):
            integrate_ensemble([calm, stiff, calm], 5.0, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["calm", "stiff", "strong", "huge", "late"]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        late=st.floats(9.49, 9.51),
        n_steps=st.integers(1, 200),
        dt=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_ensemble_error_equals_check_after_every_step(self, kinds, seed, late, n_steps, dt):
        # failing states anywhere among calm ones, next to each other too:
        # "strong" leaves the cone and "huge" overflows at step 1, and at
        # dt = 0.1 "late" first fails anywhere from step 30 to past 200
        rng = np.random.default_rng(seed)
        fixed = {
            "stiff": JacobiMatrix(offdiag=[2.0], diag=[-4.0, 4.0]),
            "strong": JacobiMatrix(offdiag=[1e3], diag=[0.0, 0.0]),
            "huge": JacobiMatrix(offdiag=[1e200], diag=[0.0, 0.0]),
            "late": JacobiMatrix(offdiag=[2.0], diag=[-late, late]),
        }
        states = [fixed[k] if k in fixed else random_state(rng, int(rng.integers(1, 6))) for k in kinds]
        expected = reference_error(states, n_steps, dt)
        if expected is None:
            trajs = integrate_ensemble(states, n_steps * dt, dt)
            for s, traj in zip(states, trajs):
                assert traj.a.tobytes() == reference_rk4(s, n_steps * dt, dt)[0].tobytes()
        else:
            with pytest.raises(PositivityLossError, match=f"^{re.escape(expected)}$"):
                integrate_ensemble(states, n_steps * dt, dt)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 200),
        dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
    )
    def test_ensemble_equals_one_state_loop(self, sizes, seed, n_steps, dt):
        rng = np.random.default_rng(seed)
        states = [random_state(rng, n) for n in sizes]
        trajs = integrate_ensemble(states, n_steps * dt, dt)
        assert len(trajs) == len(states)
        for s, traj in zip(states, trajs):
            ref_a, ref_b = reference_rk4(s, n_steps * dt, dt)
            assert traj.a.tobytes() == ref_a.tobytes() and traj.a.shape == ref_a.shape
            assert traj.b.tobytes() == ref_b.tobytes() and traj.b.shape == ref_b.shape
            assert traj.times.tobytes() == (dt * np.arange(n_steps + 1)).tobytes()

    def test_isospectrality_and_energy(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 5)
        traj = integrate_toda(s, 2.0, 1e-3)
        lam0 = spectral_data_from_jacobi(lax_matrices(s)[0])[0]
        h0 = hamiltonian_ab(s)
        for i in range(0, len(traj), 100):
            state = traj.state(i)
            lam = spectral_data_from_jacobi(lax_matrices(state)[0])[0]
            assert np.max(np.abs(lam - lam0)) < 1e-8
            assert abs(hamiltonian_ab(state) - h0) < 1e-8


class TestLax:
    def test_matrices(self):
        lax, bmat = lax_matrices(SYMMETRIC_N2)
        assert np.allclose(lax.to_dense(), [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(bmat, [[0.0, 0.5], [-0.5, 0.0]])

    def test_commutator_is_rhs(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 4)
        lax, bmat = lax_matrices(s)
        comm = bmat @ lax.to_dense() - lax.to_dense() @ bmat
        da, db = toda_rhs(s)
        assert np.allclose(np.diag(comm), db, atol=1e-14)
        assert np.allclose(np.diag(comm, 1), da, atol=1e-14)
        assert abs(np.trace(comm)) < 1e-14

    def test_finite_difference_lax_equation(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 4)
        dt = 1e-5
        plus = spectral_solve(s, [dt]).state(0)
        minus = spectral_solve(s, [-dt]).state(0)
        l_dot = (lax_matrices(plus)[0].to_dense() - lax_matrices(minus)[0].to_dense()) / (2 * dt)
        lax, bmat = lax_matrices(s)
        comm = bmat @ lax.to_dense() - lax.to_dense() @ bmat
        assert np.max(np.abs(l_dot - comm)) < 1e-8


class TestSpectralSolve:
    def test_time_zero_roundtrip(self):
        rng = np.random.default_rng(8)
        s = random_state(rng, 6)
        back = spectral_solve(s, [0.0]).state(0)
        assert np.max(np.abs(back.offdiag - s.offdiag)) < 1e-12
        assert np.max(np.abs(back.diag - s.diag)) < 1e-12

    def test_closed_form_n2(self):
        for t in (-3.0, 0.5, 4.0):
            s = spectral_solve(SYMMETRIC_N2, [t]).state(0)
            a_ref, b1_ref, b2_ref = closed_form_n2(t)
            assert s.offdiag[0] == pytest.approx(a_ref, abs=1e-12)
            assert s.diag[0] == pytest.approx(b1_ref, abs=1e-12)
            assert s.diag[1] == pytest.approx(b2_ref, abs=1e-12)

    def test_matches_rk4(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6):
            s = random_state(rng, n)
            traj = integrate_toda(s, 3.0, 1e-3)
            for i in range(0, len(traj), 300):
                sp = spectral_solve(s, [traj.times[i]]).state(0)
                st = traj.state(i)
                assert np.max(np.abs(sp.offdiag - st.offdiag)) < 1e-6
                assert np.max(np.abs(sp.diag - st.diag)) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
    )
    def test_many_times_equal_single_times(self, n, seed, times):
        s = random_state(np.random.default_rng(seed), n)
        many = spectral_solve(s, times)
        assert len(many) == len(times)
        for t, sp in zip(times, map(many.state, range(len(many)))):
            one = spectral_solve(s, [t]).state(0)
            assert isinstance(one, JacobiMatrix)
            assert sp.offdiag.tobytes() == one.offdiag.tobytes() and sp.diag.tobytes() == one.diag.tobytes()

    def test_mass_renormalization(self):
        # t is capped so the evolved off-diagonals e^{-sum(gaps) t} stay above
        # the double-precision noise floor of the reconstruction
        rng = np.random.default_rng(10)
        s = random_state(rng, 5)
        for t in (0.5, 5.0, 10.0):
            _, masses = spectral_data_from_jacobi(lax_matrices(spectral_solve(s, [t]).state(0))[0])
            assert abs(np.sum(masses) - 1.0) < 1e-12


class TestQrFlow:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
    )
    def test_matches_spectral_measure_route(self, n, seed, times):
        # spread spectra (gaps >= 0.1 in [-2, 2]) and masses in [0.2, 1] keep the
        # reweighted masses of the oracle above 1e-8, where its Lanczos run
        # holds its digits; the worst seen over 24000 such pairs was 1.9e-13
        rng = np.random.default_rng(seed)
        while True:
            lam = np.sort(rng.uniform(-2.0, 2.0, n))
            if n < 2 or np.min(np.diff(lam)) >= 0.1:
                break
        masses = rng.uniform(0.2, 1.0, n)
        s0 = jacobi_from_measure(DiscreteMeasure(lam, masses / masses.sum()))
        diag, offdiag = qr_rows(s0.diag, s0.offdiag, times)
        assert diag.shape == (len(times), n) and offdiag.shape == (len(times), n - 1)
        for t, b, a in zip(times, diag, offdiag):
            ref = reference_spectral_solve(s0, t)
            assert np.max(np.abs(b - ref.diag)) < 1e-11
            assert np.max(np.abs(a - ref.offdiag), initial=0.0) < 1e-11

    def test_closed_form_n2_long_horizon(self):
        # about 2 * 20 / 8 = 5 checkpoints each way
        t = np.linspace(-20.0, 20.0, 801)
        diag, offdiag = qr_rows([0.0, 0.0], [0.5], t)
        a_ref, b1_ref, b2_ref = closed_form_n2(t)
        assert np.max(np.abs(offdiag[:, 0] - a_ref)) < 1e-14
        assert np.max(np.abs(diag[:, 0] - b1_ref)) < 1e-14
        assert np.max(np.abs(diag[:, 1] - b2_ref)) < 1e-14
        assert np.max(np.abs(offdiag[:, 0] / a_ref - 1.0)) < 1e-12  # relative, down to a = 4e-9

    def test_time_zero_is_the_input(self):
        s = JacobiMatrix(offdiag=[0.5, 0.3], diag=[0.1, 0.0, -0.2])
        back = spectral_solve(s, [0.0]).state(0)
        assert back.diag.tobytes() == s.diag.tobytes() and back.offdiag.tobytes() == s.offdiag.tobytes()
        diag, offdiag = qr_rows(s.diag, s.offdiag, [-0.0, 1.0, 0.0])
        assert diag[0].tobytes() == diag[2].tobytes() == s.diag.tobytes()
        assert offdiag[0].tobytes() == offdiag[2].tobytes() == s.offdiag.tobytes()

    def test_unsorted_and_repeated_times(self):
        s = random_state(np.random.default_rng(11), 7)
        times = np.array([3.0, -7.5, 0.25, 3.0, -0.1, 12.0, 0.0, -7.5])
        diag, offdiag = qr_rows(s.diag, s.offdiag, times)
        order = np.argsort(times, kind="stable")
        d_sorted, o_sorted = qr_rows(s.diag, s.offdiag, times[order])
        assert diag[order].tobytes() == d_sorted.tobytes() and offdiag[order].tobytes() == o_sorted.tobytes()
        assert diag[0].tobytes() == diag[3].tobytes() and diag[1].tobytes() == diag[7].tobytes()

    def test_isospectral_far_out(self):
        # many checkpoints each way; the spectrum and the trace hold to rounding
        s = random_state(np.random.default_rng(12), 10)
        lam0 = np.linalg.eigvalsh(s.to_dense())
        diag, offdiag = qr_rows(s.diag, s.offdiag, np.linspace(-40.0, 40.0, 81))
        lam = np.array([np.linalg.eigvalsh(JacobiMatrix(b, a).to_dense()) for b, a in zip(diag, offdiag)])
        assert np.max(np.abs(lam - lam0)) < 1e-12
        assert np.max(np.abs(diag.sum(axis=1) - lam0.sum())) < 1e-12

    def test_one_site(self):
        diag, offdiag = qr_rows([0.7], [], [-1.0, 0.0, 5.0])
        assert diag.tolist() == [[0.7]] * 3 and offdiag.shape == (3, 0)

    def test_bad_times_and_horizons(self):
        with pytest.raises(ValueError, match="times must be finite"):
            qr_rows([0.0, 0.0], [0.5], [0.0, np.nan])
        with pytest.raises(OverflowError, match="QR checkpoints"):
            qr_rows([1e21, 0.0], [1.0], [5.0])
        with pytest.raises(OverflowError, match=r"^the spectrum of L has width 0\.0, outside"):
            qr_rows([1e21, 1e21], [1.0], [5.0])
        with pytest.raises(OverflowError, match=r"^the spectrum of L has width inf, outside"):
            qr_rows([1e308, -1e308], [1.0], [5.0])
        with pytest.raises(PositivityLossError, match=r"^a coupling underflowed to 0 at t = -3000\.0$"):
            qr_rows([0.0, 1.0], [1.0], [1.0, -3000.0])

    def test_peak_memory_is_blocked(self):
        # the perfbench N = 64 state at 101 times: stacking all 101 (64 x 64)
        # matrices at once would hold 3.3 MB per copy
        rng = np.random.default_rng(5)
        a = rng.uniform(0.3, 1.0, 63)
        b = rng.uniform(-1.0, 1.0, 64)
        tracemalloc.start()
        try:
            spectral_solve(JacobiMatrix(b, a), 0.01 * np.arange(101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestAsymptotics:
    @staticmethod
    def limits(s0, t):
        """spectral_solve at +-t, the scattering tolerance 10 e^{-gap t} (gap the
        smallest eigenvalue spacing) and the trace deviation; sorted b holds the
        spectrum within that tolerance."""
        lam = jacobi_eigenvalues(s0.diag[None], s0.offdiag[None])[0]
        tol = max(float(10.0 * np.exp(-np.min(np.diff(lam)) * t)), 1e-12)
        traj = spectral_solve(s0, [t, -t])
        assert np.max(np.abs(np.sort(traj.b, axis=1) - lam)) <= tol
        return traj, tol, np.max(np.abs(traj.b.sum(axis=1) - lam.sum()))

    def test_n2_values(self):
        traj, tol, trace_dev = self.limits(SYMMETRIC_N2, 10.0)
        assert np.max(traj.a) <= tol and trace_dev <= 1e-9
        assert traj.a[0, 0] == pytest.approx(0.5 / np.cosh(10.0), rel=1e-9)

    def test_b_limits_are_spectrum(self):
        # well-separated spectrum keeps the reconstruction at t = 12
        # representable while the scattering limit is already ~1e-4 deep
        s = JacobiMatrix(offdiag=[0.4, 0.4, 0.4], diag=[-1.5, -0.5, 0.5, 1.5])
        traj, tol, trace_dev = self.limits(s, 12.0)
        assert trace_dev < 1e-10
        assert np.max(traj.a) < tol


class TestCsv:
    def test_header_and_rows(self):
        traj = integrate_toda(SYMMETRIC_N2, 0.01, 1e-2)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,a_1,b_1,b_2,H,lambda_1,lambda_2"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0.0" and float(first[4]) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 30),
    )
    def test_equals_row_by_row_rendering(self, sizes, seed, n_steps):
        # ensemble trajectories are strided views of one output
        rng = np.random.default_rng(seed)
        for traj in integrate_ensemble([random_state(rng, n) for n in sizes], n_steps * 1e-2, 1e-2):
            assert trajectory_to_csv(traj) == reference_csv(traj)
