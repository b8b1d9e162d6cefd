import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda_kdq import toda_1d, verify
from toda_kdq.errors import PositivityLossError
from toda_kdq.moment_1d import (
    DiscreteMeasure,
    JacobiMatrix,
    jacobi_eigenvalues,
    jacobi_from_measure,
    spectral_data_from_jacobi,
)
from toda_kdq.toda_1d import (
    Trajectory,
    _hamiltonian,
    integrate_ensemble,
    integrate_toda,
    spectral_solve,
    trajectory_to_csv,
)

from test_acceptance import verify_all_keywords


def random_state(rng, n):
    return JacobiMatrix(offdiag=rng.uniform(0.3, 1.0, size=n - 1), diag=rng.uniform(-1.0, 1.0, size=n))


SYMMETRIC_N2 = JacobiMatrix(offdiag=[0.5], diag=[0.0, 0.0])


def flaschka(x, y):
    """The state of displacements x and momenta y: a_j = e^{(x_j - x_{j+1})/2}/2, b_j = -y_j/2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return JacobiMatrix(offdiag=0.5 * np.exp(0.5 * (x[:-1] - x[1:])), diag=-0.5 * y)


def physical_h(x, y):
    """H = 1/2 sum y_j^2 + sum_{j<N} e^{x_j - x_{j+1}}."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(0.5 * np.sum(y**2) + np.sum(np.exp(x[:-1] - x[1:])))


def hamiltonian(s: JacobiMatrix) -> float:
    return float(_hamiltonian(s.diag, s.offdiag))


def lax_b(s: JacobiMatrix) -> np.ndarray:
    """B of the Lax pair (L, B), L the state itself: its antisymmetrized off-part."""
    return np.diag(s.offdiag, 1) - np.diag(s.offdiag, -1)


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
    """Row by row, through a state; the lambda columns from one `jacobi_eigenvalues`
    call over the trajectory's rows, as the CSV defines them."""
    n = traj.b.shape[1]
    header = (
        ["t"]
        + [f"a_{j}" for j in range(1, n)]
        + [f"b_{j}" for j in range(1, n + 1)]
        + ["H"]
        + [f"lambda_{j}" for j in range(1, n + 1)]
    )
    lines = [",".join(header)]
    spectra = jacobi_eigenvalues(traj.b, traj.a)
    for i in range(len(traj)):
        row = [traj.times[i]] + list(traj.a[i]) + list(traj.b[i]) + [float(_hamiltonian(traj.b[i], traj.a[i]))]
        row += list(spectra[i])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def packed_reference(states, n_steps, dt):
    """The (T, 2 M) output of `integrate_ensemble`'s chain [a | pad | b], its
    states with a ghost site after each, stepped by a plain loop over
    `toda_1d._rhs`: the loop before its stages were written out."""
    starts = np.cumsum([0] + [s.n + 1 for s in states])
    m = int(starts[-1])
    y, stage = np.zeros(3 * m + 1), np.zeros(3 * m + 1)
    for s, start in zip(states, starts):
        y[start : start + s.n - 1], y[m + start : m + start + s.n] = s.offdiag, s.diag
    k = np.empty((4, 2 * m))
    k_views = [(v, v[: m - 1]) for v in k]
    y_views, stage_views = toda_1d._views(y, m), toda_1d._views(stage, m)
    y, stage = y[: 2 * m], stage[: 2 * m]
    weights = [[c, 0.0, min(2.0 * c, np.finfo(float).max)] for c in (0.5 * dt, dt, dt / 6.0)]
    half, full, sixth = (np.repeat(w, [m - 1, 1, m]) for w in weights)
    out = [y.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            toda_1d._rhs(y_views, k_views[0])
            for h, k_in, k_out in ((half, k[0], k_views[1]), (half, k[1], k_views[2]), (full, k[2], k_views[3])):
                np.add(y, h * k_in, stage)
                toda_1d._rhs(stage_views, k_out)
            y += sixth * ((((k[1] + k[1]) + k[0]) + (k[2] + k[2])) + k[3])
            out.append(y.copy())
    return np.array(out), starts, m


def reference_spectral_solve(s0, t):
    """The spectral-measure route: corner masses reweighted by e^{-2 lambda t}, then Lanczos."""
    eigenvalues, masses = spectral_data_from_jacobi(s0)
    masses = toda_1d._evolved_masses(masses, eigenvalues, t)
    return jacobi_from_measure(DiscreteMeasure(eigenvalues, masses))


def written_out_flow(diag, offdiag, times):
    """`spectral_solve` written out with numpy alone, as its own loop before
    `family_jacobi` shared it: diagonals (T, N) and couplings (T, N-1).

    Per sign of time and per checkpoint k h (h = 8 / spectral width): one
    `eigh` of the checkpoint state, shifted by its largest eigenvalue, or by
    its smallest if an offset is < 0; per offset s, the times t with
    floor(|t| / h) = k at s = t - sign k h and, if a later time follows, the
    step s = sign h, one `qr(mode="r")` of e^{s (Lambda - shift)} V^T and the
    R-ratio update of a and b; an offset of 0 keeps the checkpoint state.
    """
    diag, offdiag, times = (np.asarray(v, dtype=float) for v in (diag, offdiag, times))

    def lower(b, a):  # the triangle that eigh and eigvalsh read
        return np.diag(b) + np.diag(a, -1)

    lam = np.linalg.eigvalsh(lower(diag, offdiag))
    h = 8.0 / (lam[-1] - lam[0])
    b_out, a_out = np.empty((times.size, diag.size)), np.empty((times.size, offdiag.size))
    for sign in (1.0, -1.0):
        steps = {i: np.floor(abs(t) / h) for i, t in enumerate(times) if np.signbit(t) == (sign < 0.0)}
        b, a = diag, offdiag
        for k in range(int(max(steps.values(), default=-1.0)) + 1):
            here = [i for i, k_i in steps.items() if k_i == k]
            offsets = [times[i] - sign * k * h for i in here]
            if max(steps.values()) > k:
                offsets.append(sign * h)
            lam, v = np.linalg.eigh(lower(b, a))
            shift = lam[0] if min(offsets) < 0.0 else lam[-1]
            states = []
            for s in offsets:
                r = np.linalg.qr(np.exp(s * (lam - shift))[:, None] * v.T, mode="r")
                d = np.diag(r)
                step = a * np.diag(r, 1) / d[:-1]
                new_b = b.copy()
                new_b[:-1] += step
                new_b[1:] -= step
                states.append((new_b, a * (np.abs(d[1:]) / np.abs(d[:-1]))) if s != 0.0 else (b, a))
            for i, (sb, sa) in zip(here, states):
                b_out[i], a_out[i] = sb, sa
            b, a = states[-1]
    return b_out, a_out


def qr_rows(diag, offdiag, times):
    """Diagonals (T, N) and couplings (T, N-1) of `spectral_solve` at `times`."""
    traj = spectral_solve(JacobiMatrix(diag, offdiag), times)
    return traj.b, traj.a


class TestHamiltonians:
    # H of the Flaschka state equals the physical H of any of its preimages
    def test_xy_rest_state(self):
        assert hamiltonian(flaschka([0.0, 0.0], [0.0, 0.0])) == pytest.approx(1.0)

    def test_xy_example(self):
        assert hamiltonian(flaschka([np.log(2.0), 0.0], [1.0, -1.0])) == pytest.approx(3.0)

    def test_xy_free_limit(self):
        assert hamiltonian(flaschka([-50.0, 50.0], [2.0, 1.0])) == pytest.approx(2.5)

    def test_xy_overflow(self):
        # a gap x_1 - x_2 = 920: a = e^460/2 is finite, the spring energy e^920 is not
        s = flaschka([920.0, 0.0], [0.0, 0.0])
        traj = Trajectory(times=np.array([0.0]), a=s.offdiag[None], b=s.diag[None])
        with pytest.raises(OverflowError, match=r"^the Hamiltonian H overflows at t = 0\.0$"):
            trajectory_to_csv(traj)

    def test_ab_example(self):
        assert hamiltonian(SYMMETRIC_N2) == pytest.approx(1.0)

    def test_rows_in_jacobi_order(self):
        # (b, a) as every row function takes them: 4 (3^2 + (1^2 + 2^2) / 2) = 46;
        # the swapped call (a, b) would read 4 (1^2 + 2^2 + 3^2 / 2) = 38
        assert _hamiltonian(np.array([1.0, 2.0]), np.array([3.0])) == 46.0

    def test_ab_equals_xy(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            assert hamiltonian(flaschka(x, y)) == pytest.approx(physical_h(x, y))

    def test_ab_equals_twice_trace_l_squared(self):
        rng = np.random.default_rng(1)
        for n in (2, 5):
            s = random_state(rng, n)
            tr2 = float(np.trace(s.to_dense() @ s.to_dense()))
            assert abs(2.0 * tr2 - hamiltonian(s)) < 1e-12


class TestRhs:
    def test_equal_b_freezes_couplings(self):
        s = JacobiMatrix(offdiag=[0.3, 0.9], diag=[0.7, 0.7, 0.7])
        da, _ = toda_1d._rhs_rows(s.diag, s.offdiag)
        assert np.allclose(da, 0.0)

    def test_symmetric_state(self):
        da, db = toda_1d._rhs_rows(SYMMETRIC_N2.diag, SYMMETRIC_N2.offdiag)
        assert np.allclose(da, [0.0])
        assert np.allclose(db, [0.5, -0.5])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-170, 1e150, 1e154]),
    )
    def test_equals_the_written_out_formula(self, n, rows, seed, scale):
        # bit for bit, one state and stacked rows, up to couplings whose 2 a^2 overflows
        rng = np.random.default_rng(seed)
        a, b = scale * rng.uniform(0.3, 1.0, (rows, n - 1)), rng.uniform(-1.0, 1.0, (rows, n))
        zero = np.zeros((rows, 1))
        with np.errstate(over="ignore"):
            want_a = a * (b[:, 1:] - b[:, :-1])
            want_b = 2.0 * (np.concatenate([a**2, zero], axis=1) - np.concatenate([zero, a**2], axis=1))
            da, db = toda_1d._rhs_rows(b, a)
            assert da.tobytes() == want_a.tobytes() and db.tobytes() == want_b.tobytes()
            for i in range(rows):
                da, db = toda_1d._rhs_rows(b[i], a[i])
                assert da.tobytes() == want_a[i].tobytes() and db.tobytes() == want_b[i].tobytes()

    def test_decoupled_limit(self):
        s = JacobiMatrix(offdiag=[1e-9, 1e-9], diag=[0.1, -0.3, 0.5])
        _, db = toda_1d._rhs_rows(s.diag, s.offdiag)
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
            exact = spectral_solve(SYMMETRIC_N2, [2.0])
            errs.append(max(np.max(np.abs(traj.a[-1] - exact.a[0])), np.max(np.abs(traj.b[-1] - exact.b[0]))))
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
        kinds=st.lists(
            st.sampled_from(["calm", "stiff", "strong", "huge", "late", "bigpos", "bigneg", "lone", "brink"]),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
        late=st.floats(9.49, 9.51),
        n_steps=st.integers(1, 200),
        dt=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_ensemble_error_equals_check_after_every_step(self, kinds, seed, late, n_steps, dt):
        # failing states anywhere among calm ones, next to each other too:
        # "strong" leaves the cone and "huge" overflows at step 1, and at
        # dt = 0.1 "late" first fails anywhere from step 30 to past 200.
        # "bigpos", "bigneg" and "lone" never fail, but the difference of
        # their sites and a neighbour's overflows, so a joint between two
        # states that takes that difference turns NaN.  "brink" couplings
        # have a^2 finite and 2 a^2 not, where the step's b'/2 with doubled
        # weights and the classical 2 (a_j^2 - a_{j-1}^2) part ways
        rng = np.random.default_rng(seed)
        fixed = {
            "stiff": JacobiMatrix(offdiag=[2.0], diag=[-4.0, 4.0]),
            "strong": JacobiMatrix(offdiag=[1e3], diag=[0.0, 0.0]),
            "huge": JacobiMatrix(offdiag=[1e200], diag=[0.0, 0.0]),
            "late": JacobiMatrix(offdiag=[2.0], diag=[-late, late]),
            "bigpos": JacobiMatrix(offdiag=[1e-10], diag=[1.7e308, 1.7e308]),
            "bigneg": JacobiMatrix(offdiag=[1e-10], diag=[-1.7e308, -1.7e308]),
        }

        def state(kind):
            if kind == "lone":
                return JacobiMatrix(offdiag=[], diag=[rng.choice([-1.7e308, 1.7e308])])
            if kind == "brink":
                n = int(rng.integers(2, 6))
                return JacobiMatrix(offdiag=rng.uniform(6.7e153, 1.35e154, n - 1), diag=rng.uniform(-1.0, 1.0, n))
            return fixed[kind] if kind in fixed else random_state(rng, int(rng.integers(1, 6)))

        states = [state(k) for k in kinds]
        expected = reference_error(states, n_steps, dt)
        if expected is None:
            trajs = integrate_ensemble(states, n_steps * dt, dt)
            for s, traj in zip(states, trajs):
                ref_a, ref_b = reference_rk4(s, n_steps * dt, dt)
                assert traj.a.tobytes() == ref_a.tobytes() and traj.b.tobytes() == ref_b.tobytes()
        else:
            with pytest.raises(PositivityLossError, match=f"^{re.escape(expected)}$"):
                integrate_ensemble(states, n_steps * dt, dt)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: integrate_ensemble([], 1.0, 0.1), "states"),
            (lambda: verify.check_toda(0, (), 1.0, 1.0, 0.1), "sizes"),
            (lambda: integrate_ensemble([SYMMETRIC_N2], 1.0, float("nan")), "dt"),
            (lambda: integrate_ensemble([SYMMETRIC_N2], 1.0, float("inf")), "dt"),
            (lambda: integrate_ensemble([SYMMETRIC_N2], float("nan"), 0.1), "t_final"),
            (lambda: integrate_ensemble([SYMMETRIC_N2], float("inf"), 0.1), "t_final"),
            (lambda: integrate_ensemble([SYMMETRIC_N2], -1.0, 0.1), "t_final"),
        ],
    )
    def test_bad_arguments_name_the_argument(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must "):
            call()
    @settings(max_examples=60, deadline=None)
    @example(sizes=[1], seed=1, n_steps=200, dt=1e-3)  # a lone site
    @example(sizes=[2], seed=2, n_steps=200, dt=1e-3)  # one N = 2 state
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

    @pytest.mark.parametrize("dt", [2.0**1023, 1.7e308])
    def test_step_where_twice_dt_overflows(self, dt):
        # b's weight 2 dt overflows; couplings whose squares underflow to 0
        # keep the state still, as in the classical step
        s = JacobiMatrix(offdiag=[1e-170, 1e-170], diag=[0.5, 0.5, 0.5])
        traj = integrate_toda(s, dt, dt)
        ref_a, ref_b = reference_rk4(s, dt, dt)
        assert traj.a.tobytes() == ref_a.tobytes() and traj.b.tobytes() == ref_b.tobytes()

    @settings(max_examples=60, deadline=None)
    @example(sizes=[1], seed=1, n_steps=40, dt=1e-3)  # a lone site
    @example(sizes=[2, 3], seed=2, n_steps=1, dt=1.7e308)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 40),
        dt=st.sampled_from([1e-3, 5e-2, 2.0**1023, 1.7e308]),
    )
    def test_ensemble_equals_the_packed_rhs_loop(self, sizes, seed, n_steps, dt):
        # the written-out stages give the bits of a loop over `_rhs`; where 2 dt
        # overflows (one step), equal b and couplings of 1e-170, whose squares
        # underflow, keep the step finite
        rng = np.random.default_rng(seed)
        huge = dt > 1.0
        n_steps = min(n_steps, 1) if huge else n_steps
        states = [random_state(rng, n) for n in sizes]
        if huge:
            states = [JacobiMatrix(offdiag=1e-170 * s.offdiag, diag=np.full(s.n, s.diag[0])) for s in states]
        want, starts, m = packed_reference(states, n_steps, dt)
        for s, start, traj in zip(states, starts, integrate_ensemble(states, n_steps * dt, dt)):
            assert traj.a.tobytes() == want[:, start : start + s.n - 1].tobytes()
            assert traj.b.tobytes() == want[:, m + start : m + start + s.n].tobytes()

    def test_step_is_25_calls_without_a_length_one_operand(self, monkeypatch):
        # N = 2 states, enough of them for a chain one past the kernel's
        # sites: the numpy engine's step is 25 ufunc calls (3 per right-hand
        # side), the shortest operand the m - 1 couplings
        states = [SYMMETRIC_N2] * (toda_1d._KERNEL_SITES // 3 + 1)
        m = 3 * len(states)
        assert m > toda_1d._KERNEL_SITES
        sizes = []
        for name in ("_add", "_subtract", "_multiply", "_square"):
            ufunc = getattr(toda_1d, name)
            monkeypatch.setattr(toda_1d, name, lambda *args, f=ufunc: (sizes.append(min(map(np.size, args))), f(*args))[1])
        integrate_ensemble(states, 0.003, 1e-3)
        assert len(sizes) == 3 * 25 and min(sizes) == m - 1

    def test_isospectrality_and_energy(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 5)
        traj = integrate_toda(s, 2.0, 1e-3)
        lam0 = spectral_data_from_jacobi(s)[0]
        h0 = hamiltonian(s)
        for i in range(0, len(traj), 100):
            state = JacobiMatrix(diag=traj.b[i], offdiag=traj.a[i])
            lam = spectral_data_from_jacobi(state)[0]
            assert np.max(np.abs(lam - lam0)) < 1e-8
            assert abs(hamiltonian(state) - h0) < 1e-8


def chain_layouts(rng, m):
    """State sizes whose chain, a ghost after each state, has m sites: one
    state, a random split and, for even m, lone sites alone."""
    split, left = [], m
    while left:
        n = left - 1 if left <= 3 else int(rng.integers(1, left - 2))  # leaves 0 or >= 2 sites
        split.append(n)
        left -= n + 1
    return [[m - 1], split] + ([[1] * (m // 2)] if m % 2 == 0 else [])


def ensemble_error(states, t_final, dt):
    with pytest.raises(PositivityLossError) as info:
        integrate_ensemble(states, t_final, dt)
    return str(info.value)


class TestKernel:
    # chains of at most _KERNEL_SITES sites step through the compiled
    # kernel; setting _KERNEL_SITES to 0 sends them through the numpy engine

    @pytest.mark.parametrize("m", range(2, toda_1d._KERNEL_SITES + 1))
    def test_every_chain_length_equals_the_packed_rhs_loop(self, m):
        # 150 steps cross two chunk ends; the ghosts and joints of the output
        # hold the loop's bits too, all but the pad, which no view reads
        rng = np.random.default_rng(m)
        for sizes in chain_layouts(rng, m):
            states = [random_state(rng, n) for n in sizes]
            want, _, _ = packed_reference(states, 150, 1e-2)
            out = integrate_ensemble(states, 1.5, 1e-2)[0].b.base
            assert out.shape == want.shape == (151, 2 * m)
            keep = np.arange(2 * m) != m - 1
            assert out[:, keep].tobytes() == want[:, keep].tobytes()

    @pytest.mark.parametrize("dt", [2.0**1023, 1.7e308])
    def test_where_twice_dt_overflows_both_engines_agree(self, monkeypatch, dt):
        # b's weight is _MAX in both; couplings whose squares underflow keep the step finite
        states = [JacobiMatrix(offdiag=[1e-170] * (n - 1), diag=[0.25] * n) for n in (1, 3, 2)]
        kernel = integrate_ensemble(states, dt, dt)
        monkeypatch.setattr(toda_1d, "_KERNEL_SITES", 0)
        for got, want in zip(kernel, integrate_ensemble(states, dt, dt)):
            assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()

    @pytest.mark.parametrize(
        "kinds",
        [["stiff"], ["strong"], ["calm", "stiff", "calm"], ["calm", "huge"], ["bigpos", "stiff", "bigneg"], ["late", "calm"]],
    )
    def test_blow_up_error_equals_the_numpy_engine(self, monkeypatch, kinds):
        fixed = {
            "calm": JacobiMatrix(offdiag=[0.3, 0.2], diag=[0.1, 0.0, -0.1]),
            "stiff": JacobiMatrix(offdiag=[2.0], diag=[-4.0, 4.0]),
            "strong": JacobiMatrix(offdiag=[1e3], diag=[0.0, 0.0]),
            "huge": JacobiMatrix(offdiag=[1e200], diag=[0.0, 0.0]),
            "late": JacobiMatrix(offdiag=[2.0], diag=[-9.5, 9.5]),
            "bigpos": JacobiMatrix(offdiag=[1e-10], diag=[1.7e308, 1.7e308]),
            "bigneg": JacobiMatrix(offdiag=[1e-10], diag=[-1.7e308, -1.7e308]),
        }
        states = [fixed[k] for k in kinds]
        dt = 0.1 if "late" in kinds else 0.5
        kernel = ensemble_error(states, 20.0, dt)
        monkeypatch.setattr(toda_1d, "_KERNEL_SITES", 0)
        assert kernel == ensemble_error(states, 20.0, dt)

    def test_importing_the_cli_builds_no_kernel(self):
        # kernels compile on first use, so start-up pays for none
        src = str(Path(toda_1d.__file__).resolve().parents[1])
        code = "import toda_kdq.cli, toda_kdq.toda_1d as t; print(len(t._KERNELS))"
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "0\n"

    def test_one_kernel_per_chain_length(self):
        assert toda_1d._kernel(5) is toda_1d._kernel(5) is toda_1d._KERNELS[5]


class TestLax:
    def test_matrices(self):
        assert np.allclose(SYMMETRIC_N2.to_dense(), [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(lax_b(SYMMETRIC_N2), [[0.0, 0.5], [-0.5, 0.0]])

    def test_commutator_is_rhs(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 4)
        lax, bmat = s.to_dense(), lax_b(s)
        comm = bmat @ lax - lax @ bmat
        da, db = toda_1d._rhs_rows(s.diag, s.offdiag)
        assert np.allclose(np.diag(comm), db, atol=1e-14)
        assert np.allclose(np.diag(comm, 1), da, atol=1e-14)
        assert abs(np.trace(comm)) < 1e-14

    def test_finite_difference_lax_equation(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 4)
        dt = 1e-5
        traj = spectral_solve(s, [dt, -dt])
        plus, minus = (JacobiMatrix(diag=b, offdiag=a).to_dense() for a, b in zip(traj.a, traj.b))
        l_dot = (plus - minus) / (2 * dt)
        lax, bmat = s.to_dense(), lax_b(s)
        comm = bmat @ lax - lax @ bmat
        assert np.max(np.abs(l_dot - comm)) < 1e-8


class TestSpectralSolve:
    def test_time_zero_roundtrip(self):
        rng = np.random.default_rng(8)
        s = random_state(rng, 6)
        back = spectral_solve(s, [0.0])
        assert np.max(np.abs(back.a[0] - s.offdiag)) < 1e-12
        assert np.max(np.abs(back.b[0] - s.diag)) < 1e-12

    def test_closed_form_n2(self):
        for t in (-3.0, 0.5, 4.0):
            traj = spectral_solve(SYMMETRIC_N2, [t])
            a_ref, b1_ref, b2_ref = closed_form_n2(t)
            assert traj.a[0, 0] == pytest.approx(a_ref, abs=1e-12)
            assert traj.b[0, 0] == pytest.approx(b1_ref, abs=1e-12)
            assert traj.b[0, 1] == pytest.approx(b2_ref, abs=1e-12)

    def test_matches_rk4(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6):
            s = random_state(rng, n)
            traj = integrate_toda(s, 3.0, 1e-3)
            for i in range(0, len(traj), 300):
                sp = spectral_solve(s, [traj.times[i]])
                assert np.max(np.abs(sp.a[0] - traj.a[i])) < 1e-6
                assert np.max(np.abs(sp.b[0] - traj.b[i])) < 1e-6

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
        for i, t in enumerate(times):
            one = spectral_solve(s, [t])
            assert many.a[i].tobytes() == one.a[0].tobytes() and many.b[i].tobytes() == one.b[0].tobytes()

    def test_mass_renormalization(self):
        # t is capped so the evolved off-diagonals e^{-sum(gaps) t} stay above
        # the double-precision noise floor of the reconstruction
        rng = np.random.default_rng(10)
        s = random_state(rng, 5)
        for t in (0.5, 5.0, 10.0):
            traj = spectral_solve(s, [t])
            _, masses = spectral_data_from_jacobi(JacobiMatrix(diag=traj.b[0], offdiag=traj.a[0]))
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
        back = spectral_solve(s, [0.0])
        assert back.b[0].tobytes() == s.diag.tobytes() and back.a[0].tobytes() == s.offdiag.tobytes()
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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.one_of(st.floats(-5.0, 5.0), st.integers(-5, 5).map(float)), min_size=1, max_size=10),
        order=st.randoms(use_true_random=False),
    )
    def test_equals_written_out_flow(self, n, seed, fractions, order):
        # bit for bit, at times of both signs past 3 checkpoints, in any
        # order, on and off checkpoints, 0 and a repeat among them
        s = random_state(np.random.default_rng(seed), n)
        lam = np.linalg.eigvalsh(s.to_dense())
        h = 8.0 / (lam[-1] - lam[0])
        times = [f * h for f in fractions] + [3.5 * h, -3.5 * h, 0.0, -0.0, fractions[0] * h]
        order.shuffle(times)
        traj = spectral_solve(s, times)
        ref_b, ref_a = written_out_flow(s.diag, s.offdiag, times)
        assert traj.b.tobytes() == ref_b.tobytes() and traj.a.tobytes() == ref_a.tobytes()

    @pytest.mark.parametrize(
        "b, a, times, message",
        [
            ([[1e21, 0.0]], [[1.0]], [5.0], r"\|t\| = 5\.0 at spectral width .* needs more than 65536 QR checkpoints$"),
            ([[1e21, 1e21]], [[1.0]], [5.0], r"the spectrum of L has width 0\.0, outside what double precision resolves$"),
            ([[0.0, 1.0]], [[1.0]], [1.0, -3000.0], r"a coupling underflowed to 0 at t = -3000\.0$"),
        ],
        ids=["checkpoints", "width", "underflow"],
    )
    def test_errors_name_the_row(self, b, a, times, message):
        # the row that fails is named by its label, after a row that does not
        b, a = np.array([[0.0, 0.0]] + b), np.array([[1e-3]] + a)
        with pytest.raises((OverflowError, PositivityLossError), match="^component \\(1, 2\\): " + message):
            toda_1d._flow(b, a, np.array(times), ["component (0, 1): ", "component (1, 2): "])

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


class TestVerifyLines:
    @pytest.mark.parametrize(
        "line, defect, fails, passes",
        [
            ("toda-isospectral-rk4", "rk4-step-weight", 1e-5, 5e-6),
            ("toda-energy-conservation", "rk4-stage-weights", 1e-6, 5e-7),
            ("toda-trace-identity", "eigenvalues", 1e-13, 5e-14),
            ("toda-spectral-vs-rk4", "qr-couplings", 2e-6, 1e-6),
            ("toda-closed-form-n2", "qr-offsets", 5e-6, 2e-6),
        ],
    )
    def test_verify_line_fails_on_a_skew(self, monkeypatch, line, defect, fails, passes):
        # a relative skew of the RK4 step weight dt/6 or of its stage weights
        # dt/2 and dt, of the eigenvalues the check reads, or of the couplings
        # or the time offsets of each QR step fails the verify-all line from
        # `fails` up, and `passes` passes: the README records the smallest
        # failing skew of 1, 2, 5 per decade
        multiply, qr_steps, eigenvalues = toda_1d._multiply, toda_1d._qr_steps, verify.jacobi_eigenvalues

        def observed(skew):
            def rk4_multiply(w, x, out):
                multiply(w, x, out)
                # dt/6 scales the sum of the k's in place, an array of its own;
                # the stage weights write h k into the stage buffer
                if (x is out and out.base is None) if defect == "rk4-step-weight" else x is not out:
                    out *= 1.0 + skew

            def qr_couplings(*args):
                b, a = qr_steps(*args)
                return b, a * (1.0 + skew)

            if defect.startswith("rk4"):
                monkeypatch.setattr(toda_1d, "_multiply", rk4_multiply)
            elif defect == "eigenvalues":
                monkeypatch.setattr(verify, "jacobi_eigenvalues", lambda b, a: eigenvalues(b, a) * (1.0 + skew))
            elif defect == "qr-couplings":
                monkeypatch.setattr(toda_1d, "_qr_steps", qr_couplings)
            else:
                monkeypatch.setattr(toda_1d, "_qr_steps", lambda b, a, rows, s: qr_steps(b, a, rows, s * (1.0 + skew)))
            results = verify.check_toda(**verify_all_keywords(verify.check_toda))
            return {r.name: r for r in results}[line]

        assert not observed(fails).passed
        assert observed(passes).passed


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


def plain_csv(header, table) -> str:
    """The CSV text of `header` and `table` with one `repr` per entry."""
    return "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in np.asarray(table).tolist()]) + "\n"


def value_keyed_csv(header, table, invariant) -> str:
    """`_csv_text` keyed on the float value of the invariant block, not its
    bits: the defect that writes -0.0 and 0.0 as one of them."""
    keys, at = np.unique(invariant, return_inverse=True)
    tails = np.array([repr(v) for v in keys.tolist()], dtype=object)[at.reshape(invariant.shape)].tolist()
    lines = [",".join(header)] + [",".join([*map(repr, row), *tail]) for row, tail in zip(table.tolist(), tails)]
    return "\n".join(lines + [""])


# signed zeros, subnormals, the values where repr switches between its fixed
# and exponent forms, and any other double, inf and NaN included
_CSV_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-4, 1e-5]
    ),
    st.floats(),
)


@st.composite
def csv_tables(draw):
    """A table and an invariant block of as many rows, whose columns repeat a few values."""
    rows, width, tail = draw(st.integers(0, 30)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    table = np.array(draw(st.lists(_CSV_VALUES, min_size=rows * width, max_size=rows * width)), dtype=float)
    pool = draw(st.lists(_CSV_VALUES, min_size=1, max_size=3))
    invariant = np.array(draw(st.lists(st.sampled_from(pool), min_size=rows * tail, max_size=rows * tail)), dtype=float)
    return table.reshape(rows, width), invariant.reshape(rows, tail)


# 0.0 and -0.0 down one column of an invariant block
SIGNED_ZEROS = (np.array([[1.0], [2.0]]), np.array([[0.0, 1.5], [-0.0, 1.5]]))


def check_invariant_block(write, table, invariant):
    """`write(header, table, invariant)` gives the text of one repr per entry."""
    header = [f"c{j}" for j in range(table.shape[1] + invariant.shape[1])]
    assert write(header, table, invariant) == plain_csv(header, np.column_stack([table, invariant]))


class TestCsv:
    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([[0.5], [float("nan")]], [[0.0, 0.0]] * 2, "state entries must be finite"),
            ([[0.5], [0.0]], [[0.0, 0.0]] * 2, "couplings a_j must be strictly positive"),
        ],
    )
    def test_refuses_a_row_outside_the_phase_space(self, a, b, message):
        traj = Trajectory(times=np.array([0.0, 1.0]), a=np.array(a), b=np.array(b))
        with pytest.raises(ValueError, match=f"^{message}$"):
            trajectory_to_csv(traj)

    @settings(max_examples=150, deadline=None)
    @example(tables=SIGNED_ZEROS, block=64)
    @given(tables=csv_tables(), block=st.integers(1, 64))
    def test_invariant_block_equals_plain_repr(self, tables, block):
        # in blocks of 1 to 64 entries
        with mock.patch.object(toda_1d, "_CSV_BLOCK", block):
            check_invariant_block(toda_1d._csv_text, *tables)

    def test_a_value_keyed_invariant_block_fails(self):
        # keyed on the value, 0.0 and -0.0 are one key, and one of them is written wrong
        with pytest.raises(AssertionError):
            check_invariant_block(value_keyed_csv, *SIGNED_ZEROS)

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
        # ensemble trajectories are strided views of one output; each row's
        # eigenvalues, taken from its Jacobi matrix alone, agree with the
        # CSV's to 2 eps max|lambda|
        rng = np.random.default_rng(seed)
        for traj in integrate_ensemble([random_state(rng, n) for n in sizes], n_steps * 1e-2, 1e-2):
            assert trajectory_to_csv(traj) == reference_csv(traj)
            spectra = jacobi_eigenvalues(traj.b, traj.a)
            for i in range(len(traj)):
                alone = jacobi_eigenvalues(traj.b[i : i + 1], traj.a[i : i + 1])[0]
                bound = 2 * np.finfo(float).eps * np.abs(alone).max()
                assert (np.abs(spectra[i] - alone) <= bound).all()
