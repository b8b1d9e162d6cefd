import numpy as np
import pytest

from toda_kdq.iso_flow import (
    IsoFlowState,
    blow_up_time,
    monotonicity_check,
    riccati_evolve,
    state_from_measure,
    state_to_measure,
)

SINGLE = IsoFlowState({(1, 1): ([1.0], [1.0])})


class TestRiccatiEvolve:
    def test_closed_form_value(self):
        ev = riccati_evolve(SINGLE, 1.0)
        assert np.sqrt(ev.family.component((1, 1))[1][0]) == pytest.approx(0.5)

    def test_zero_radius_constant(self):
        st = IsoFlowState({(0, 1): ([0.0], [0.81])})
        ev = riccati_evolve(st, 7.0)
        assert ev.family.component((0, 1))[1][0] == pytest.approx(0.81)

    def test_flow_property(self):
        rng = np.random.default_rng(0)
        st = IsoFlowState(
            {(k, 1): (rng.uniform(0.2, 2.0, 3), rng.uniform(0.1, 1.0, 3)) for k in range(3)}
        )
        two_step = riccati_evolve(riccati_evolve(st, 0.6), 1.1)
        one_step = riccati_evolve(st, 1.7)
        for key in st.family.keys:
            dev = np.max(np.abs(two_step.family.component(key)[1] - one_step.family.component(key)[1]))
            assert dev < 1e-14

    def test_backward_guarded(self):
        with pytest.raises(ValueError):
            riccati_evolve(SINGLE, -0.1)
        assert blow_up_time(SINGLE) == pytest.approx(-1.0)
        with pytest.raises(ValueError):
            riccati_evolve(SINGLE, -1.0, allow_backward=True)
        ev = riccati_evolve(SINGLE, -0.5, allow_backward=True)
        assert np.sqrt(ev.family.component((1, 1))[1][0]) == pytest.approx(2.0)


class TestIntegrabilityFunctional:
    """S_{k,l} = sum_j r_j^2 / lambda_j^k, read from `monotonicity_check(...).values`."""

    def test_degree_zero_total_mass(self):
        st = IsoFlowState({(0, 1): ([0.5, 2.0], [0.3, 0.9])})
        assert monotonicity_check(st, [0.0, 1.0]).values[(0, 1)][0] == pytest.approx(1.2)

    def test_inverse_power(self):
        st = IsoFlowState({(2, 1): ([2.0], [1.0])})
        assert monotonicity_check(st, [0.0, 1.0]).values[(2, 1)][0] == pytest.approx(0.25)

    def test_zero_radius_division_error(self):
        st = IsoFlowState({(1, 1): ([0.0], [0.5])})
        with pytest.raises(ZeroDivisionError):
            monotonicity_check(st, [0.0, 1.0])

    def test_decreasing_along_flow(self):
        rng = np.random.default_rng(1)
        st = IsoFlowState({(2, 1): (rng.uniform(0.5, 2.0, 4), rng.uniform(0.1, 1.0, 4))})
        values = monotonicity_check(st, [0.0, 0.5, 1.0, 4.0]).values[(2, 1)]
        assert np.all(np.diff(values) < 0.0)


class TestMonotonicity:
    def test_closed_form_trajectory(self):
        rep = monotonicity_check(SINGLE, np.linspace(0.0, 10.0, 41), dt=1e-5)
        assert rep.passed
        vals = rep.values[(1, 1)]
        expected = 1.0 / (1.0 + rep.times) ** 2
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_derivative_identity_at_origin(self):
        rep = monotonicity_check(SINGLE, [0.0, 1.0], dt=1e-5)
        # dS/dt(0) = -2 r0^3 / lambda^{k-1} = -2
        assert rep.max_derivative_residual < 1e-8

    def test_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            comps = {
                (k, 1): (rng.uniform(0.3, 2.0, 3), rng.uniform(0.1, 1.0, 3))
                for k in range(3)
            }
            rep = monotonicity_check(IsoFlowState(comps), np.linspace(0.0, 10.0, 21), dt=1e-5)
            assert rep.passed
            assert rep.max_derivative_residual < 1e-8


class TestSharedSchema:
    def test_measure_roundtrip(self):
        st = IsoFlowState(
            {(0, 1): ([0.5, 1.0], [0.2, 0.0]), (2, 1): ([0.7], [0.4])}
        )
        mu = state_to_measure(st, n=3)
        back = state_from_measure(mu)
        # zero-mass atom dropped on serialization
        assert np.array_equal(back.family.component((0, 1))[0], [0.5])
        assert np.array_equal(back.family.component((2, 1))[1], [0.4])
