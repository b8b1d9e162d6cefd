import numpy as np
import pytest

from toda_kdq import iso_flow, verify
from toda_kdq.iso_flow import (
    IsoFlowState,
    blow_up_time,
    monotonicity_check,
    riccati_evolve,
    state_from_measure,
)
from toda_kdq.kdq import PseudoPositiveMeasure

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

    def test_time_zero_returns_the_masses(self):
        # lambda r(0) = 1e300 * 1e150 overflows, and inf * 0 must not reach t = 0;
        # the masses come back bit for bit, where fl(sqrt(m))^2 moves both
        st = IsoFlowState({(1, 1): ([1e300, 0.5], [1e300, 0.3])})
        masses = riccati_evolve(st, 0.0).family.masses
        assert masses.tobytes() == np.array([1e300, 0.3]).tobytes()

    def test_backward_guarded(self):
        with pytest.raises(ValueError):
            riccati_evolve(SINGLE, -0.1)
        assert blow_up_time(SINGLE) == pytest.approx(-1.0)
        with pytest.raises(ValueError):
            riccati_evolve(SINGLE, -1.0, allow_backward=True)
        ev = riccati_evolve(SINGLE, -0.5, allow_backward=True)
        assert np.sqrt(ev.family.component((1, 1))[1][0]) == pytest.approx(2.0)

    def test_nan_time_is_refused(self):
        with pytest.raises(ValueError, match=r"^evolution time must be a number, got t = nan$"):
            riccati_evolve(SINGLE, float("nan"), allow_backward=True)
        # t = inf stays a limit: masses with lambda r(0) > 0 go to 0, the others stay
        st = IsoFlowState({(0, 1): ([0.0, 0.5], [0.81, 0.3])})
        assert riccati_evolve(st, float("inf")).family.masses.tolist() == [0.81, 0.0]


class TestStateChecks:
    @pytest.mark.parametrize(
        "components, message",
        [
            ({(0, 1): ([-0.5], [1.0])}, "radii and masses must be nonnegative"),
            ({(0, 1): ([0.5], [-1.0])}, "radii and masses must be nonnegative"),
            ({(0, 0): ([0.5], [1.0])}, r"invalid component index \(0, 0\)"),
            ({(0, 1): ([], [])}, "lambdas and masses must be matching 1-d arrays"),
        ],
    )
    def test_refused(self, components, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IsoFlowState(components)

    def test_no_components(self):
        with pytest.raises(ValueError, match="^state has no components$"):
            monotonicity_check(IsoFlowState({}), [0.0, 1.0])

    def test_nan_time_is_refused(self):
        # a NaN time would reach monotonicity_check as an overflow at t = nan
        with pytest.raises(ValueError, match=r"^state time must be a number, got nan$"):
            IsoFlowState({(1, 1): ([1.0], [1.0])}, time=float("nan"))


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
        # the measure's checked components are the state's, at time 0
        mu = PseudoPositiveMeasure(3, {(0, 1): ([1.0, 0.5], [0.3, 0.2]), (2, 1): ([0.7], [0.4])})
        back = state_from_measure(mu)
        assert back.family is mu.family and back.time == 0.0
        assert np.array_equal(back.family.component((0, 1))[0], [0.5, 1.0])
        assert np.array_equal(back.family.component((0, 1))[1], [0.2, 0.3])
        assert np.array_equal(back.family.component((2, 1))[1], [0.4])


class TestCentralDifference:
    def test_step_halves_before_the_blow_up(self):
        # lambda r(0) = 1e4 puts the blow-up at -1e-4, the backward point of
        # t = 0 at dt = 1e-4: t = 0 takes h = 5e-5, t = 1 keeps dt
        def mass(t):
            return (100.0 / (1.0 + 1e4 * t)) ** 2

        rep = monotonicity_check(IsoFlowState({(0, 1): ([100.0], [1e4])}), [0.0, 1.0])
        at_zero = abs((mass(5e-5) - mass(-5e-5)) / 1e-4 + 2e8)  # dS/dt(0) = -2 r^3 lambda
        assert rep.max_derivative_residual == pytest.approx(at_zero, rel=1e-12)

    def test_overflowing_rate_names_the_component(self):
        # lambda r(0) = 1e300 * 1e150 = inf puts the blow-up at -0.0: no step
        # fits at t = 0, while a grid after it keeps dt
        st = IsoFlowState({(0, 1): ([0.5], [1.0]), (1, 2): ([0.5, 1e300], [1.0, 1e300])})
        with pytest.raises(OverflowError, match=r"^lambda r\(0\) of component \(1, 2\) overflows$"):
            monotonicity_check(st, [0.0, 1.0])
        assert monotonicity_check(st, [1.0, 2.0]).passed


class TestVerifyLines:
    def test_iso_monotonicity_fails_on_a_skew(self, monkeypatch):
        # a relative skew of the closed-form dS/dt that the central
        # differences are checked against fails the verify-all line from 5e-9
        # up, and 2e-9 passes: the README records the smallest failing skew
        # of 1, 2, 5 per decade
        ds_dt = iso_flow._ds_dt

        def observed(skew):
            monkeypatch.setattr(iso_flow, "_ds_dt", lambda family, masses: ds_dt(family, masses) * (1.0 + skew))
            (result,) = verify.check_iso_monotonicity(verify._SEED + 8, trials=5)
            assert result.name == "iso-monotonicity"
            return result

        assert not observed(5e-9).passed
        assert observed(2e-9).passed
