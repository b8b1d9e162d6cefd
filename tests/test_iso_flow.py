from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toda_kdq import iso_flow, verify
from toda_kdq.iso_flow import (
    IsoFlowState,
    _riccati,
    monotonicity_check,
    state_from_measure,
)
from toda_kdq.kdq import PseudoPositiveMeasure

SINGLE = IsoFlowState({(1, 1): ([1.0], [1.0])})


class TestRiccatiEvolve:
    """The closed form r(t) = r(0)/(1 + lambda r(0) t), through `_riccati`."""

    def test_closed_form_value(self):
        assert np.sqrt(_riccati(SINGLE, [1.0])[0, 0]) == pytest.approx(0.5)

    def test_zero_radius_constant(self):
        state = IsoFlowState({(0, 1): ([0.0], [0.81])})
        assert _riccati(state, [7.0])[0, 0] == pytest.approx(0.81)

    def test_flow_property(self):
        # the flow from t = 0.6 for 1.1 is the flow for 1.7
        rng = np.random.default_rng(0)
        state = IsoFlowState(
            {(k, 1): (rng.uniform(0.2, 2.0, 3), rng.uniform(0.1, 1.0, 3)) for k in range(3)}
        )
        later = IsoFlowState(replace(state.family, masses=_riccati(state, [0.6])[0]))
        two_step = _riccati(later, [1.1])[0]
        one_step = _riccati(state, [1.7])[0]
        assert np.max(np.abs(two_step - one_step)) < 1e-14

    def test_time_zero_returns_the_masses(self):
        # lambda r(0) = 1e300 * 1e150 overflows, and inf * 0 must not reach t = 0;
        # the masses come back bit for bit, where fl(sqrt(m))^2 moves both
        state = IsoFlowState({(1, 1): ([1e300, 0.5], [1e300, 0.3])})
        masses = _riccati(state, [0.0])[0]
        assert masses.tobytes() == np.array([1e300, 0.3]).tobytes()

    def test_nan_time_is_refused(self):
        with pytest.raises(ValueError, match=r"^t_grid entries must be >= 0, got t_grid\[1\] = nan$"):
            monotonicity_check(SINGLE, [0.0, float("nan")])
        # t = inf stays a limit: masses with lambda r(0) > 0 go to 0, the others stay
        state = IsoFlowState({(0, 1): ([0.0, 0.5], [0.81, 0.3])})
        assert _riccati(state, [float("inf")])[0].tolist() == [0.81, 0.0]


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


class TestIntegrabilityFunctional:
    """S_{k,l} = sum_j r_j^2 / lambda_j^k, read from `monotonicity_check(...).values`."""

    def test_degree_zero_total_mass(self):
        state = IsoFlowState({(0, 1): ([0.5, 2.0], [0.3, 0.9])})
        assert monotonicity_check(state, [0.0, 1.0]).values[(0, 1)][0] == pytest.approx(1.2)

    def test_inverse_power(self):
        state = IsoFlowState({(2, 1): ([2.0], [1.0])})
        assert monotonicity_check(state, [0.0, 1.0]).values[(2, 1)][0] == pytest.approx(0.25)

    def test_zero_radius_division_error(self):
        state = IsoFlowState({(1, 1): ([0.0], [0.5])})
        with pytest.raises(ZeroDivisionError):
            monotonicity_check(state, [0.0, 1.0])

    def test_decreasing_along_flow(self):
        rng = np.random.default_rng(1)
        state = IsoFlowState({(2, 1): (rng.uniform(0.5, 2.0, 4), rng.uniform(0.1, 1.0, 4))})
        values = monotonicity_check(state, [0.0, 0.5, 1.0, 4.0]).values[(2, 1)]
        assert np.all(np.diff(values) < 0.0)


class TestMonotonicity:
    def test_closed_form_trajectory(self):
        rep = monotonicity_check(SINGLE, np.linspace(0.0, 10.0, 41))
        assert rep.passed
        vals = rep.values[(1, 1)]
        expected = 1.0 / (1.0 + rep.times) ** 2
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_derivative_identity_at_origin(self):
        rep = monotonicity_check(SINGLE, [0.0, 1.0])
        # dS/dt(0) = -2 r0^3 / lambda^{k-1} = -2
        assert rep.max_derivative_residual < 1e-8

    def test_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            comps = {
                (k, 1): (rng.uniform(0.3, 2.0, 3), rng.uniform(0.1, 1.0, 3))
                for k in range(3)
            }
            rep = monotonicity_check(IsoFlowState(comps), np.linspace(0.0, 10.0, 21))
            assert rep.passed
            assert rep.max_derivative_residual < 1e-8


# masses 0 and from 1e-300 to 1e300, radii 0 and up to 1e300, grid times 0,
# 1e-300, inf and up to 1e300
_MASS = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
_RADIUS = st.one_of(st.just(0.0), st.floats(0.0, 1e300))
_TIME = st.one_of(st.sampled_from([0.0, 1e-300, float("inf")]), st.floats(0.0, 1e300))


@st.composite
def iso_states(draw):
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), min_size=1, max_size=3, unique=True))
    comps = {}
    for key in keys:
        size = draw(st.integers(1, 3))
        comps[key] = (draw(st.lists(_RADIUS, min_size=size, max_size=size)), draw(st.lists(_MASS, min_size=size, max_size=size)))
    return IsoFlowState(comps)


class TestNoRise:
    @settings(max_examples=300, deadline=None)
    @given(state=iso_states(), t_grid=st.lists(_TIME, min_size=2, max_size=6).map(sorted))
    def test_functionals_never_increase(self, state, t_grid):
        # each t > 0 mass is capped at its t = 0 mass, and every rounded
        # operation on the way to S is monotone in t: S_{k,l} never rises by an ulp
        try:
            rep = monotonicity_check(state, t_grid)
        except (OverflowError, ZeroDivisionError):  # S or dS/dt overflows, or lambda = 0 with k > 0
            assume(False)
        assert rep.max_increase == 0.0


class TestSharedSchema:
    def test_measure_roundtrip(self):
        # the measure's checked components are the state's
        mu = PseudoPositiveMeasure(3, {(0, 1): ([1.0, 0.5], [0.3, 0.2]), (2, 1): ([0.7], [0.4])})
        back = state_from_measure(mu)
        assert back.family is mu.family
        assert np.array_equal(back.family.component((0, 1))[0], [0.5, 1.0])
        assert np.array_equal(back.family.component((0, 1))[1], [0.2, 0.3])
        assert np.array_equal(back.family.component((2, 1))[1], [0.4])


class TestComplexStep:
    def test_overflowing_rate_names_the_component(self):
        # lambda r(0) = 1e300 * 1e150 = inf: at t = 0, dS/dt = -2 r(0)^3 overflows,
        # and after it the scaled form 1/(1/r(0) + lambda z) keeps the step finite
        state = IsoFlowState({(0, 1): ([0.5], [1.0]), (1, 2): ([0.5, 1e300], [1.0, 1e300])})
        with pytest.raises(OverflowError, match=r"^dS/dt of component \(1, 2\) overflows$"):
            monotonicity_check(state, [0.0, 1.0])
        assert monotonicity_check(state, [1.0, 2.0]).passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "components, t_grid, residual",
        [
            # lambda r(0) = 1e300 * 1e10 = inf with dS/dt = -2 r(0)^3 = -2e30 finite: at
            # t = 0 the step lambda h = 1e100 dwarfs 1/r(0) = 1e-10 and reads 0
            ({(1, 1): ([1e300], [1e20])}, [0.0, 1.0], 2e30),
            # lambda = 0 and t = inf: 0 * inf never reaches the derivative, which is 0
            ({(0, 1): ([0.0], [0.81])}, [0.0, float("inf")], 0.0),
            (
                {(0, 1): ([0.0, 0.5], [0.81, 0.0]), (2, 1): ([0.7, 0.5], [0.81, 0.3])},
                [0.0, 1.0, float("inf")],
                8.881784197001252e-16,
            ),
        ],
        ids=["rate-overflows-at-zero", "lambda-zero-at-inf", "inf-in-the-grid"],
    )
    def test_every_derivative_is_finite(self, components, t_grid, residual):
        assert monotonicity_check(IsoFlowState(components), t_grid).max_derivative_residual == residual


class TestVerifyLines:
    def test_iso_monotonicity_fails_on_a_skew(self, monkeypatch):
        # a relative skew of the closed-form dS/dt that the complex step is
        # checked against fails the verify-all line from 2e-9 up, and 1e-9
        # passes: the README records the smallest failing skew of 1, 2, 5 per
        # decade
        ds_dt = iso_flow._ds_dt

        def observed(skew):
            monkeypatch.setattr(iso_flow, "_ds_dt", lambda family, masses: ds_dt(family, masses) * (1.0 + skew))
            (result,) = verify.check_iso_monotonicity(verify._SEED + 8, trials=5)
            assert result.name == "iso-monotonicity"
            return result

        assert not observed(2e-9).passed
        assert observed(1e-9).passed
