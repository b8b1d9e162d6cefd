import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toda_kdq import iso_flow, verify
from toda_kdq.iso_flow import _riccati, monotonicity_check
from toda_kdq.kdq import PseudoPositiveMeasure


def measure(components) -> PseudoPositiveMeasure:
    """The measure on S^2 of `components`, a map (k, l) -> (radii, masses)."""
    return PseudoPositiveMeasure(3, components)


SINGLE = measure({(1, 1): ([1.0], [1.0])})


class TestRiccatiEvolve:
    """The closed form r(t) = r(0)/(1 + lambda r(0) t), through `_riccati`."""

    def test_closed_form_value(self):
        assert np.sqrt(_riccati(SINGLE.family, [1.0])[0, 0]) == pytest.approx(0.5)

    def test_zero_radius_constant(self):
        fam = measure({(0, 1): ([0.0], [0.81])}).family
        assert _riccati(fam, [7.0])[0, 0] == pytest.approx(0.81)

    def test_flow_property(self):
        # the flow from t = 0.6 for 1.1 is the flow for 1.7
        rng = np.random.default_rng(0)
        fam = measure({(k, 1): (rng.uniform(0.2, 2.0, 3), rng.uniform(0.1, 1.0, 3)) for k in range(3)}).family
        two_step = _riccati(replace(fam, masses=_riccati(fam, [0.6])[0]), [1.1])[0]
        one_step = _riccati(fam, [1.7])[0]
        assert np.max(np.abs(two_step - one_step)) < 1e-14

    def test_time_zero_returns_the_masses(self):
        # lambda r(0) = 1e300 * 1e150 overflows, and inf * 0 must not reach t = 0;
        # the masses come back bit for bit, where fl(sqrt(m))^2 moves both
        fam = measure({(1, 1): ([1e300, 0.5], [1e300, 0.3])}).family  # sorted: 0.5 first
        masses = _riccati(fam, [0.0])[0]
        assert masses.tobytes() == np.array([0.3, 1e300]).tobytes()

    def test_nan_time_is_refused(self):
        with pytest.raises(ValueError, match=r"^t_grid entries must be >= 0, got t_grid\[1\] = nan$"):
            monotonicity_check(SINGLE, [0.0, float("nan")])
        # t = inf stays a limit: masses with lambda r(0) > 0 go to 0, the others stay
        fam = measure({(0, 1): ([0.0, 0.5], [0.81, 0.3])}).family
        assert _riccati(fam, [float("inf")])[0].tolist() == [0.81, 0.0]


class TestStateChecks:
    """The measure refuses a negative radius or mass and an invalid index;
    the flow refuses a component with no atoms, so no check passes on it."""

    @pytest.mark.parametrize(
        "components, message",
        [
            ({(0, 1): ([-0.5], [1.0])}, "half-line measure requires nonnegative atoms"),
            ({(0, 1): ([0.5], [-1.0])}, "weights must be strictly positive"),
            ({(0, 0): ([0.5], [1.0])}, r"invalid harmonic index \(k=0, ell=0\); need 1 <= ell <= 1"),
            ({(0, 1): ([0.5], [1.0]), (1, 1): ([], [])}, r"component \(1, 1\) has no atoms"),
        ],
    )
    def test_refused(self, components, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            monotonicity_check(measure(components), [0.0, 1.0])

    def test_no_components(self):
        with pytest.raises(ValueError, match="^the measure has no components$"):
            monotonicity_check(measure({}), [0.0, 1.0])


class TestIntegrabilityFunctional:
    """S_{k,l} = sum_j r_j^2 / lambda_j^k, read from `monotonicity_check(...).values`."""

    def test_degree_zero_total_mass(self):
        mu = measure({(0, 1): ([0.5, 2.0], [0.3, 0.9])})
        assert monotonicity_check(mu, [0.0, 1.0]).values[0, 0] == pytest.approx(1.2)

    def test_inverse_power(self):
        mu = measure({(2, 1): ([2.0], [1.0])})
        assert monotonicity_check(mu, [0.0, 1.0]).values[0, 0] == pytest.approx(0.25)

    def test_zero_radius_division_error(self):
        mu = measure({(1, 1): ([0.0], [0.5])})
        with pytest.raises(ZeroDivisionError):
            monotonicity_check(mu, [0.0, 1.0])

    def test_decreasing_along_flow(self):
        rng = np.random.default_rng(1)
        mu = measure({(2, 1): (rng.uniform(0.5, 2.0, 4), rng.uniform(0.1, 1.0, 4))})
        values = monotonicity_check(mu, [0.0, 0.5, 1.0, 4.0]).values[:, 0]
        assert np.all(np.diff(values) < 0.0)


class TestMonotonicity:
    def test_closed_form_trajectory(self):
        rep = monotonicity_check(SINGLE, np.linspace(0.0, 10.0, 41))
        assert rep.max_increase == 0.0
        vals = rep.values[:, 0]
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
            rep = monotonicity_check(measure(comps), np.linspace(0.0, 10.0, 21))
            assert rep.max_increase == 0.0
            assert rep.max_derivative_residual < 1e-8


# masses from 1e-300 to 1e300, radii 0 (in degree 0 alone: lambda = 0 with
# k > 0 divides by zero) and up to 1e300, grid times 0, 1e-300, inf and up to 1e300
_MASS = st.floats(1e-300, 1e300)
_RADII = (st.one_of(st.just(0.0), st.floats(0.0, 1e300)), st.floats(0.0, 1e300, exclude_min=True))
_TIME = st.one_of(st.sampled_from([0.0, 1e-300, float("inf")]), st.floats(0.0, 1e300))


@st.composite
def iso_states(draw):
    # valid measures on S^2: 1 <= ell <= 2k + 1, every component with an atom
    keys = draw(st.lists(st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 2 * k + 1))), min_size=1, max_size=3, unique=True))
    comps = {}
    for key in keys:
        size = draw(st.integers(1, 3))
        radius = _RADII[key[0] > 0]
        comps[key] = (draw(st.lists(radius, min_size=size, max_size=size)), draw(st.lists(_MASS, min_size=size, max_size=size)))
    try:
        return measure(comps)
    except ValueError:  # coincident atoms whose merged weight overflows
        assume(False)


class TestNoRise:
    @settings(max_examples=300, deadline=None)
    @given(mu=iso_states(), t_grid=st.lists(_TIME, min_size=2, max_size=6).map(sorted))
    def test_functionals_never_increase(self, mu, t_grid):
        # each t > 0 mass is capped at its t = 0 mass, and every rounded
        # operation on the way to S is monotone in t: S_{k,l} never rises, not even by an ulp
        try:
            rep = monotonicity_check(mu, t_grid)
        except (OverflowError, ZeroDivisionError):  # S or dS/dt overflows, a coarse step, or lambda = 0 with k > 0
            assume(False)
        assert rep.max_increase == 0.0


class TestSharedSchema:
    def test_measure_roundtrip(self):
        # the flow reads the measure's checked components: atoms sorted and
        # merged, one column of S_{k,l} per key in ascending order
        mu = measure({(2, 1): ([0.7], [0.4]), (0, 1): ([1.0, 0.5, 0.5], [0.3, 0.1, 0.1])})
        assert np.array_equal(mu.family.component((0, 1))[0], [0.5, 1.0])
        rep = monotonicity_check(mu, [0.0, 1.0])
        assert rep.values.shape == (2, 2)
        assert rep.values[0].tolist() == [0.2 + 0.3, 0.4 / 0.7**2]


class TestComplexStep:
    def test_overflowing_rate_names_the_component(self):
        # lambda r(0) = 1e300 * 1e150 = inf: at t = 0, dS/dt = -2 r(0)^3 overflows,
        # and after it the scaled form 1/(1/r(0) + lambda z) keeps the step finite
        mu = measure({(0, 1): ([0.5], [1.0]), (1, 2): ([0.5, 1e300], [1.0, 1e300])})
        with pytest.raises(OverflowError, match=r"^dS/dt of component \(1, 2\) overflows$"):
            monotonicity_check(mu, [0.0, 1.0])
        assert monotonicity_check(mu, [1.0, 2.0]).max_increase == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "components, t_grid, residual",
        [
            # lambda r(0) = 1e300 * 1e10 = inf with dS/dt = -2 r(0)^3 = -2e30 finite: at
            # t = 0 the step lambda h = 1e100 dwarfs 1/r(0) = 1e-10, and the step is refused
            (
                {(1, 1): ([1e300], [1e20])},
                [0.0, 1.0],
                "at t = 0.0 the step lambda h = 1e+100 of component (1, 1) is not small "
                "against 1/r(0) + lambda t = 1e-10",
            ),
            # lambda = 0 and t = inf: 0 * inf never reaches the derivative, which is 0
            ({(0, 1): ([0.0], [0.81])}, [0.0, float("inf")], 0.0),
            # lambda = 1e100: at t = 0, lambda h = 1e-100 against 1/r(0) = 1e-91 reads
            # dS/dt = -2e273 to the bit; against 1e-92 (lambda sqrt(m) = 1e192) it is refused
            ({(1, 1): ([1e100], [1e182])}, [0.0, 1e-300], 0.0),
            (
                {(1, 1): ([1e100], [1e184])},
                [0.0, 1e-300],
                "at t = 0.0 the step lambda h = 1e-100 of component (1, 1) is not small "
                "against 1/r(0) + lambda t = 1e-92",
            ),
            (
                {(0, 1): ([0.0], [0.81]), (2, 1): ([0.7, 0.5], [0.81, 0.3])},
                [0.0, 1.0, float("inf")],
                4.440892098500626e-16,
            ),
            # at t = 1, Im r(1 + ih)^2 = -2 lambda h r^3 = -2e-400 underflows to -0.0 while
            # dS/dt = -2 r^3 = -2e-300: the step sees none of it, and the residual would read 2e-300
            (
                {(1, 1): ([1e100], [1e182])},
                [0.0, 1.0],
                "at t = 1.0 the complex step of dS/dt of component (1, 1) underflows: "
                "Im r(t + ih)^2 = -0.0 is not a normal double",
            ),
            # the atom of mass 1e-100 underflows too, but its part of dS/dt, below
            # tiny / (lambda h) = 2.2e-108, is under eps |dS/dt|
            ({(1, 1): ([1.0, 2.0], [1e-100, 1.0])}, [0.0, 1.0], 1.3877787807814457e-17),
        ],
        ids=[
            "rate-overflows-at-zero",
            "lambda-zero-at-inf",
            "step-below-the-bound",
            "step-at-the-bound",
            "inf-in-the-grid",
            "step-underflows",
            "negligible-atom-underflows",
        ],
    )
    def test_every_derivative_is_finite(self, components, t_grid, residual):
        # a finite residual, or the OverflowError that refuses a step too coarse to read one
        if isinstance(residual, str):
            with pytest.raises(OverflowError, match=f"^{re.escape(residual)}$"):
                monotonicity_check(measure(components), t_grid)
        else:
            assert monotonicity_check(measure(components), t_grid).max_derivative_residual == residual


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

    def test_iso_monotonicity_refuses_no_trials(self):
        # a check over no draws would read 0.0 and pass on no data
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            verify.check_iso_monotonicity(verify._SEED + 8, trials=0)
