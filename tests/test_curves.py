import math

import pytest
from hypothesis import given, strategies as st

from lupus import curves
from lupus.curves import (
    CurveParams,
    INERTIA_DEFAULTS,
    LEADER_WEIGHT_DEFAULTS,
    cauchy_inertia,
    cauchy_pdf,
    leader_weight,
    leader_weight_floor,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestCurveParams:
    def test_defaults(self):
        assert INERTIA_DEFAULTS == CurveParams(1.0, 0.0, 2.0, 1.7)
        assert LEADER_WEIGHT_DEFAULTS == CurveParams(1.0, 0.0, 2.0, 2.1)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_scale_must_be_positive(self, a):
        with pytest.raises(ValueError):
            CurveParams(a=a, b=0.0, c=1.0, d=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_parameters_must_be_finite(self, name, value):
        params = dict(dict(a=1.0, b=0.0, c=2.0, d=1.7), **{name: value})
        with pytest.raises(ValueError, match="must be finite"):
            CurveParams(**params)

    # a * a underflows to 0, so cauchy_pdf's peak is inf and c * inf is NaN
    # at c = 0: the inertia weight or leader weight would not be a number.
    @pytest.mark.parametrize("a", [5e-324, 1e-300, 1e-163])
    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_scale_with_infinite_peak_rejected(self, a, c):
        with pytest.raises(ValueError, match="must be finite, got peak density inf"):
            CurveParams(a=a, b=0.0, c=c, d=1.7)

    # d + c/pi overflows the inertia curve's peak, d - c/pi the leader weights'.
    @pytest.mark.parametrize("c", [1.7e308, -1.7e308])
    def test_extremes_beyond_float_range_rejected(self, c):
        with pytest.raises(ValueError, match="curve extremes .* must be finite"):
            CurveParams(a=1.0, b=0.0, c=c, d=1.7e308)

    @pytest.mark.parametrize("a", [1e-161, 1e-100])
    def test_small_scale_with_finite_peak_accepted(self, a):
        p = CurveParams(a=a, b=0.5, c=0.0, d=1.7)
        assert math.isfinite(cauchy_pdf(p.b, p.b, p.a))


class TestCauchyPdf:
    def test_standard_peak(self):
        assert cauchy_pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("x0,gamma", [(0.0, 1.0), (-3.5, 0.25), (100.0, 7.0)])
    def test_mode_value(self, x0, gamma):
        assert cauchy_pdf(x0, x0, gamma) == pytest.approx(1.0 / (math.pi * gamma), rel=1e-12)

    def test_hand_value(self):
        # 1/(pi*1) * 1/(1+1) at unit offset
        assert cauchy_pdf(1.0, 0.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_rejects_nonpositive_scale(self, gamma):
        with pytest.raises(ValueError):
            cauchy_pdf(0.0, 0.0, gamma)

    @pytest.mark.parametrize("x,x0,gamma,expected", [
        (0.0, 1e300, 1.0, 0.0), (-1e300, 1e300, 1.0, 0.0), (0.0, 0.0, 1e-300, math.inf)])
    def test_float_range_limits(self, x, x0, gamma, expected):
        # The IEEE results where (x - x0) ** 2 overflows or gamma * gamma underflows.
        assert cauchy_pdf(x, x0, gamma) == expected

    def test_normalizes_to_one(self):
        from scipy.integrate import quad

        mass, _ = quad(lambda x: cauchy_pdf(x, 0.0, 1.0), -1e4, 1e4, limit=400)
        assert abs(mass - 1.0) < 1e-3

    @given(x=finite, x0=finite, gamma=st.floats(min_value=1e-3, max_value=1e3))
    def test_symmetry_about_location(self, x, x0, gamma):
        assert cauchy_pdf(x, x0, gamma) == pytest.approx(
            cauchy_pdf(2 * x0 - x, x0, gamma), rel=1e-9, abs=1e-300
        )

    @given(x=finite, x0=finite, gamma=st.floats(min_value=1e-3, max_value=1e3))
    def test_strictly_positive(self, x, x0, gamma):
        assert cauchy_pdf(x, x0, gamma) > 0.0


class TestCauchyInertia:
    def test_start_value(self):
        assert cauchy_inertia(0, 1000, INERTIA_DEFAULTS) == pytest.approx(
            2.0 / math.pi + 1.7, abs=1e-9
        )

    def test_end_value(self):
        assert cauchy_inertia(1000, 1000, INERTIA_DEFAULTS) == pytest.approx(
            1.0 / math.pi + 1.7, abs=1e-9
        )

    def test_mid_value(self):
        assert cauchy_inertia(500, 1000, INERTIA_DEFAULTS) == pytest.approx(
            (2.0 / math.pi) / 1.25 + 1.7, abs=1e-9
        )

    def test_strictly_decreasing_with_centered_peak(self):
        values = [cauchy_inertia(i, 1000, INERTIA_DEFAULTS) for i in range(1001)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            cauchy_inertia(0, 0, INERTIA_DEFAULTS)

    @pytest.mark.parametrize("iteration", [-1, 1001])
    def test_rejects_out_of_range_iteration(self, iteration):
        with pytest.raises(ValueError):
            cauchy_inertia(iteration, 1000, INERTIA_DEFAULTS)


class TestLeaderWeight:
    def test_unit_ratio(self):
        assert leader_weight(5.0, 5.0, LEADER_WEIGHT_DEFAULTS) == pytest.approx(
            2.1 - 1.0 / math.pi, abs=1e-9
        )

    def test_zero_ratio(self):
        assert leader_weight(0.0, 5.0, LEADER_WEIGHT_DEFAULTS) == pytest.approx(
            2.1 - 2.0 / math.pi, abs=1e-9
        )

    def test_degenerate_average_forces_unit_ratio(self):
        expected = leader_weight(1.0, 1.0, LEADER_WEIGHT_DEFAULTS)
        assert leader_weight(123.0, 0.0, LEADER_WEIGHT_DEFAULTS) == pytest.approx(
            expected, abs=1e-12
        )
        assert leader_weight(123.0, 1e-13, LEADER_WEIGHT_DEFAULTS) == pytest.approx(
            expected, abs=1e-12
        )

    def test_nan_ratio_forces_unit_ratio(self):
        expected = leader_weight(1.0, 1.0, LEADER_WEIGHT_DEFAULTS)
        assert leader_weight(math.inf, math.inf, LEADER_WEIGHT_DEFAULTS) == expected

    def test_infinite_score_approaches_offset(self):
        assert leader_weight(math.inf, 5.0, LEADER_WEIGHT_DEFAULTS) == pytest.approx(2.1)

    @given(score=finite, f_avg=finite)
    def test_bounded(self, score, f_avg):
        p = LEADER_WEIGHT_DEFAULTS
        v = leader_weight(score, f_avg, p)
        lo = p.d - p.c / (math.pi * p.a)
        assert lo - 1e-12 <= v <= p.d

    @given(ratio=st.floats(min_value=-1e3, max_value=1e3))
    def test_strictly_below_offset_for_bounded_ratios(self, ratio):
        # difference from d is strictly negative when c > 0 (float saturates
        # only for astronomically large ratios)
        p = LEADER_WEIGHT_DEFAULTS
        assert leader_weight(ratio, 1.0, p) < p.d

    @given(a=st.floats(min_value=0.1, max_value=10.0),
           b=st.floats(min_value=-5.0, max_value=5.0),
           c=st.floats(min_value=-5.0, max_value=5.0),
           d=st.floats(min_value=-5.0, max_value=5.0),
           ratio=st.floats(min_value=-1e3, max_value=1e3))
    def test_floor_bounds_every_ratio(self, a, b, c, d, ratio):
        p = CurveParams(a=a, b=b, c=c, d=d)
        floor = leader_weight_floor(p)
        assert leader_weight(ratio, 1.0, p) >= floor - 1e-12
        if c > 0:  # reached at the peak
            assert leader_weight(b, 1.0, p) == pytest.approx(floor, abs=1e-12)

    @given(score=finite, f_avg=finite)
    def test_strictly_positive_with_defaults(self, score, f_avg):
        assert leader_weight(score, f_avg, LEADER_WEIGHT_DEFAULTS) > 0
