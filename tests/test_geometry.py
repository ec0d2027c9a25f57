"""Geometry model: packing constraint, surrogate inflation, calibration, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peristation import (
    ARC_TOLERANCE,
    InfeasibleGeometryError,
    RingGeometry,
    SurrogateMaterial,
    calibrate_kappa,
    solve_chamber_length,
    surrogate_inflation,
    sweep,
    uniformity_factor,
    validate_geometry,
)
from tests.conftest import NOMINAL

ARC_NOMINAL = math.pi * 65.0  # 204.20352248333654


class TestValidateGeometry:
    def test_nominal_passes(self, geometry):
        report = validate_geometry(geometry)
        assert report.passed
        assert report.violations == ()

    def test_nominal_packing_error_is_a_tenth_percent(self):
        # (28.8 + 12) * 5 = 204.0 against the 204.2035 arc
        rel = abs(40.8 * 5 - ARC_NOMINAL) / ARC_NOMINAL
        assert rel == pytest.approx(0.000996664900103032, rel=1e-12)
        assert rel < ARC_TOLERANCE

    def test_radii_order_violation_named(self, geometry):
        g = RingGeometry(**{**NOMINAL, "outer_radius_R": 20.0})
        report = validate_geometry(g)
        assert not report.passed
        assert "outer_radius_R > inner_radius_r" in report.violations

    def test_packing_violation_reports_relative_error(self):
        g = RingGeometry(**{**NOMINAL, "chamber_length_s": 35.0})
        report = validate_geometry(g)
        assert not report.passed
        assert any("chamber packing" in v for v in report.violations)

    def test_multiple_violations_all_reported(self):
        g = RingGeometry(**{**NOMINAL, "wall_thickness_t": 0.0, "chamber_length_s": -1.0})
        report = validate_geometry(g)
        assert "wall_thickness_t > 0" in report.violations
        assert "chamber_length_s > 0" in report.violations

    def test_nonfinite_field_raises(self):
        g = RingGeometry(**{**NOMINAL, "inner_radius_r": float("nan")})
        with pytest.raises(ValueError, match="finite"):
            validate_geometry(g)

    def test_zero_chamber_count(self):
        g = RingGeometry(**{**NOMINAL, "chamber_count_N": 0})
        assert "chamber_count_N >= 1" in validate_geometry(g).violations


class TestSolveChamberLength:
    def test_nominal_spacing(self):
        s = solve_chamber_length(40.0, 25.0, 12.0, 5)
        assert s == pytest.approx(28.840704496667307, rel=1e-12)

    def test_three_chambers(self):
        s = solve_chamber_length(40.0, 25.0, 12.0, 3)
        assert s == pytest.approx(56.06784082777885, rel=1e-12)

    def test_spacing_too_wide_is_infeasible(self):
        with pytest.raises(InfeasibleGeometryError, match="infeasible"):
            solve_chamber_length(40.0, 25.0, 70.0, 3)

    def test_chamber_count_below_one_raises(self):
        with pytest.raises(ValueError, match="chamber_count_N"):
            solve_chamber_length(40.0, 25.0, 12.0, 0)

    @given(
        r=st.floats(5.0, 100.0),
        extra=st.floats(1.0, 100.0),
        l=st.floats(0.0, 10.0),
        n=st.integers(1, 12),
    )
    def test_solved_geometry_always_packs(self, r, extra, l, n):
        R = r + extra
        assume(math.pi * (R + r) / n - l > 1e-9)
        s = solve_chamber_length(R, r, l, n)
        g = RingGeometry(R, r, 1.5, l, 2.0, s, n)
        assert validate_geometry(g).passed


class TestUniformityFactor:
    def test_frozen_values(self):
        expected = [
            0.0,
            0.22119921692859512,
            0.6321205588285577,
            0.8946007754381357,
            0.9816843611112658,
            0.9980695458637723,
        ]
        got = [uniformity_factor(n) for n in range(1, 7)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @given(n=st.integers(1, 50))
    def test_monotone_and_bounded(self, n):
        # saturates to exactly 1.0 in float64 around n = 14, so non-strict
        assert 0.0 <= uniformity_factor(n) <= 1.0
        assert uniformity_factor(n + 1) >= uniformity_factor(n)


class TestSurrogateInflation:
    def test_calibration_point(self, geometry, material):
        assert surrogate_inflation(geometry, material, 15.0) == pytest.approx(0.69, rel=1e-12)

    def test_linear_in_pressure(self, geometry, material):
        d_full = surrogate_inflation(geometry, material, 15.0)
        assert surrogate_inflation(geometry, material, 7.5) == pytest.approx(d_full / 2)
        assert surrogate_inflation(geometry, material, 0.0) == 0.0

    def test_invalid_geometry_rejected(self, material):
        g = RingGeometry(**{**NOMINAL, "wall_thickness_t": -1.0})
        with pytest.raises(ValueError, match="invalid geometry"):
            surrogate_inflation(g, material, 15.0)

    def test_negative_pressure_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="pressure"):
            surrogate_inflation(geometry, material, -1.0)


class TestCalibrateKappa:
    def test_frozen_nominal_kappa(self, geometry):
        kappa = calibrate_kappa(geometry, 100.0, 0.69, 15.0)
        assert kappa == pytest.approx(8.135110864016251, rel=1e-12)

    @given(
        target=st.floats(0.05, 2.0),
        E=st.floats(10.0, 1000.0),
        P=st.floats(1.0, 50.0),
    )
    def test_round_trip(self, target, E, P):
        g = RingGeometry(**NOMINAL)
        kappa = calibrate_kappa(g, E, target, P)
        mat = SurrogateMaterial(E, 0.45, kappa)
        assert surrogate_inflation(g, mat, P) == pytest.approx(target, rel=1e-9)

    def test_single_chamber_uncalibratable(self):
        g = RingGeometry(40.0, 25.0, 1.5, 12.0, 2.0, solve_chamber_length(40.0, 25.0, 12.0, 1), 1)
        with pytest.raises(ValueError, match="uncalibratable"):
            calibrate_kappa(g, 100.0, 0.69, 15.0)

    def test_bad_target_rejected(self, geometry):
        with pytest.raises(ValueError, match="target_ratio"):
            calibrate_kappa(geometry, 100.0, 0.0, 15.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_nonfinite_target_rejected(self, geometry, target):
        with pytest.raises(ValueError, match="target_ratio must be finite and > 0"):
            calibrate_kappa(geometry, 100.0, target, 15.0)

    @pytest.mark.parametrize("E", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_bad_modulus_rejected(self, geometry, E):
        with pytest.raises(ValueError, match="youngs_modulus_E must be"):
            calibrate_kappa(geometry, E, 0.69, 15.0)

    def test_zero_pressure_rejected(self, geometry):
        with pytest.raises(ValueError):
            calibrate_kappa(geometry, 100.0, 0.69, 0.0)


class TestSurrogateMaterial:
    @pytest.mark.parametrize("fields, problem", [
        ((0.0, 0.45, 8.0), "youngs_modulus_E must be > 0"),
        ((-1.0, 0.45, 8.0), "youngs_modulus_E must be > 0"),
        ((math.inf, 0.45, 8.0), "youngs_modulus_E must be finite"),
        ((math.nan, 0.45, 8.0), "youngs_modulus_E must be finite"),
        ((100.0, math.nan, 8.0), "poisson_ratio_nu must be finite"),
        ((100.0, -math.inf, 8.0), "poisson_ratio_nu must be finite"),
        ((100.0, 0.45, math.inf), "calibration_kappa must be finite"),
    ])
    def test_rejected(self, fields, problem):
        with pytest.raises(ValueError, match=problem):
            SurrogateMaterial(*fields)


class TestSweep:
    def test_chamber_count_samples_frozen(self, geometry, material):
        result = sweep(geometry, material, 15.0, "N", list(range(1, 11)))
        by_n = dict(result.samples)
        assert by_n[1] == pytest.approx(0.0, abs=1e-15)
        assert by_n[2] == pytest.approx(0.48640899324598247, rel=1e-9)
        assert by_n[3] == pytest.approx(0.8649648867636717, rel=1e-9)
        assert by_n[4] == pytest.approx(0.8525990270989243, rel=1e-9)
        assert by_n[5] == pytest.approx(0.6909752118993209, rel=1e-9)
        assert by_n[10] == pytest.approx(0.20550149683291158, rel=1e-9)
        assert result.argmax() is not None
        assert result.argmax()[0] == 3

    def test_spacing_sweep_keeps_infeasible_slots(self, geometry, material):
        # at N=5 the arc leaves ~40.8 mm per chamber; l = 41 cannot pack
        result = sweep(geometry, material, 15.0, "l", [6.0, 41.0])
        assert result.samples[0][1] is not None
        assert result.samples[1][1] is None
        assert len(result.samples) == 2

    def test_all_infeasible_argmax_is_none(self, geometry, material):
        result = sweep(geometry, material, 15.0, "l", [41.0, 42.0])
        assert result.argmax() is None

    def test_wall_sweep_matches_inverse_law(self, geometry, material):
        # d_c/r ~ 1/t, so doubling t halves inflation
        result = sweep(geometry, material, 15.0, "t", [1.0, 2.0, 4.0])
        d = [v for _, v in result.samples]
        assert d[0] == pytest.approx(2 * d[1], rel=1e-12)
        assert d[1] == pytest.approx(2 * d[2], rel=1e-12)

    def test_non_integer_chamber_count_is_a_gap(self, geometry, material):
        result = sweep(geometry, material, 15.0, "N", [2.5, 3.0])
        assert result.samples[0][1] is None
        assert result.samples[1][1] is not None

    def test_empty_values_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="empty sweep"):
            sweep(geometry, material, 15.0, "N", [])

    def test_unsorted_values_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(geometry, material, 15.0, "t", [2.0, 1.0])

    def test_unknown_parameter_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(geometry, material, 15.0, "s", [1.0])

    def test_negative_pressure_rejected(self, geometry, material):
        with pytest.raises(ValueError, match="pressure"):
            sweep(geometry, material, -15.0, "t", [1.0])

    @settings(max_examples=25)
    @given(l=st.floats(0.0, 30.0))
    def test_spacing_monotone_decreasing(self, l):
        g = RingGeometry(**NOMINAL)
        mat = SurrogateMaterial(100.0, 0.45, calibrate_kappa(g, 100.0, 0.69, 15.0))
        result = sweep(g, mat, 15.0, "l", [l, l + 1.0, l + 2.0])
        d = [v for _, v in result.samples if v is not None]
        assert all(b < a for a, b in zip(d, d[1:]))
