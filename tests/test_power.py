import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from yawbench import (
    CycaConfig,
    EnvConfig,
    PpoConfig,
    Standardizer,
    TurbineParams,
    circular_mean_deg,
    power_ideal,
    power_with_misalignment,
    wrap_angle,
    wrap_to_360,
    yaw_error,
)


@pytest.fixture
def tp():
    return TurbineParams()


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_modular(self):
        assert wrap_angle(190.0) == -170.0

    def test_boundary_convention(self):
        assert wrap_angle(-540.0) == 180.0
        assert wrap_angle(180.0) == 180.0
        assert wrap_angle(-180.0) == 180.0

    def test_idempotent_and_periodic(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2000, 2000, size=500)
        w = wrap_angle(x)
        assert np.all(w > -180.0) and np.all(w <= 180.0)
        assert np.allclose(wrap_angle(w), w, atol=1e-12)
        for k in (-3, -1, 1, 2):
            assert np.allclose(wrap_angle(x + 360.0 * k), w, atol=1e-9)

    def test_tiny_negative_stays_in_range(self):
        w = wrap_angle(-1e-300)
        assert -180.0 < w <= 180.0
        assert wrap_to_360(-1e-300) < 360.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_to_360(float("inf"))


class TestYawError:
    def test_aligned(self):
        assert yaw_error(34.1, 34.1) == 0.0

    def test_wrap_across_zero(self):
        assert yaw_error(10.0, 350.0) == 20.0

    def test_direct_subtraction(self):
        assert yaw_error(41.4, 34.1) == pytest.approx(7.3, abs=1e-12)

    def test_antisymmetry_except_boundary(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.uniform(0, 360, size=2)
            fwd = yaw_error(a, b)
            if fwd == 180.0:
                assert yaw_error(b, a) == 180.0
            else:
                assert yaw_error(b, a) == pytest.approx(-fwd, abs=1e-12)


class TestCircularMean:
    def test_constant(self):
        assert circular_mean_deg([34.1] * 10) == pytest.approx(34.1, abs=1e-12)

    def test_across_seam(self):
        assert circular_mean_deg([350.0] * 5 + [10.0] * 5) == pytest.approx(0.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circular_mean_deg([])

    @given(
        center=st.floats(0.0, 360.0, exclude_max=True),
        spread=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=50),
        rotation=st.floats(-720.0, 720.0),
    )
    @example(center=0.0, spread=[-10.0, 10.0, 25.0], rotation=355.0)
    @example(center=350.0, spread=[-5.0, 15.0], rotation=-350.0)
    def test_rotation_equivariant_across_the_seam(self, center, spread, rotation):
        # within +-60 deg of a centre the mean resultant length is at least 0.5, so the mean is well defined
        angles = wrap_to_360(center + np.array(spread))
        mean = circular_mean_deg(angles)
        rotated = circular_mean_deg(wrap_to_360(angles + rotation))
        assert 0.0 <= rotated < 360.0
        assert abs(yaw_error(rotated, wrap_to_360(mean + rotation))) <= 1e-9


class TestRegions:
    """Each boundary speed belongs to the region above it."""

    def test_below_cut_in(self, tp):
        assert power_with_misalignment(2.0, 0.0, tp) == 0.0
        assert power_with_misalignment(np.nextafter(tp.v_cut_in, 0.0), 0.0, tp) == 0.0

    def test_rated_boundary_owned_by_region_3(self, tp):
        # rated: no misalignment loss; just below rated the loss applies
        assert power_with_misalignment(14.0, 30.0, tp) == 2000.0
        below = np.nextafter(tp.v_rated, 0.0)
        assert power_with_misalignment(below, 30.0, tp) < power_ideal(below, tp)

    def test_above_cut_out(self, tp):
        assert power_with_misalignment(26.0, 0.0, tp) == 0.0

    def test_boundary_ownership(self, tp):
        cubic = 0.5 * tp.rho * tp.area_m2 * tp.v_cut_in**3 * tp.power_coefficient * 1e-3
        assert power_with_misalignment(tp.v_cut_in, 0.0, tp) == cubic > 0.0
        assert power_with_misalignment(tp.v_cut_in, 60.0, tp) == pytest.approx(cubic / 8.0, rel=1e-12)
        assert power_with_misalignment(tp.v_cut_out, 0.0, tp) == 0.0
        assert power_with_misalignment(np.nextafter(tp.v_cut_out, 0.0), 0.0, tp) == tp.p_rated_kw

    def test_negative_speed_rejected(self, tp):
        with pytest.raises(ValueError, match="wind speed"):
            power_with_misalignment(-0.1, 0.0, tp)
        with pytest.raises(ValueError, match="wind speed"):
            power_ideal(np.array([5.0, -0.1]), tp)


class TestPowerIdeal:
    def test_region_1_zero(self, tp):
        assert power_ideal(2.0, tp) == 0.0

    def test_rated_power(self, tp):
        assert power_ideal(14.0, tp) == 2000.0

    def test_cubic_law(self, tp):
        # (7/14)^3 * 2000 with the calibrated coefficient
        assert power_ideal(7.0, tp) == pytest.approx(250.0, rel=1e-12)

    def test_region_4_zero(self, tp):
        assert power_ideal(26.0, tp) == 0.0

    def test_continuity_at_rated(self, tp):
        below = power_ideal(np.nextafter(tp.v_rated, 0.0), tp)
        assert below == pytest.approx(tp.p_rated_kw, rel=1e-9)


class TestMisalignmentLoss:
    def test_perfect_alignment(self, tp):
        for v in (2.0, 7.0, 14.0, 26.0):
            assert power_with_misalignment(v, 0.0, tp) == power_ideal(v, tp)

    def test_cos_cubed_at_60(self, tp):
        assert power_with_misalignment(7.0, 60.0, tp) == pytest.approx(31.25, rel=1e-12)

    def test_no_loss_at_rated(self, tp):
        assert power_with_misalignment(14.0, 30.0, tp) == 2000.0

    def test_clamped_past_90(self, tp):
        assert power_with_misalignment(7.0, 90.0, tp) == pytest.approx(0.0, abs=1e-12)
        assert power_with_misalignment(7.0, 135.0, tp) == 0.0
        assert power_with_misalignment(7.0, -135.0, tp) == 0.0
        assert power_with_misalignment(7.0, 170.0, tp) == 0.0

    def test_never_exceeds_ideal(self, tp):
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = rng.uniform(0, 30)
            g = wrap_angle(rng.uniform(-180, 180))
            p = power_with_misalignment(v, g, tp)
            assert 0.0 <= p <= power_ideal(v, tp) + 1e-12

    def test_monotone_loss_in_partial_region(self, tp):
        gammas = np.linspace(0.0, 90.0, 181)
        factors = power_with_misalignment(np.full(181, 7.0), gammas, tp) / power_ideal(7.0, tp)
        assert factors[0] == 1.0
        assert all(a >= b - 1e-15 for a, b in zip(factors, factors[1:]))


class TestTurbineParams:
    def test_area_derived(self, tp):
        assert tp.area_m2 == pytest.approx(math.pi * 41.0**2, rel=1e-15)

    def test_calibrated_coefficient_hits_rated(self, tp):
        p_watts = 0.5 * tp.rho * tp.area_m2 * tp.v_rated**3 * tp.power_coefficient
        assert p_watts == pytest.approx(tp.p_rated_kw * 1e3, rel=1e-12)

    def test_speed_ordering_validated(self):
        with pytest.raises(ValueError):
            TurbineParams(v_cut_in=15.0)

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            TurbineParams(alpha=1.0)
        with pytest.raises(ValueError):
            TurbineParams(alpha=6.0)
        TurbineParams(alpha=1.7)
        TurbineParams(alpha=5.1)

    def test_roundtrip_dict(self, tp):
        assert TurbineParams.from_dict(tp.to_dict()) == tp

    @pytest.mark.parametrize("field", ["rho", "rotor_diameter", "p_rated_kw", "yaw_rate_deg_s", "p_yaw_drive_kw"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected_by_name(self, field, bad):
        # nan was accepted: every check was a comparison, and nan <= 0 is false
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            TurbineParams(**{field: bad})


# Every real-valued config field, as (class, field).
REAL_FIELDS = [
    (EnvConfig, "w"),
    (Standardizer, "scale"),
    (CycaConfig, "threshold"),
    (CycaConfig, "stop_deadband"),
    *((TurbineParams, f.name) for f in fields(TurbineParams)),
    *((PpoConfig, name) for name in ("learning_rate", "discount", "gae_lambda", "clip_eps", "value_coef",
                                     "entropy_coef", "init_offset_deg")),
]


class TestRealFields:
    @pytest.mark.parametrize("cls, field", REAL_FIELDS, ids=[f"{c.__name__}.{f}" for c, f in REAL_FIELDS])
    @pytest.mark.parametrize(
        "bad", [True, np.True_, "1", b"1", None, 1j], ids=["True", "np.True_", "str", "bytes", "None", "complex"]
    )
    def test_bool_and_text_refused_by_name(self, cls, field, bad):
        # a bool was stored as given (CycaConfig(threshold=True) ran at 1); "1", None and 1j raised TypeError
        given = {"standardizer": Standardizer(8.0)} if cls is EnvConfig else {}
        name = "standardizer scale" if cls is Standardizer else field
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {re.escape(repr(bad))}$"):
            cls(**given, **{field: bad})

    def test_numpy_and_int_values_stored_as_float(self):
        tp = TurbineParams(rho=np.float32(1.25), p_rated_kw=2000)
        env_cfg = EnvConfig(Standardizer(np.int64(8)), w=40)
        values = (tp.rho, tp.p_rated_kw, env_cfg.w, env_cfg.standardizer.scale,
                  CycaConfig(threshold=np.int64(900)).threshold, PpoConfig(discount=np.float64(0.9)).discount)
        assert values == (1.25, 2000.0, 40.0, 8.0, 900.0, 0.9)
        assert all(type(x) is float for x in values)
