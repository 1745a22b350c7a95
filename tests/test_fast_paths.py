"""Differential property tests: each fast path against the reference it replaced.

The event-driven ``run_cyca_s``, the vectorised cycle aggregation and the
float branch of the angle wrapping must reproduce their references bit for
bit, not merely to a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cyca_reference as ref
from yawbench import (
    CycaConfig,
    EnvConfig,
    NacelleLog,
    Standardizer,
    TurbineParams,
    WindSeries,
    YawEnv,
    cycle_stats,
    cycle_wind,
    replay_cyca_l,
    run_cyca_s,
    wrap_angle,
    wrap_to_360,
    yaw_error,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def wind_series(draw, min_len=1, max_len=400):
    """Random-walk directions (often across the 0/360 seam) and random speeds.

    Directions are sometimes whole degrees, as in logs recorded at 1 deg
    resolution, so that with a whole-degree heading and a whole-number
    threshold the accumulator can land exactly on the threshold.
    """
    n = draw(st.integers(min_len, max_len))
    start = draw(st.one_of(st.sampled_from([0.0, 359.5, 180.0]), st.floats(0.0, 360.0, exclude_max=True)))
    step = draw(st.sampled_from([0.5, 5.0, 60.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    phi = start + np.cumsum(rng.uniform(-step, step, n))
    phi = wrap_to_360(np.round(phi) if draw(st.booleans()) else phi)
    v = rng.uniform(0.0, 25.0, n)
    return WindSeries(np.arange(n), phi, v)


thresholds = st.one_of(
    st.floats(1e-6, 1.0),  # triggers on almost every idle tick
    st.floats(1.0, 5e3),
    st.integers(1, 3000).map(float),
    st.floats(1e6, 1e12),  # never triggers on these lengths
)


@st.composite
def cyca_configs(draw):
    dt = draw(st.sampled_from([1, 2, 3, 7]))
    return CycaConfig(
        inner_period=float(dt),
        threshold=draw(thresholds),
        target_window=float(dt * draw(st.integers(1, 40))),
        stop_deadband=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
    )


class TestRunCycaS:
    @given(
        series=wind_series(min_len=10),
        cfg=cyca_configs(),
        init_theta=st.one_of(finite, st.integers(-720, 720).map(float)),
        rate=st.floats(0.05, 20.0),
        p=st.sampled_from([1, 3, 10]),
    )
    def test_equals_per_tick_reference(self, series, cfg, init_theta, rate, p):
        tp = TurbineParams(yaw_rate_deg_s=rate)
        trace, inner = run_cyca_s(series, cfg, tp, init_theta, cycle_period=p, return_inner=True)
        ref_trace, ref_inner = ref.run_cyca_s(series, cfg, tp, init_theta, cycle_period=p, return_inner=True)
        assert trace.equals(ref_trace)
        assert inner.keys() == ref_inner.keys()
        for key, want in ref_inner.items():
            assert inner[key].dtype == want.dtype
            assert np.array_equal(inner[key], want), key

    def test_long_idle_spells_and_many_events(self):
        # Long spells exercise several doubling scans; a tiny threshold makes
        # an event of almost every idle tick.
        rng = np.random.default_rng(5)
        n = 5000
        phi = wrap_to_360(350.0 + np.cumsum(rng.uniform(-2.0, 2.0, n)))
        series = WindSeries(np.arange(n), phi, rng.uniform(3.0, 15.0, n))
        tp = TurbineParams()
        for thr in (1e-3, 900.0, 40000.0, 1e9):
            cfg = CycaConfig(threshold=thr)
            a, ia = run_cyca_s(series, cfg, tp, 12.0, return_inner=True)
            b, ib = ref.run_cyca_s(series, cfg, tp, 12.0, return_inner=True)
            assert a.equals(b)
            assert all(np.array_equal(ia[k], ib[k]) for k in ib)

    def test_accumulator_landing_exactly_on_threshold(self):
        # Whole-degree wind and heading make every accrual a whole number, so
        # many of these thresholds are met exactly rather than crossed.
        rng = np.random.default_rng(7)
        phi = wrap_to_360(np.round(40.0 + np.cumsum(rng.uniform(-3.0, 3.0, 400))))
        series = WindSeries(np.arange(400), phi, np.full(400, 8.0))
        tp = TurbineParams()
        for thr in range(1, 121):
            cfg = CycaConfig(threshold=float(thr))
            a, ia = run_cyca_s(series, cfg, tp, 40.0, return_inner=True)
            b, ib = ref.run_cyca_s(series, cfg, tp, 40.0, return_inner=True)
            assert a.equals(b), thr
            assert all(np.array_equal(ia[k], ib[k]) for k in ib), thr

    def test_trace_does_not_alias_inner_heading(self):
        series = WindSeries(np.arange(100), np.full(100, 80.0), np.full(100, 8.0))
        trace, inner = run_cyca_s(series, CycaConfig(threshold=50.0), TurbineParams(), 40.0, return_inner=True)
        before = trace.theta.copy()
        inner["theta"][:] = 0.0
        assert np.array_equal(trace.theta, before)


class TestCycleStats:
    @given(series=wind_series(), p=st.integers(1, 30))
    def test_equals_cycle_wind_on_every_cycle(self, series, p):
        cfg = EnvConfig(standardizer=Standardizer(8.0), cycle_period=float(p), comm_delay=float(p))
        phi, v = cycle_stats(series, p)
        count = len(series) // p
        assert len(phi) == len(v) == count
        for c in range(count):
            want_phi, want_v = cycle_wind(series, c, cfg)
            assert phi[c] == want_phi and v[c] == want_v

    @given(series=wind_series(min_len=20, max_len=300))
    def test_env_aggregates_equal_cycle_wind(self, series):
        cfg = EnvConfig(standardizer=Standardizer(7.5))
        env = YawEnv(series, cfg)
        for c in range(env.n_cycles):
            phi, v = cycle_wind(series, c, cfg)
            assert env._phi_c[c] == phi
            assert env._v_c[c] == v
            assert env._vt_c[c] == cfg.standardizer.standardize(v)


class TestReplay:
    @given(series=wind_series(min_len=10), seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1, 4, 10]))
    def test_equals_per_cycle_reference(self, series, seed, p):
        n = len(series)
        rng = np.random.default_rng(seed)
        theta = wrap_to_360(rng.uniform(0.0, 360.0) + np.cumsum(rng.choice([-0.3, 0.0, 0.0, 0.3], n)))
        log = NacelleLog(series.t, theta)
        tp = TurbineParams()
        assert replay_cyca_l(series, log, tp, p).equals(ref.replay_cyca_l(series, log, tp, p))


def _same_float(a, b):
    """Equal bit for bit, so -0.0 and 0.0 differ."""
    return type(a) is float and type(b) is float and a.hex() == b.hex()


edge_angles = [-0.0, 0.0, -1e-300, 5e-324, -5e-324, 180.0, -180.0, 360.0, -360.0, 720.0, 1e300, -1e300,
               -1.7976931348623157e308]


class TestWrapFloatBranch:
    @given(x=st.one_of(finite, st.sampled_from(edge_angles), st.integers(-(10**9), 10**9)))
    def test_float_branch_equals_array_path(self, x):
        for fn in (wrap_angle, wrap_to_360):
            scalar = fn(x)
            arr = fn(np.array([x], dtype=float))
            assert _same_float(scalar, float(arr[0]))
            assert _same_float(scalar, fn(np.array(x, dtype=float)))  # 0-d array
        assert -180.0 < wrap_angle(x) <= 180.0
        assert 0.0 <= wrap_to_360(x) < 360.0

    @given(phi=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(edge_angles[:10])), theta=st.floats(-1e6, 1e6))
    def test_yaw_error_float_branch_equals_array_path(self, phi, theta):
        scalar = yaw_error(phi, theta)
        arr = yaw_error(np.array([phi]), np.array([theta]))
        assert _same_float(scalar, float(arr[0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for fn in (wrap_angle, wrap_to_360):
            with pytest.raises(ValueError):
                fn(bad)
            with pytest.raises(ValueError):
                fn(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            yaw_error(bad, 10.0)
        with pytest.raises(ValueError):
            yaw_error(10.0, bad)

    @given(x=finite)
    @example(x=-0.0)
    def test_numpy_scalars_take_the_float_branch(self, x):
        assert _same_float(wrap_to_360(np.float64(x)), wrap_to_360(x))
        assert _same_float(wrap_angle(np.float64(x)), wrap_angle(x))
