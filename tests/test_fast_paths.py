"""Differential property tests: each fast path against the reference it replaced.

The event-driven ``run_cyca_s``, the vectorised cycle aggregation, the column
``YawEnv`` and its on-demand ``observation``, the inline float wrapping of
``YawEnv.reset`` and ``step``, the scalar angle wrapping, the power curve (on
scalars and arrays), the bulk CSV reader, the block CSV writer and the
Python-float AR(1) loop of the wind generator must reproduce their references
bit for bit, not merely to a tolerance.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_reference
import cyca_reference as ref
import env_reference
import power_reference
import wind_reference
from env_reference import cycle_wind
from yawbench import (
    Action,
    CycaConfig,
    CycleTrace,
    EnvConfig,
    NacelleLog,
    Standardizer,
    TurbineParams,
    WindSeries,
    WindDataError,
    YawEnv,
    calibrate_threshold,
    cycle_stats,
    encode_observation,
    eval_env_config,
    generate_synthetic,
    load_nacelle_log,
    load_series,
    n_cycles,
    replay_cyca_l,
    run_cyca_s,
    power_ideal,
    power_with_misalignment,
    save_nacelle_log,
    save_series,
    variable_preset,
    wrap_angle,
    wrap_to_360,
    yaw_error,
)
from yawbench.env import TRACE_COLUMNS
from yawbench.wind import CSV_HEADER, _matched_ar1, read_log_csv, write_csv_columns

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
    return CycaConfig(
        threshold=draw(thresholds),
        target_window=float(draw(st.integers(1, 280))),
        stop_deadband=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
    )


class TestRunCycaS:
    @given(
        series=wind_series(min_len=10),
        cfg=cyca_configs(),
        init_theta=st.one_of(finite, st.integers(-720, 720).map(float)),
        rate=st.floats(0.05, 20.0),
    )
    def test_equals_per_tick_reference(self, series, cfg, init_theta, rate):
        tp = TurbineParams(yaw_rate_deg_s=rate)
        trace, inner = run_cyca_s(series, cfg, tp, init_theta, return_inner=True)
        ref_trace, ref_inner = ref.run_cyca_s(series, cfg, tp, init_theta, return_inner=True)
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
    @given(series=wind_series())
    def test_equals_cycle_wind_on_every_cycle(self, series):
        phi, v = cycle_stats(series)
        count = len(series) // 10
        assert len(phi) == len(v) == count
        for c in range(count):
            want_phi, want_v = cycle_wind(series, c)
            assert phi[c] == want_phi and v[c] == want_v

    @given(series=wind_series(min_len=20, max_len=300))
    def test_env_aggregates_equal_cycle_wind(self, series):
        cfg = eval_env_config(series, EnvConfig(standardizer=Standardizer(7.5)))  # an episode the series holds
        env = YawEnv(series, cfg)
        for c in range(n_cycles(series)):
            phi, v = cycle_wind(series, c)
            assert env._phi_c[c] == phi
            assert env._v_c[c] == v
            assert env._vt_c[c] == cfg.standardizer.standardize(v)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def wind_series_of(phi):
    return WindSeries(np.arange(len(phi)), np.asarray(phi, dtype=float), np.full(len(phi), 8.0))


@st.composite
def env_runs(draw):
    """An env config, a series holding at least one episode, reset arguments and an action sequence.

    The yaw rates make 3, 17, 180 and 360 deg moves per 10 s cycle."""
    episode_len = draw(st.integers(1, 25))
    series = draw(wind_series(min_len=(episode_len + 2) * 10, max_len=max(400, (episode_len + 8) * 10)))
    cfg = EnvConfig(
        standardizer=Standardizer(draw(st.sampled_from([1.0, 7.5, 8.2]))),
        turbine=TurbineParams(yaw_rate_deg_s=draw(st.sampled_from([0.3, 1.7, 18.0, 36.0]))),
        k=draw(st.integers(1, 4)),
        j=draw(st.integers(1, 6)),
        w=draw(st.sampled_from([0.0, 40.0, 1e3])),
        episode_len=episode_len,
    )
    max_start = len(series) // 10 - episode_len - 1
    reset = {
        "start_cycle": draw(st.integers(0, max_start)),
        "theta": draw(st.one_of(st.none(), st.floats(-720.0, 720.0), st.sampled_from([0.0, 359.9]))),
    }
    codes = st.one_of(st.integers(0, 2), st.sampled_from(list(Action)), st.integers(0, 2).map(np.int64))
    return series, cfg, reset, draw(st.lists(codes, min_size=episode_len, max_size=episode_len))


class TestYawEnv:
    """The column env against the shifting, info-dict env of ``env_reference``."""

    @settings(max_examples=200)
    @given(run=env_runs())
    def test_every_step_matches_reference(self, run):
        series, cfg, reset, actions = run
        env, ref_env = YawEnv(series, cfg), env_reference.YawEnv(series, cfg)
        obs, ref_obs = env.reset(**reset), ref_env.reset(**reset)
        assert same_bits(obs, ref_obs)
        assert same_bits(env.encoded_observation, encode_observation(obs))
        records = []
        for a in actions:
            reward, done = env.step(a)
            obs = env.observation
            ref_obs, ref_reward, ref_done, info = ref_env.step(a)
            records.append(info)
            assert same_bits(obs, ref_obs) and _same_float(reward, ref_reward) and done is ref_done
            assert same_bits(env.encoded_observation, encode_observation(obs))
            assert _trace_equal(env.trace(), env_reference.trace_from_records(records))
        assert done

    def test_full_span_episode_on_a_long_series(self):
        # The wind features of 2000 cycles come from one encoder call; every
        # step's encoded rows must still equal an encoder call on the observation.
        rng = np.random.default_rng(21)
        series = wind_series_of(wrap_to_360(355.0 + np.cumsum(rng.uniform(-1.0, 1.0, 20000))))
        cfg = eval_env_config(series, EnvConfig(standardizer=Standardizer(8.0)))
        env, ref_env = YawEnv(series, cfg), env_reference.YawEnv(series, cfg)
        actions = rng.integers(0, 3, cfg.episode_len).tolist()
        env.reset(0, 350.0)
        for a in actions:
            env.step(a)
            assert same_bits(env.encoded_observation, encode_observation(env.observation))
        ref_trace = env_reference.run_actions(ref_env, actions, start_cycle=0, theta=350.0)
        assert _trace_equal(env.trace(), ref_trace)

    @settings(max_examples=100)
    @given(run=env_runs(), data=st.data())
    def test_observation_equals_raw_table(self, run, data):
        # right after reset, at a drawn step mid-episode and at done, the on-demand
        # observation equals the raw table the env wrote a row of per step
        series, cfg, reset, actions = run
        env, ref_env = YawEnv(series, cfg), env_reference.RawTableYawEnv(series, cfg)
        obs = env.reset(**reset)
        assert same_bits(obs, ref_env.reset(**reset)) and same_bits(env.observation, obs)
        mid = data.draw(st.integers(1, len(actions)))
        for k, a in enumerate(actions, start=1):
            reward, done = env.step(a)
            ref_obs, ref_reward, ref_done = ref_env.step(a)
            assert _same_float(reward, ref_reward) and done is ref_done
            if k == mid or done:
                assert same_bits(env.observation, ref_obs)
                assert same_bits(env.encoded_observation, ref_env.encoded_observation)
        assert done and _trace_equal(env.trace(), ref_env.trace())

    def test_observation_of_an_episode_shorter_than_the_lag(self):
        series, cfg = wind_series_of(np.linspace(0.0, 300.0, 200)), EnvConfig(Standardizer(8.0), j=6, episode_len=3)
        env, ref_env = YawEnv(series, cfg), env_reference.RawTableYawEnv(series, cfg)
        env.reset(10, 5.0)
        ref_env.reset(10, 5.0)
        for a in (0, 2, 1):
            env.step(a)
            ref_obs = ref_env.step(a)[0]
            assert same_bits(env.observation, ref_obs) and env.observation.shape == (6, 4)

    @given(run=env_runs())
    def test_one_cycle_delay_law(self, run):
        series, cfg, reset, actions = run
        trace = env_reference.play(YawEnv(series, cfg), actions, **reset)
        assert list(trace.action_issued) == [int(a) for a in actions]
        assert trace.action_applied[0] == int(Action.STAY)
        assert np.array_equal(trace.action_applied[1:], trace.action_issued[:-1])

    def test_returned_trace_survives_later_steps_and_reset(self):
        series = wind_series_of(np.linspace(350.0, 370.0, 400) % 360.0)
        env = YawEnv(series, EnvConfig(standardizer=Standardizer(8.0), j=3, episode_len=12))
        env.reset(2, 100.0)
        for a in (0, 2, 2, 1):
            env.step(a)
        trace = env.trace()
        kept = {name: getattr(trace, name).copy() for name in TRACE_COLUMNS}
        for a in (0, 0, 0):
            env.step(a)
        env.reset(9, 300.0)
        for a in (2, 2, 2, 2, 0):
            env.step(a)
        assert all(same_bits(getattr(trace, name), col) for name, col in kept.items())
        assert len(env.trace()) == 5

    def test_encoded_observation_is_read_only(self):
        env = YawEnv(wind_series_of(np.full(200, 10.0)), EnvConfig(standardizer=Standardizer(8.0), episode_len=4))
        obs = env.reset(start_cycle=0)
        x = env.encoded_observation
        with pytest.raises(ValueError):
            x[0] = 1.0
        assert same_bits(x, encode_observation(obs))

    def test_trace_needs_a_step(self):
        env = YawEnv(wind_series_of(np.full(200, 10.0)), EnvConfig(standardizer=Standardizer(8.0), episode_len=4))
        env.reset(start_cycle=0)
        with pytest.raises(ValueError, match="no step"):
            env.trace()


class TestMatchedAr1:
    """The Python-float AR(1) loop against the numpy-scalar loop it replaced."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3000),
           a=st.one_of(st.sampled_from([1e-3, 0.5, 1.0]), st.floats(1e-6, 1.0)))
    @example(seed=1, n=21000, a=0.001)  # the presets' length and reversion rate
    def test_equals_numpy_scalar_loop(self, seed, n, a):
        out = _matched_ar1(np.random.default_rng(seed), n, a)
        assert same_bits(out, wind_reference.matched_ar1(np.random.default_rng(seed), n, a))


class TestCalibrateThreshold:
    """Calibration scores each threshold from its simulated headings; the
    reference scores it from the whole ``run_cyca_s`` trace."""

    @given(
        series=wind_series(min_len=1),
        cfg=cyca_configs(),
        init_theta=st.one_of(finite, st.integers(-720, 720).map(float)),
        grid=st.lists(thresholds, min_size=1, max_size=5),
        target_pct=st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 2.0, 50.0, 100.0])),
    )
    def test_equals_trace_scored_reference(self, series, cfg, init_theta, grid, target_pct):
        tp = TurbineParams()
        args = (series, cfg, tp, init_theta, grid, target_pct)
        if len(series) < 10:
            with pytest.raises(ValueError) as want:
                ref.calibrate_threshold(*args)
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                calibrate_threshold(*args)
            return
        best, usages = calibrate_threshold(*args)
        want_best, want_usages = ref.calibrate_threshold(*args)
        assert best.hex() == want_best.hex()
        assert [u.hex() for u in usages] == [u.hex() for u in want_usages]

    def test_series_shorter_than_one_cycle_named(self):
        series = WindSeries(np.arange(5), np.full(5, 50.0), np.full(5, 8.0))
        for calibrate in (calibrate_threshold, ref.calibrate_threshold):
            with pytest.raises(ValueError, match="^series of 5 samples holds no full 10 s cycle$"):
                calibrate(series, CycaConfig(), TurbineParams(), 50.0, [300.0, 900.0])

    def test_variable_wind_grid(self):
        # the benchmark's calibration: variable wind, a grid from >= 10% yawing down to about 2%
        series = generate_synthetic(variable_preset(21000), 1).slice_samples(0, 10500)
        args = (series, CycaConfig(), TurbineParams(), float(series.phi[0]), (300.0, 2500.0, 20000.0))
        assert calibrate_threshold(*args) == ref.calibrate_threshold(*args)


class TestReplay:
    @given(series=wind_series(min_len=10), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_cycle_reference(self, series, seed):
        n = len(series)
        rng = np.random.default_rng(seed)
        theta = wrap_to_360(rng.uniform(0.0, 360.0) + np.cumsum(rng.choice([-0.3, 0.0, 0.0, 0.3], n)))
        log = NacelleLog(series.t, theta)
        tp = TurbineParams()
        assert replay_cyca_l(series, log, tp).equals(ref.replay_cyca_l(series, log, tp))


def _same_float(a, b):
    """Equal bit for bit, so -0.0 and 0.0 differ."""
    return type(a) is float and type(b) is float and a.hex() == b.hex()


edge_angles = [-0.0, 0.0, -1e-300, 5e-324, -5e-324, 180.0, -180.0, 360.0, -360.0, 720.0, 1e300, -1e300,
               -1.7976931348623157e308]


class TestWrapScalars:
    """The wrapping functions on a scalar against the float forms of ``power_reference``."""

    @given(x=st.one_of(finite, st.sampled_from(edge_angles), st.integers(-(10**9), 10**9)))
    def test_scalar_equals_float_reference_and_array_path(self, x):
        for fn, ref_fn in ((wrap_angle, power_reference.wrap_angle), (wrap_to_360, power_reference.wrap_to_360)):
            scalar = fn(x)
            assert _same_float(scalar, ref_fn(x))
            assert _same_float(scalar, float(fn(np.array([x], dtype=float))[0]))
            assert _same_float(scalar, fn(np.array(x, dtype=float)))  # 0-d array
        assert -180.0 < wrap_angle(x) <= 180.0
        assert 0.0 <= wrap_to_360(x) < 360.0

    @given(phi=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(edge_angles[:10])), theta=st.floats(-1e6, 1e6))
    def test_yaw_error_scalar_equals_float_reference(self, phi, theta):
        scalar = yaw_error(phi, theta)
        assert _same_float(scalar, power_reference.yaw_error(phi, theta))
        assert _same_float(scalar, float(yaw_error(np.array([phi]), np.array([theta]))[0]))

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
    def test_numpy_scalars_give_the_python_float(self, x):
        assert _same_float(wrap_to_360(np.float64(x)), wrap_to_360(x))
        assert _same_float(wrap_angle(np.float64(x)), wrap_angle(x))


# Headings at the seams of the inline float wrapping in ``YawEnv.reset`` and
# ``step``: 0 and 360, tiny negatives that ``%`` rounds up to 360, a 3-degree
# move's length one ulp off, and 180 and its neighbours. With a wind direction
# of 0.0 (which the cycle mean keeps exactly), they make phi - theta land on
# +-180, 180 +- 1 ulp and tiny negatives.
_ulps_180 = [math.nextafter(180.0, 0.0), math.nextafter(180.0, 360.0)]
seam_headings = [0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-17, math.nextafter(360.0, 0.0), 360.0, 3.0,
                 math.nextafter(3.0, 0.0), math.nextafter(3.0, 6.0), math.nextafter(357.0, 360.0), 180.0,
                 -180.0, *_ulps_180, *(-x for x in _ulps_180), 540.0]


class TestStepWrapSeams:
    """``reset`` and ``step`` wrap the heading and the yaw error inline; each value
    must equal the float forms of ``power_reference``, bit for bit."""

    @settings(max_examples=300)
    @given(
        phi=st.one_of(st.sampled_from([0.0, 90.0, 180.0, 359.0]), st.floats(0.0, 360.0, exclude_max=True)),
        init_theta=st.one_of(st.sampled_from(seam_headings), st.floats(-720.0, 720.0)),
        offset=st.one_of(st.just(0.0), st.sampled_from(seam_headings)),
        rate=st.sampled_from([0.3, 1.7, 18.0, 36.0]),  # 3, 17, 180 and 360 deg moves per 10 s cycle
        actions=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=12),
    )
    @example(phi=0.0, init_theta=math.nextafter(3.0, 0.0), offset=0.0, rate=0.3, actions=[0, 0])
    @example(phi=0.0, init_theta=5e-324, offset=0.0, rate=0.3, actions=[1])
    @example(phi=0.0, init_theta=-1e-300, offset=0.0, rate=0.3, actions=[2, 0, 0])
    def test_headings_and_errors_equal_float_reference(self, phi, init_theta, offset, rate, actions):
        n = (len(actions) + 2) * 10
        series = WindSeries(np.arange(n), np.full(n, phi), np.full(n, 8.0))
        cfg = EnvConfig(standardizer=Standardizer(8.0), turbine=TurbineParams(yaw_rate_deg_s=rate), j=2,
                        episode_len=len(actions))
        phi_c = cycle_stats(series)[0].tolist()
        env = YawEnv(series, cfg)
        obs = env.reset(0, init_theta + offset)
        theta = power_reference.wrap_to_360(init_theta + offset)
        assert _same_float(float(obs[0, 1]), power_reference.yaw_error(phi_c[0], theta))
        pending = 1
        for t, a in enumerate(actions):
            env.step(a)
            delta = 10 * (pending - 1) * rate
            if delta != 0.0:
                theta = power_reference.wrap_to_360(theta + delta)
            trace = env.trace()
            assert _same_float(float(trace.theta[t]), theta)
            assert _same_float(float(trace.gamma[t]), power_reference.yaw_error(phi_c[t + 1], theta))
            pending = a


def _next(x, toward):
    return float(np.nextafter(x, toward))


class TestIdleErrorIdentity:
    """The idle scan of ``run_cyca_s`` takes ``|yaw error|`` as ``minimum(w, 360 - w)``
    with ``w = mod(phi - theta, 360)``; it must equal ``abs(wrap_angle(phi - theta))``."""

    seam = [0.0, -0.0, 180.0, math.nextafter(180.0, 0.0), math.nextafter(180.0, 360.0),
            math.nextafter(360.0, 0.0), 360.0, -5e-324, -1e-300, -1e-17, math.nextafter(0.0, -1.0) * 2**40,
            -180.0, math.nextafter(-180.0, 0.0), -360.0, 540.0]

    @staticmethod
    def same_bits(phi, theta):
        d = np.asarray(phi, dtype=float) - np.asarray(theta, dtype=float)
        w = np.mod(d, 360.0)
        return np.minimum(w, 360.0 - w).tobytes() == np.abs(wrap_angle(d)).tobytes()

    @given(d=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(seam)), min_size=1, max_size=50))
    def test_on_differences(self, d):
        assert self.same_bits(d, 0.0)

    @given(phi=st.lists(st.one_of(st.floats(0.0, 360.0, exclude_max=True), st.sampled_from(seam)),
                        min_size=1, max_size=50),
           theta=st.one_of(st.floats(0.0, 360.0, exclude_max=True), st.sampled_from(seam)))
    def test_on_headings(self, phi, theta):
        assert self.same_bits(phi, theta)

    def test_seam_values(self):
        assert self.same_bits(self.seam, 0.0)
        assert self.same_bits([x + 0.0 for x in self.seam], -0.0)


class TestPowerArray:
    """``power_with_misalignment`` against the scalar reference curve, element by element."""

    tp = TurbineParams()
    edge_speeds = [
        s
        for b in (0.0, tp.v_cut_in, tp.v_rated, tp.v_cut_out)
        for s in (b, _next(b, math.inf), _next(b, -math.inf))
        if s >= 0.0
    ] + [5e-324, 1e300]
    edge_gammas = [-0.0, 0.0, 180.0, -180.0, 90.0, -90.0, _next(90.0, 0.0), _next(90.0, 180.0),
                   _next(-90.0, 0.0), _next(-90.0, -180.0), 135.0, -179.99999999999997, 5e-324]

    @given(
        v=st.lists(st.one_of(st.floats(0.0, 30.0), st.sampled_from(edge_speeds)), min_size=1, max_size=60),
        gammas=st.lists(st.one_of(st.floats(-180.0, 180.0), st.sampled_from(edge_gammas)), min_size=60, max_size=60),
        alpha=st.one_of(st.floats(1.7, 5.1), st.sampled_from([1.7, 2.0, 3.0, 5.1])),
    )
    def test_equals_scalar_curve(self, v, gammas, alpha):
        tp = TurbineParams(alpha=alpha)
        gammas = gammas[: len(v)]
        out = power_with_misalignment(np.array(v), np.array(gammas), tp)
        expected = np.array([power_reference.power_with_misalignment(x, g, tp) for x, g in zip(v, gammas)])
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes()
        for x, g, y in zip(v, gammas, expected.tolist()):
            scalar = power_with_misalignment(x, g, tp)
            assert type(scalar) is float and scalar.hex() == y.hex()
        ideal = [power_reference.power_ideal(x, tp) for x in v]
        assert power_ideal(np.array(v), tp).tobytes() == np.array(ideal).tobytes()
        assert [power_ideal(x, tp).hex() for x in v] == [y.hex() for y in ideal]

    def test_every_boundary_and_gamma_edge(self):
        v, g = (np.array(a) for a in zip(*[(x, y) for x in self.edge_speeds for y in self.edge_gammas]))
        expected = [power_reference.power_with_misalignment(x, y, self.tp) for x, y in zip(v.tolist(), g.tolist())]
        assert power_with_misalignment(v, g, self.tp).tobytes() == np.array(expected).tobytes()
        scalars = [power_with_misalignment(x, y, self.tp) for x, y in zip(v.tolist(), g.tolist())]
        assert [x.hex() for x in scalars] == [x.hex() for x in expected]

    def test_numpy_cosine_equals_math_cosine(self):
        # The curve relies on np.cos(np.radians(.)) == math.cos(math.radians(.)) bit for bit.
        rng = np.random.default_rng(0)
        g = np.concatenate([np.linspace(-180.0, 180.0, 100_001), rng.uniform(-180.0, 180.0, 100_000),
                            rng.uniform(-1e-6, 1e-6, 1000), np.array(self.edge_gammas)])
        fast = np.cos(np.radians(g))
        slow = np.array([math.cos(math.radians(x)) for x in g.tolist()])
        assert fast.tobytes() == slow.tobytes()

    def test_invalid_input_rejected_like_the_scalar_curve(self):
        for bad_v in ([5.0, -1.0], [math.nan], -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="wind speed"):
                power_with_misalignment(bad_v, 0.0, self.tp)
            with pytest.raises(ValueError, match="wind speed"):
                power_reference.power_with_misalignment(float(np.min(bad_v)), 0.0, self.tp)
        for v, g in (([5.0], [math.inf]), (5.0, math.nan)):
            with pytest.raises(ValueError, match="misalignment"):
                power_with_misalignment(v, g, self.tp)
        # outside the partial-load region the misalignment is never looked at, as in the scalar curve
        for v in (0.0, 20.0, 30.0):
            assert power_with_misalignment(np.array([v]), np.array([math.nan]), self.tp).tolist() == [
                power_reference.power_with_misalignment(v, math.nan, self.tp)
            ]
            assert power_with_misalignment(v, math.inf, self.tp) == power_reference.power_with_misalignment(
                v, math.inf, self.tp
            )


NACELLE_HEADER = ("t", "theta_deg")
TRACE_INT_COLUMNS = ("cycle", "action_issued", "action_applied")
WIND_NONNEG = ("v_ms", "wind speed v")
edge_values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               359.99999999999994, 360.0, _next(360.0, math.inf), _next(0.0, -1.0), 0.1, 1 / 3,
               1.7976931348623157e308, 123456789.12345679]
cell_formats = [repr, "{:.17g}".format, " {!r} ".format, "{:.16e}".format, "\t{!r}".format]


def _outcome(fn, path):
    """The arrays ``fn`` reads, as bytes, or the type and message of what it raises."""
    try:
        t, cols = fn(path)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return t.dtype, t.tobytes(), [(c.dtype, c.tobytes()) for c in cols]


log_values = st.one_of(finite, st.sampled_from(edge_values))


def float_cells(n, values=log_values):
    """``n`` float cells, each written in one of ``cell_formats``."""
    cell = st.tuples(values, st.sampled_from(cell_formats)).map(lambda xf: xf[1](xf[0]))
    return st.lists(cell, min_size=n, max_size=n)


@st.composite
def log_rows(draw, width, nonneg_col=None):
    """Rows of cells of a 1 s log: a timestamp, then ``width`` - 1 values."""
    n = draw(st.integers(1, 25))
    t0 = draw(st.one_of(st.integers(-(10**12), 10**12), st.sampled_from([0, 2**53, -(2**62)])))
    t_fmt = draw(st.sampled_from(["{}", "{}.0", "{}e0", " {} "]))
    nonneg = log_values.map(lambda x: x if x == 0.0 else abs(x))
    cols = [draw(float_cells(n, nonneg if i == nonneg_col else log_values)) for i in range(width - 1)]
    return [[t_fmt.format(t0 + i)] + [c[i] for c in cols] for i in range(n)]


@st.composite
def log_text(draw, rows, header):
    """CSV text with LF or CRLF endings per line, blank lines and an optional final newline."""
    lines = [",".join(header)] + [",".join(r) for r in rows]
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i > 0 and draw(st.integers(0, 9)) == 0:
            out.append("")  # a blank line
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


MUTATIONS = ["cut", "extra", "junk", "empty", "nonfinite", "frac_t", "negative", "quoted", "quoted_comma",
             "ws_line", "underscore", "huge_t"]


def _mutate(rows, kind, k, col):
    """Break row ``k`` (cell ``col`` >= 1) of ``rows`` in the way ``kind`` names."""
    rows = [list(r) for r in rows]
    row = rows[k]
    if kind == "cut":
        row.pop()
    elif kind == "extra":
        row.append("1.0")
    elif kind == "junk":
        row[col] = "1.5x"
    elif kind == "empty":
        row[col] = ""
    elif kind == "nonfinite":
        row[col] = "nan"
    elif kind == "frac_t":
        row[0] = "3.5"
    elif kind == "negative":
        row[col] = "-2.5"
    elif kind == "quoted":
        row[col] = '"7.25"'
    elif kind == "quoted_comma":
        row[col] = '"7,25"'
    elif kind == "ws_line":
        rows.insert(k, ["  "])
    elif kind == "underscore":
        row[col] = "1_0"
    elif kind == "huge_t":
        row[0] = "1e300"
    return rows


class TestReadLogCsv:
    """The bulk reader against the per-row reference: same arrays or the same error."""

    @given(data=st.data(), nacelle=st.booleans())
    def test_well_formed_arrays_equal_byte_for_byte(self, tmp_path_factory, data, nacelle):
        header, nonneg = (NACELLE_HEADER, None) if nacelle else (CSV_HEADER, WIND_NONNEG)
        rows = data.draw(log_rows(len(header), None if nacelle else 1))
        p = tmp_path_factory.mktemp("log") / "log.csv"
        p.write_bytes(data.draw(log_text(rows, header)).encode())
        new = _outcome(lambda q: read_log_csv(q, header, nonneg), p)
        assert new == _outcome(lambda q: csv_reference.read_log_csv(q, header, nonneg), p)
        assert new[0] == np.int64 and len(new[2]) == len(header) - 1

    @pytest.mark.parametrize("kind", MUTATIONS)
    @given(data=st.data(), nacelle=st.booleans())
    def test_malformed_same_exception_and_message(self, tmp_path_factory, data, kind, nacelle):
        header, nonneg = (NACELLE_HEADER, None) if nacelle else (CSV_HEADER, WIND_NONNEG)
        rows = data.draw(log_rows(len(header), None if nacelle else 1))
        k = data.draw(st.integers(0, len(rows) - 1))
        col = len(header) - 1 if kind == "negative" else data.draw(st.integers(1, len(header) - 1))
        p = tmp_path_factory.mktemp("log") / "log.csv"
        p.write_bytes(data.draw(log_text(_mutate(rows, kind, k, col), header)).encode())
        new = _outcome(lambda q: read_log_csv(q, header, nonneg), p)
        assert new == _outcome(lambda q: csv_reference.read_log_csv(q, header, nonneg), p)

    @pytest.mark.parametrize(
        "body, match",
        [
            ("0,1.0,2.0\n1,1.0\n", "line 3: expected 3 fields, got 2"),
            ("0,1.0,2.0\n1,1.0,2.0,3.0\n", "line 3: expected 3 fields, got 4"),
            ("0,1.0,2.0\n1,abc,2.0\n", "line 3: could not parse row: could not convert string to float: 'abc'"),
            ("0,1.0,2.0\n1,,2.0\n", "line 3: could not parse row"),
            ("0,1.0,2.0\n1,inf,2.0\n", "line 3: non-finite value"),
            ("0,1.0,2.0\n1.5,1.0,2.0\n", "line 3: timestamp must be an integer second"),
            ("0,1.0,2.0\n1,1.0,-0.5\n", "line 3: negative wind speed v=-0.5"),
            ("0,1.0,2.0\n   \n1,1.0,2.0\n", "line 3: expected 3 fields, got 1"),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, body, match):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n" + body)
        with pytest.raises(WindDataError, match=match):
            read_log_csv(p, CSV_HEADER, WIND_NONNEG)

    @pytest.mark.parametrize("body", ['0,"1.5",2.0\n1,1_0,2.0\n', "0,1.0,2.0\r1,2.0,3.0\r", ""])
    def test_rows_the_bulk_parse_rejects_read_like_the_reference(self, tmp_path, body):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n" + body, newline="")
        new = _outcome(lambda q: read_log_csv(q, CSV_HEADER, WIND_NONNEG), p)
        assert new == _outcome(lambda q: csv_reference.read_log_csv(q, CSV_HEADER, WIND_NONNEG), p)
        assert new[0] == np.int64

    @pytest.mark.parametrize("cell", ["2.0", "1e0", "0x1", "1.5", ""])
    def test_integer_column_parses_as_int_does(self, tmp_path, cell):
        p = tmp_path / "i.csv"
        p.write_text(f"n,x\n1,0.5\n{cell},0.5\n")
        with pytest.raises(WindDataError, match="line 3: could not parse row: invalid literal for int"):
            read_log_csv(p, ("n", "x"), ints=("n",))

    def test_integer_column_accepts_what_int_accepts(self, tmp_path):
        p = tmp_path / "i.csv"
        p.write_text("n,x\n 7 ,0.5\n+8,0.5\n1_0,0.5\n")  # the last row is read by the row loop
        t, (x,) = read_log_csv(p, ("n", "x"), ints=("n",))
        assert t.dtype == np.int64 and t.tolist() == [7, 8, 10] and x.tolist() == [0.5] * 3


def _trace_rows(draw, n):
    cols = []
    for name in TRACE_COLUMNS:
        if name == "cycle":
            cols.append([str(c) for c in draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))])
        elif name in TRACE_INT_COLUMNS:
            cols.append([str(i % 3) for i in range(n)])
        else:
            cols.append(draw(float_cells(n)))
    return [list(row) for row in zip(*cols)]


def _trace_equal(a, b):
    return all(
        getattr(a, n).dtype == getattr(b, n).dtype and getattr(a, n).tobytes() == getattr(b, n).tobytes()
        for n in TRACE_COLUMNS
    )


class TestTraceFromCsv:
    """``CycleTrace.from_csv`` (now ``read_log_csv``) against the former row reader."""

    @given(data=st.data())
    def test_well_formed_equals_reference(self, tmp_path_factory, data):
        rows = _trace_rows(data.draw, data.draw(st.integers(0, 12)))
        p = tmp_path_factory.mktemp("trace") / "trace.csv"
        p.write_bytes(data.draw(log_text(rows, TRACE_COLUMNS)).encode())
        assert _trace_equal(CycleTrace.from_csv(p), csv_reference.trace_from_csv(p))

    @pytest.mark.parametrize("kind", ["cut", "extra", "junk", "empty", "int_as_float", "int_junk"])
    @given(data=st.data())
    def test_malformed_names_the_same_line_and_cause(self, tmp_path_factory, data, kind):
        rows = _trace_rows(data.draw, data.draw(st.integers(1, 8)))
        k = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 10]))
        if kind == "int_as_float":
            rows[k][data.draw(st.sampled_from([0, 6, 7]))] = "2.0"
        elif kind == "int_junk":
            rows[k][data.draw(st.sampled_from([0, 6, 7]))] = data.draw(st.sampled_from(["1e0", "0x1", "", "x"]))
        else:
            rows = _mutate(rows, kind, k, col)
        p = tmp_path_factory.mktemp("trace") / "trace.csv"
        p.write_text(data.draw(log_text(rows, TRACE_COLUMNS)), newline="")
        with pytest.raises(ValueError) as old:
            csv_reference.trace_from_csv(p)
        with pytest.raises(WindDataError) as new:
            CycleTrace.from_csv(p)
        # Same "<file>: line <n>: " prefix and the same cause; the new reader
        # inserts "could not parse row: " before a parse error.
        where, line, cause = str(old.value).split(": ", 2)
        assert str(new.value).startswith(f"{where}: {line}: ") and str(new.value).endswith(cause)

    def test_non_finite_value_now_rejected(self, tmp_path):
        # A tightening: the former reader accepted nan/inf in the float columns.
        series = WindSeries(np.arange(40), np.full(40, 20.0), np.full(40, 8.0))
        env = YawEnv(series, EnvConfig(Standardizer(8.0), episode_len=2, j=1))
        trace = env_reference.play(env, [1, 1], 0)
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        lines = p.read_text().splitlines()
        fields = lines[2].split(",")
        fields[TRACE_COLUMNS.index("r1")] = "nan"
        lines[2] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        assert math.isnan(csv_reference.trace_from_csv(p).r1[1])
        with pytest.raises(WindDataError, match=rf"{p.name}: line 3: non-finite value"):
            CycleTrace.from_csv(p)


class TestCsvRoundTrips:
    """Write then read gives back the same columns; the writer matches the row-joining reference byte for byte."""

    angles = st.one_of(st.floats(0.0, 360.0, exclude_max=True), st.sampled_from([0.0, 5e-324, 359.99999999999994]))
    speeds = st.one_of(st.floats(0.0, 1e300), st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308]))

    @given(data=st.data(), t0=st.integers(-(10**15), 10**15))
    def test_wind_series(self, tmp_path_factory, data, t0):
        n = data.draw(st.integers(2, 40))
        series = WindSeries(np.arange(t0, t0 + n), data.draw(st.lists(self.angles, min_size=n, max_size=n)),
                            data.draw(st.lists(self.speeds, min_size=n, max_size=n)))
        p = tmp_path_factory.mktemp("rt") / "w.csv"
        save_series(series, p)
        back = load_series(p)
        assert back.equals(series)
        assert back.v.tobytes() == series.v.tobytes()  # -0.0 and subnormals survive

    @given(data=st.data(), t0=st.integers(-(10**15), 10**15))
    def test_nacelle_log(self, tmp_path_factory, data, t0):
        n = data.draw(st.integers(2, 40))
        log = NacelleLog(np.arange(t0, t0 + n), data.draw(st.lists(self.angles, min_size=n, max_size=n)))
        p = tmp_path_factory.mktemp("rt") / "n.csv"
        save_nacelle_log(log, p)
        back = load_nacelle_log(p)
        assert back.t.tobytes() == log.t.tobytes() and back.theta.tobytes() == log.theta.tobytes()

    @given(data=st.data())
    def test_trace(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 30))
        ints = st.integers(-(2**63), 2**63 - 1)
        trace = CycleTrace(**{
            name: np.array(data.draw(st.lists(ints if name in TRACE_INT_COLUMNS else log_values, min_size=n, max_size=n)),
                           dtype=np.int64 if name in TRACE_INT_COLUMNS else np.float64)
            for name in TRACE_COLUMNS
        })
        p = tmp_path_factory.mktemp("rt") / "trace.csv"
        trace.to_csv(p)
        assert _trace_equal(CycleTrace.from_csv(p), trace)

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
    def test_writer_bytes_equal_reference(self, tmp_path, n):
        rng = np.random.default_rng(n)
        ints = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        special = rng.choice(np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]), n)
        header = ("a", "b", "c")
        write_csv_columns(tmp_path / "new.csv", header, ints, floats, special)
        csv_reference.write_csv_columns(tmp_path / "ref.csv", header, ints, floats, special)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_writer_memory_flat_in_column_length(self, tmp_path):
        cols = np.arange(100_000), np.linspace(0.0, math.pi, 100_000)
        tracemalloc.start()
        try:
            write_csv_columns(tmp_path / "big.csv", ("a", "b"), *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * (tmp_path / "big.csv").stat().st_size  # the text is never held whole

    def test_writer_memory_flat_on_a_constant_column(self, tmp_path):
        cols = np.arange(100_000), np.full(100_000, 359.5)  # one run, formatted once per block
        tracemalloc.start()
        try:
            write_csv_columns(tmp_path / "big.csv", ("a", "b"), *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * (tmp_path / "big.csv").stat().st_size

    # Bit patterns whose reprs collide (-0.0 and 0.0 do not; every NaN reads
    # "nan" whatever its sign and payload) or sit at the edges of the format.
    run_bits = st.one_of(
        st.sampled_from([0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x4076780000000000]),
        st.floats().map(lambda x: int(np.float64(x).view(np.uint64))),
    )
    # short runs, and runs about one 1024-row block long, which cross a block boundary
    run_lengths = st.one_of(st.integers(1, 4), st.integers(1000, 1100), st.integers(2040, 2060))

    @given(runs=st.lists(st.tuples(run_bits, run_lengths, st.integers(-2, 2)), max_size=8))
    @example(runs=[])
    @example(runs=[(0x8000000000000000, 1, 0)])
    @example(runs=[(0x0, 1023, 0), (0x8000000000000000, 2, 0), (0x0, 1024, 1), (0x7FF8000000000001, 3, 1)])
    def test_writer_with_runs_bytes_equal_reference(self, tmp_path_factory, runs):
        lengths = [k for _, k, _ in runs]
        n = sum(lengths)
        floats = np.repeat(np.array([b for b, _, _ in runs], dtype=np.uint64), lengths).view(np.float64)
        ints = np.repeat(np.array([i for _, _, i in runs], dtype=np.int64), lengths)
        cols = (np.arange(n), floats, ints, floats[::-1].copy())
        d = tmp_path_factory.mktemp("runs")
        write_csv_columns(d / "new.csv", ("t", "x", "k", "y"), *cols)
        csv_reference.write_csv_columns(d / "ref.csv", ("t", "x", "k", "y"), *cols)
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
