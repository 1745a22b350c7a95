import math
import re

import numpy as np
import pytest

from yawbench import (
    CycaConfig,
    EnvConfig,
    NacelleLog,
    Standardizer,
    TurbineParams,
    WindDataError,
    WindSeries,
    calibrate_threshold,
    compute_metrics,
    generate_synthetic,
    load_nacelle_log,
    replay_cyca_l,
    run_cyca_s,
    save_nacelle_log,
    steady_preset,
    wrap_angle,
)


@pytest.fixture
def tp():
    return TurbineParams()


def flat_series(n, phi=50.0, v=8.0):
    return WindSeries(np.arange(n), np.full(n, phi), np.full(n, v))


def env_cfg():
    return EnvConfig(standardizer=Standardizer(8.0))


class TestCycaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CycaConfig(threshold=0.0)
        with pytest.raises(ValueError):
            CycaConfig(target_window=0.5)
        with pytest.raises(ValueError):
            CycaConfig(stop_deadband=-1.0)

    def test_fractional_target_window_rejected(self):
        # would otherwise be truncated to 1 s by int(target_window)
        with pytest.raises(ValueError, match="target_window"):
            CycaConfig(target_window=1.5)

    @pytest.mark.parametrize("field", ["threshold", "stop_deadband"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("inf"), 10**400])
    def test_non_finite_rejected_by_name(self, field, bad):
        # a nan threshold never triggers and a nan deadband never ends a turn; 10**400 was kept as given
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CycaConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["target_window"])
    @pytest.mark.parametrize("bad", [0.5, 0.0, -2.0, True, np.True_, 2**63, 10**400, math.nan, math.inf])
    def test_whole_seconds_named(self, field, bad):
        # True was kept as given, and 10**400 raised a bare OverflowError
        with pytest.raises(ValueError, match=f"^{field} must be a positive whole number of seconds"):
            CycaConfig(**{field: bad})

    def test_whole_float_target_window_stored_as_int(self):
        cfg = CycaConfig(target_window=30.0)
        assert cfg.target_window == 30 and type(cfg.target_window) is int
        assert cfg == CycaConfig(target_window=30)


class TestRunCycaS:
    @pytest.mark.parametrize("at, bad", [(0, math.nan), (57, math.nan), (99, math.inf)])
    def test_non_finite_direction_written_after_construction(self, tp, at, bad):
        # the series holds a read-only view of the caller's array, which stays writable
        phi = np.full(100, 80.0)
        series = WindSeries(np.arange(100), phi, np.full(100, 8.0))
        phi[at] = bad
        with pytest.raises(ValueError, match="^wind direction must be finite$"):
            run_cyca_s(series, CycaConfig(threshold=50.0), tp, 40.0)
        with pytest.raises(ValueError, match="^wind direction must be finite$"):
            calibrate_threshold(series, CycaConfig(), tp, 40.0, [50.0, 900.0])

    def test_zero_error_never_moves(self, tp):
        series = flat_series(300, phi=40.0)
        trace = run_cyca_s(series, CycaConfig(), tp, init_theta=40.0)
        assert np.all(trace.theta == 40.0)
        assert np.all(trace.action_applied == 1)

    def test_first_actuation_at_sixty_seconds(self, tp):
        # constant 10 deg error against a 600 deg*s threshold: 10*60 = 600
        series = flat_series(300, phi=50.0)
        _, inner = run_cyca_s(
            series, CycaConfig(threshold=600.0), tp, init_theta=40.0, return_inner=True
        )
        moves = np.nonzero(np.abs(np.diff(inner["theta"])) > 0)[0] + 1
        assert moves[0] == 60

    def test_accumulator_resets_after_actuation(self, tp):
        series = flat_series(600, phi=50.0)
        _, inner = run_cyca_s(
            series, CycaConfig(threshold=600.0), tp, init_theta=40.0, return_inner=True
        )
        end_of_yaw = np.nonzero(inner["yawing"])[0][-1]
        assert inner["acc"][end_of_yaw + 1] == 0.0
        # once aligned, the error is within the deadband and barely accrues again
        assert inner["acc"][-1] < 600.0

    def test_single_actuation_while_in_progress(self, tp):
        # a long turn: the controller must not re-arm mid-motion
        series = flat_series(1200, phi=120.0)
        trace, inner = run_cyca_s(
            series, CycaConfig(threshold=300.0), tp, init_theta=40.0, return_inner=True
        )
        moving = (np.abs(np.diff(inner["theta"])) > 0).astype(int)
        starts = np.sum(np.diff(np.concatenate([[0], moving])) == 1)
        assert starts == 1

    def test_stops_within_deadband(self, tp):
        series = flat_series(1200, phi=60.0)
        cfg = CycaConfig(threshold=300.0, stop_deadband=1.0)
        trace, inner = run_cyca_s(series, cfg, tp, init_theta=40.0, return_inner=True)
        final = inner["theta"][-1]
        assert abs(60.0 - final) <= 1.0 + 1e-9
        assert not inner["yawing"][-1]

    def test_threshold_monotonicity_on_usage(self, tp):
        series = generate_synthetic(steady_preset(length_s=6000), seed=20)
        cfg = EnvConfig(standardizer=Standardizer(8.0))
        usages = []
        for thr in (300.0, 900.0, 2700.0, 8100.0):
            trace = run_cyca_s(series, CycaConfig(threshold=thr), tp, init_theta=34.1)
            m = compute_metrics(trace, tp, cfg)
            usages.append(m.time_yawing_pct)
        assert all(a >= b for a, b in zip(usages, usages[1:]))

    def test_deterministic(self, tp):
        series = generate_synthetic(steady_preset(length_s=3000), seed=21)
        a = run_cyca_s(series, CycaConfig(), tp, init_theta=34.1)
        b = run_cyca_s(series, CycaConfig(), tp, init_theta=34.1)
        assert a.equals(b)


class TestNacelleLog:
    def test_roundtrip(self, tmp_path):
        log = NacelleLog(np.arange(50), np.linspace(10, 30, 50) % 360.0)
        p = tmp_path / "log.csv"
        save_nacelle_log(log, p)
        back = load_nacelle_log(p)
        assert np.array_equal(back.t, log.t)
        assert np.array_equal(back.theta, log.theta)

    def test_non_uniform_rejected(self):
        with pytest.raises(WindDataError, match="non-uniform"):
            NacelleLog(np.array([0, 1, 3]), np.array([1.0, 2.0, 3.0]))

    def test_positions_wrapped_into_range(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("t,theta_deg\n0,-10.0\n1,360.0\n2,725.5\n3,-1e-300\n")
        assert load_nacelle_log(p).theta.tolist() == [350.0, 0.0, 5.5, 0.0]

    def test_non_finite_position_reports_line(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("t,theta_deg\n0,1.0\n1,nan\n")
        with pytest.raises(WindDataError, match="line 3: non-finite"):
            load_nacelle_log(p)


class TestReplay:
    def test_constant_log_no_motion(self, tp):
        series = flat_series(100, phi=50.0)
        log = NacelleLog(np.arange(100), np.full(100, 50.0))
        trace = replay_cyca_l(series, log, tp)
        assert np.all(trace.action_applied == 1)
        assert np.all(trace.gamma == 0.0)

    def test_three_degree_ramp_is_one_moving_cycle(self, tp):
        n = 100
        theta = np.full(n, 40.0)
        theta[20:30] = 40.0 + 0.3 * np.arange(1, 11)  # ramps 3 deg across cycle 2
        theta[30:] = 43.0
        series = flat_series(n, phi=43.0)
        log = NacelleLog(np.arange(n), theta)
        trace = replay_cyca_l(series, log, tp)
        cfg = env_cfg()
        m = compute_metrics(trace, tp, cfg)
        assert m.angle_covered_deg == pytest.approx(3.0, abs=1e-9)
        assert m.yaw_count == 1
        assert trace.action_applied[2] != 1

    def test_time_range_mismatch(self, tp):
        series = flat_series(100)
        log = NacelleLog(np.arange(90), np.full(90, 50.0))
        with pytest.raises(ValueError, match="time-range mismatch"):
            replay_cyca_l(series, log, tp)
        shifted = NacelleLog(np.arange(1, 101), np.full(100, 50.0))
        with pytest.raises(ValueError, match="time-range mismatch"):
            replay_cyca_l(series, shifted, tp)

    def test_series_shorter_than_one_cycle_rejected(self, tp):
        series = flat_series(5)
        with pytest.raises(ValueError, match="^series of 5 samples holds no full 10 s cycle$"):  # was an empty trace
            replay_cyca_l(series, NacelleLog(np.arange(5), np.full(5, 50.0)), tp)
        with pytest.raises(ValueError, match="^series of 5 samples holds no full 10 s cycle$"):
            run_cyca_s(series, CycaConfig(), tp, init_theta=50.0)

    def test_replay_pure(self, tp):
        series = generate_synthetic(steady_preset(length_s=2000), seed=22)
        rng = np.random.default_rng(0)
        theta = (34.0 + np.cumsum(rng.uniform(-0.2, 0.2, 2000))) % 360.0
        log = NacelleLog(np.arange(2000), theta)
        assert replay_cyca_l(series, log, tp).equals(replay_cyca_l(series, log, tp))


class TestCalibration:
    def test_grid_search_finds_target_band(self, tp):
        series = generate_synthetic(steady_preset(length_s=8000), seed=23)
        grid = (150.0, 300.0, 600.0, 1200.0, 2400.0, 4800.0, 9600.0)
        best, usages = calibrate_threshold(
            series, CycaConfig(), tp, init_theta=34.1, thresholds=grid, target_pct=2.0
        )
        assert best in grid
        assert any(0.5 <= u <= 5.0 for u in usages)

    def test_usage_is_the_moving_cycle_share(self, tp):
        # the former inline "moving cycle" rule, bit for bit
        series = generate_synthetic(steady_preset(length_s=3000), seed=24)
        grid = (100.0, 300.0, 900.0)
        _, usages = calibrate_threshold(series, CycaConfig(), tp, 34.1, grid)
        for thr, usage in zip(grid, usages):
            trace = run_cyca_s(series, CycaConfig(threshold=thr), tp, 34.1)
            moving = np.concatenate([[False], np.abs(wrap_angle(np.diff(trace.theta))) > 0])
            assert usage == float(100.0 * np.mean(moving))

    @pytest.mark.parametrize("target_pct", [math.nan, -5.0, 250.0, math.inf, -math.inf])
    def test_target_pct_outside_0_to_100_rejected(self, tp, target_pct):
        # with the grid below these returned 300.0, 20000.0 and 300.0 without a word
        series = generate_synthetic(steady_preset(length_s=3000), seed=24)
        with pytest.raises(ValueError, match="target_pct must be a finite percentage in"):
            calibrate_threshold(series, CycaConfig(), tp, 34.1, [300.0, 20000.0], target_pct=target_pct)

    @pytest.mark.parametrize("target_pct", [0.0, 100.0])
    def test_target_pct_bounds_accepted(self, tp, target_pct):
        series = generate_synthetic(steady_preset(length_s=3000), seed=24)
        best, _ = calibrate_threshold(series, CycaConfig(), tp, 34.1, [300.0, 20000.0], target_pct=target_pct)
        assert best in (300.0, 20000.0)

    @pytest.mark.parametrize(
        "name, init_theta, grid",
        [
            ("init_theta", "10", [300.0]),  # started at 10 deg
            ("init_theta", True, [300.0]),  # started at 1 deg
            ("init_theta", np.True_, [300.0]),
            ("init_theta", None, [300.0]),
            ("init_theta", math.nan, [300.0]),
            ("thresholds[0]", 50.0, ["50", True]),  # calibrated to 1.0
            ("thresholds[1]", 50.0, [300.0, True]),
            ("thresholds[1]", 50.0, [300.0, b"1"]),
            ("thresholds[0]", 50.0, [math.inf]),
        ],
    )
    def test_heading_and_grid_not_real_numbers_named(self, tp, name, init_theta, grid):
        series = flat_series(300)
        match = rf"^{re.escape(name)} must be (a real number|finite), got "
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(series, CycaConfig(), tp, init_theta, grid)
        if name == "init_theta":
            with pytest.raises(ValueError, match=match):
                run_cyca_s(series, CycaConfig(), tp, init_theta)

    def test_empty_grid_rejected(self, tp):
        series = flat_series(100)
        with pytest.raises(ValueError, match="empty"):
            calibrate_threshold(series, CycaConfig(), tp, 50.0, thresholds=())
