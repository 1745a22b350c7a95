import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from yawbench import env as env_module
from yawbench import (
    Action,
    CycleTrace,
    EnvConfig,
    Standardizer,
    WindSeries,
    YawEnv,
    eval_env_config,
    generate_synthetic,
    steady_preset,
    wrap_to_360,
)
from env_reference import concat_traces, cycle_wind, play, run_constant_action


def flat_series(n_s, phi=34.1, v=8.0):
    return WindSeries(np.arange(n_s), np.full(n_s, phi), np.full(n_s, v))


def cfg_for(episode_len=4, j=2, k=2, w=40.0, scale=8.0):
    return EnvConfig(
        standardizer=Standardizer(scale),
        k=k,
        j=j,
        w=w,
        episode_len=episode_len,
    )


class TestConfig:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), k=0)
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), j=0)
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), w=-1.0)

    def test_dict_roundtrip(self):
        cfg = cfg_for()
        assert EnvConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "field, bad",
        [("w", float("nan")), ("w", float("inf")), ("k", float("nan")), ("j", float("nan")), ("episode_len", float("nan"))],
    )
    def test_non_finite_rejected_by_name(self, field, bad):
        # each was accepted: every check was a comparison, and nan < 1 is false
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            EnvConfig(standardizer=Standardizer(8.0), **{field: bad})

    @pytest.mark.parametrize("field", ["j", "k", "episode_len"])
    @pytest.mark.parametrize("bad", [2.5, float("inf"), np.float64("inf"), -3.0, True, np.True_, 2**63, 10**400])
    def test_fractional_count_rejected_by_name(self, field, bad):
        # 2.5 was accepted, and YawEnv then died with a bare TypeError; True was stored
        # as 1, and 10**400 raised a bare OverflowError
        with pytest.raises(ValueError, match=rf"^{field} must be a positive whole number, got {bad}"):
            EnvConfig(standardizer=Standardizer(8.0), **{field: bad})

    def test_whole_float_count_stored_as_int(self):
        cfg = EnvConfig(standardizer=Standardizer(8.0), j=3.0, k=2.0, episode_len=8.0)
        assert (cfg.j, cfg.k, cfg.episode_len) == (3, 2, 8) and type(cfg.j) is int
        assert cfg == EnvConfig(standardizer=Standardizer(8.0), j=3, k=2, episode_len=8)

    @pytest.mark.parametrize("samples, episode_len", [(30, 256), (40, 4), (19, 1)])
    def test_series_too_short_for_an_episode_rejected_at_construction(self, samples, episode_len):
        # 3 cycles under episode_len=256 built an env with max_start_cycle -254; reset failed later
        cycles = samples // 10
        match = rf"^series holds {cycles} cycles: too short for an episode of {episode_len} cycles plus"
        with pytest.raises(ValueError, match=match):
            YawEnv(flat_series(samples), cfg_for(episode_len=episode_len))


class TestCycleWind:
    def test_constant_direction(self):
        s = flat_series(30)
        assert cycle_wind(s, 0)[0] == pytest.approx(34.1, abs=1e-12)

    def test_mean_across_seam(self):
        phi = np.array([350.0] * 5 + [10.0] * 5 + [0.0] * 10)
        s = WindSeries(np.arange(20), phi, np.full(20, 8.0))
        mean_dir, _ = cycle_wind(s, 0)
        assert mean_dir == pytest.approx(0.0, abs=1e-9) or mean_dir == pytest.approx(360.0, abs=1e-9)

    def test_speed_arithmetic_mean(self):
        v = np.tile([6.0, 8.0], 10)
        s = WindSeries(np.arange(20), np.full(20, 10.0), v)
        assert cycle_wind(s, 0)[1] == 7.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_wind(flat_series(30), 3)


class TestReset:
    def test_align_gives_zero_gamma(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        obs = env.reset(0)
        assert obs[0, 1] == 0.0
        assert obs.shape == (2, 4)

    def test_offset_init(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        obs = env.reset(0, 34.1 + 10.0)
        assert obs[0, 1] == pytest.approx(-10.0, abs=1e-12)

    def test_start_too_near_end(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        # 10 cycles total; valid starts are 0..5
        env.reset(5)
        with pytest.raises(ValueError):
            env.reset(6)

    @pytest.mark.parametrize("bad", [1.5, 2.0, -1, 6, "1", True, False, np.True_])
    def test_start_cycle_not_a_whole_number_in_range_named(self, bad):
        # 1.5 was a bare TypeError; True and False were stored as the episode start
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        match = rf"^start_cycle must be a whole number in 0\.\.5, leaving episode_len=4 cycles, got {bad}$"
        with pytest.raises(ValueError, match=match):
            env.reset(bad)

    @pytest.mark.parametrize("good", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_start_cycle_accepted(self, good):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        assert play(env, [2], good).equals(play(env, [2], 3))

    def test_reset_takes_a_start_cycle_and_a_heading(self):
        params = inspect.signature(YawEnv.reset).parameters
        assert list(params) == ["self", "start_cycle", "theta"] and params["theta"].default is None
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        with pytest.raises(TypeError):
            env.reset()

    def test_env_module_draws_no_random_numbers(self):
        tree = ast.parse(Path(env_module.__file__).read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        assert names.isdisjoint({"rng", "random", "Generator", "default_rng"})

    @pytest.mark.parametrize(
        "theta, wrapped",
        [(-720.0, 0.0), (-30.0, 330.0), (-1e-14, 0.0), (0.0, 0.0), (359.9, 359.9), (360.0, 0.0), (750.0, 30.0)],
    )
    def test_numeric_theta_is_an_absolute_heading_wrapped(self, theta, wrapped):
        # -1e-14 % 360 rounds up to 360.0, which must wrap to 0.0
        phi = np.concatenate([np.full(40, 30.0), np.full(160, 70.0)])
        env = YawEnv(WindSeries(np.arange(200), phi, np.full(200, 8.0)), cfg_for(episode_len=4))
        for start in (2, 6):  # wind at 30 and at 70 degrees: the heading ignores it
            env.reset(start, theta)
            env.step(Action.STAY)
            assert env.trace().theta[0] == wrapped

    @pytest.mark.parametrize(
        "bad", [True, False, np.True_, "10", b"10"], ids=["True", "False", "np.True_", "str", "bytes"]
    )
    def test_theta_not_a_real_number_rejected(self, bad):
        # float() took each of these: "10" started at 10 degrees and True at 1
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        match = rf"^theta must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            env.reset(0, bad)

    @pytest.mark.parametrize("good", [10, np.int64(10), np.float32(10.0), np.float64(10.0)])
    def test_numpy_and_integer_theta_accepted(self, good):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        assert play(env, [2], 0, good).equals(play(env, [2], 0, 10.0))

    def test_theta_none_aligns_with_the_start_cycle(self):
        phi = np.concatenate([np.full(40, 30.0), np.full(160, 70.0)])
        env = YawEnv(WindSeries(np.arange(200), phi, np.full(200, 8.0)), cfg_for(episode_len=4))
        assert np.array_equal(env.reset(6), env.reset(6, env.cycle_direction(6)))
        assert env.observation[0, 1] == 0.0 and env.observation[-1, 1] == 0.0  # cycles 6 and 5: 70 deg
        assert env.reset(2)[0, 1] == 0.0 and env.reset(6, 30.0)[0, 1] == 40.0
        assert env.reset(6, 30.0 - 720.0)[0, 1] == 40.0  # an absolute heading, wrapped

    def test_history_prefilled_from_earlier_wind(self):
        n = 200
        phi = np.full(n, 30.0)
        phi[30:40] = 50.0  # cycle 3
        s = WindSeries(np.arange(n), phi, np.full(n, 8.0))
        env = YawEnv(s, cfg_for(episode_len=4, j=3))
        obs = env.reset(4)
        # rows newest first: cycles 4, 3, 2
        assert obs[0, 2] == pytest.approx(30.0, abs=1e-9)
        assert obs[1, 2] == pytest.approx(50.0, abs=1e-9)
        assert obs[2, 2] == pytest.approx(30.0, abs=1e-9)
        assert np.all(obs[:, 0] == float(Action.STAY))


class TestStep:
    def test_reward_example_streak_bonus(self):
        phi = np.array([34.1] * 10 + [37.1] * 30)
        s = WindSeries(np.arange(40), phi, np.full(40, 8.0))
        env = YawEnv(s, cfg_for(episode_len=2, j=2, k=2, w=40.0))
        env.reset(0)
        reward, _ = env.step(Action.STAY)
        trace = env.trace()
        assert trace.gamma[0] == pytest.approx(3.0, abs=1e-9)
        assert trace.r1[0] == pytest.approx(-9.0, abs=1e-6)
        assert trace.r2[0] == 40.0
        assert reward == pytest.approx(31.0, abs=1e-6)
        assert reward == trace.r1[0] + trace.r2[0]

    def test_pending_action_applies_one_cycle_late(self):
        env = YawEnv(flat_series(200, phi=0.0), cfg_for(episode_len=4))
        env.reset(0, 10.0)
        env.step(Action.COUNTER_CLOCKWISE)
        env.step(Action.STAY)
        trace = env.trace()
        assert trace.theta[0] == 10.0 and trace.action_applied[0] == int(Action.STAY)
        assert trace.theta[1] == 13.0 and trace.action_applied[1] == int(Action.COUNTER_CLOCKWISE)

    def test_stay_leaves_theta_bit_identical(self):
        env = YawEnv(flat_series(200), cfg_for(episode_len=8))
        env.reset(0, 123.456)
        for _ in range(8):
            env.step(Action.STAY)
        thetas = env.trace().theta
        assert all(th == thetas[0] for th in thetas)

    def test_exact_step_sizes(self):
        env = YawEnv(flat_series(400, phi=0.0), cfg_for(episode_len=30))
        env.reset(0, 355.0)
        rng = np.random.default_rng(0)
        for _ in range(30):
            env.step(int(rng.integers(0, 3)))
        # the trace has no delta_theta: each heading is the last one moved by exactly -3, 0 or 3 deg
        before = [355.0, *env.trace().theta[:-1]]
        for prev, theta in zip(before, env.trace().theta):
            assert theta in [wrap_to_360(prev + d) for d in (-3.0, 0.0, 3.0)]
            assert 0.0 <= theta < 360.0

    def test_step_after_done_raises(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=1))
        env.reset(0)
        env.step(Action.STAY)
        with pytest.raises(RuntimeError, match="done"):
            env.step(Action.STAY)

    def test_invalid_action_rejected(self):
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(0)
        with pytest.raises(ValueError):
            env.step(5)

    @pytest.mark.parametrize("bad", [1.5, np.float64(0.7), 2.0, "2", -1, 3, None])
    def test_non_integer_action_rejected_by_value(self, bad):
        # 1.5 used to issue Stay, 0.7 Clockwise, and "2" was accepted: Action(int(action)) truncated
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(0)
        with pytest.raises(ValueError, match=rf"^action must be 0, 1 or 2, got {re.escape(repr(bad))}$"):
            env.step(bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_])
    def test_bool_action_rejected(self, bad):
        # bool is an int subclass: True was taken as Stay and False as Clockwise
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(0)
        with pytest.raises(ValueError, match=rf"^action must be 0, 1 or 2, got {re.escape(repr(bad))}$"):
            env.step(bad)
        env.step(Action.STAY)  # the rejected call recorded no step
        assert len(env.trace()) == 1

    @pytest.mark.parametrize(
        "init_theta, offset", [(math.inf, 0.0), (math.nan, 0.0), (10.0, -math.inf), ("align", math.nan)]
    )
    def test_non_finite_initial_heading_rejected(self, init_theta, offset):
        # the heading train passes: a start cycle's direction plus an offset
        env = YawEnv(flat_series(100), cfg_for())
        theta = (env.cycle_direction(0) if init_theta == "align" else init_theta) + offset
        with pytest.raises(ValueError, match="^theta must be finite, got "):
            env.reset(0, theta)

    @pytest.mark.parametrize("good", [0, 1, 2, Action.STAY, np.int64(2), np.uint8(0)])
    def test_integer_actions_accepted(self, good):
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(0)
        env.step(good)
        assert env.trace().action_issued[0] == int(good)

    def test_streak_rule_counts_issued_actions(self):
        env = YawEnv(flat_series(400), cfg_for(episode_len=6, k=2, w=40.0))
        env.reset(0)
        for a in [Action.STAY, Action.CLOCKWISE, Action.STAY, Action.STAY, Action.STAY, Action.CLOCKWISE]:
            env.step(a)
        r2 = list(env.trace().r2)
        # warm-up counts as Stays: first Stay completes a streak of 2
        assert r2 == [40.0, 0.0, 0.0, 40.0, 40.0, 0.0]

    def test_observation_shifts_newest_first(self):
        env = YawEnv(flat_series(400), cfg_for(episode_len=4, j=3))
        obs0 = env.reset(0)
        env.step(Action.CLOCKWISE)
        obs1 = env.observation
        assert obs1[0, 0] == float(Action.CLOCKWISE)
        assert obs1[0, 1] == env.trace().gamma[0]
        assert np.array_equal(obs1[1], obs0[0])
        assert np.array_equal(obs1[2], obs0[1])


class TestProperties:
    def test_determinism_bitwise(self):
        series = generate_synthetic(steady_preset(length_s=3000), seed=11)
        cfg = cfg_for(episode_len=20, j=4)
        actions = np.random.default_rng(3).integers(0, 3, size=20)
        t1 = play(YawEnv(series, cfg), list(actions), 5)
        t2 = play(YawEnv(series, cfg), list(actions), 5)
        assert t1.equals(t2)

    def test_delay_law_moves_theta_by_the_action_of_the_cycle_before(self):
        # each action lands one cycle late: 3 deg (10 s at 0.3 deg/s) per move
        series = generate_synthetic(steady_preset(length_s=3000), seed=12)
        actions = list(np.random.default_rng(4).integers(0, 3, size=30))
        trace = play(YawEnv(series, cfg_for(episode_len=30)), actions, 0, 100.0)
        applied = [int(Action.STAY)] + actions[:-1]
        assert list(trace.action_applied) == applied
        heading = wrap_to_360(100.0 + np.cumsum([3.0 * (a - 1) for a in applied]))
        assert np.array_equal(trace.theta, heading)  # whole degrees: every sum is exact

    def test_reward_decomposition(self):
        series = generate_synthetic(steady_preset(length_s=4000), seed=13)
        env = YawEnv(series, cfg_for(episode_len=50, j=3))
        env.reset(2)
        rng = np.random.default_rng(5)
        rewards = [env.step(int(rng.integers(0, 3)))[0] for _ in range(50)]
        trace = env.trace()
        for reward, r1, r2 in zip(rewards, trace.r1, trace.r2):
            assert reward == r1 + r2
            assert r1 <= 0.0
            assert r2 in (0.0, 40.0)

    def test_causality_future_wind_cannot_leak(self):
        n = 1000
        base = generate_synthetic(steady_preset(length_s=n), seed=14)
        phi2 = base.phi.copy()
        v2 = base.v.copy()
        phi2[500:] = 200.0  # diverge from cycle 50 on
        v2[500:] = 3.0
        other = WindSeries(base.t.copy(), phi2, v2)
        cfg = cfg_for(episode_len=10, j=4)
        e1, e2 = YawEnv(base, cfg), YawEnv(other, cfg)
        o1 = e1.reset(20)
        o2 = e2.reset(20)
        assert np.array_equal(o1, o2)
        steps = [(e1.step(Action.STAY), e1.observation, e2.step(Action.STAY), e2.observation) for _ in range(10)]
        for ((r1, _), o1, (r2, _), o2), cycle in zip(steps, e1.trace().cycle):
            if cycle < 50:
                assert np.array_equal(o1, o2) and r1 == r2


class TestTrace:
    def test_csv_roundtrip_lossless(self, tmp_path):
        series = generate_synthetic(steady_preset(length_s=2000), seed=15)
        env = YawEnv(series, cfg_for(episode_len=12, j=3))
        trace = run_constant_action(env, Action.STAY, start_cycle=0)
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        back = CycleTrace.from_csv(p)
        assert back.equals(trace)
        header = p.read_text().splitlines()[0]
        assert header == "cycle,t_s,phi,v,theta,gamma,action_issued,action_applied,power_kw,r1,r2"

    @pytest.mark.parametrize("n_steps", [1.5, math.inf, math.nan, -3, 0])
    def test_constant_action_n_steps_must_be_a_positive_whole_number(self, n_steps):
        env = YawEnv(flat_series(2000), cfg_for(episode_len=12))
        with pytest.raises(ValueError, match="n_steps must be a positive whole number"):
            run_constant_action(env, Action.STAY, n_steps=n_steps, start_cycle=0)

    def test_constant_action_whole_float_n_steps_accepted(self):
        env = YawEnv(flat_series(2000), cfg_for(episode_len=12))
        trace = run_constant_action(env, Action.STAY, n_steps=3.0, start_cycle=0)
        assert trace.equals(run_constant_action(env, Action.STAY, n_steps=3, start_cycle=0))
        assert len(trace.cycle) == 3

    def _written_lines(self, tmp_path):
        series = generate_synthetic(steady_preset(length_s=2000), seed=15)
        trace = run_constant_action(YawEnv(series, cfg_for(episode_len=6, j=2)), Action.STAY, start_cycle=0)
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        return p, p.read_text().splitlines()

    def test_short_row_reports_file_and_line(self, tmp_path):
        p, lines = self._written_lines(tmp_path)
        lines[3] = lines[3].rsplit(",", 1)[0]  # cut the r2 field from the third data row
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{p.name}: line 4: expected 11 fields, got 10"):
            CycleTrace.from_csv(p)

    @pytest.mark.parametrize("column, cell", [(0, "2.0"), (3, "1.5x"), (6, "")])
    def test_bad_cell_reports_file_and_line(self, tmp_path, column, cell):
        p, lines = self._written_lines(tmp_path)
        fields = lines[2].split(",")
        fields[column] = cell  # an integer column holding a float, a float column holding junk, an empty cell
        lines[2] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{p.name}: line 3: "):
            CycleTrace.from_csv(p)

    @staticmethod
    def _ten_cycles():
        series = generate_synthetic(steady_preset(length_s=2000), seed=16)
        env = YawEnv(series, cfg_for(episode_len=10, j=2))
        return run_constant_action(env, Action.STAY, start_cycle=0)

    def test_concat_and_slice(self):
        trace = self._ten_cycles()
        parts = [trace.slice(0, 4), trace.slice(4, 10)]
        assert concat_traces(parts).equals(trace)

    @pytest.mark.parametrize("order, row", [((0, 2, 1), 4), ((1, 0, 2), 2), ((0, 0, 1), 4)])
    def test_concat_names_the_first_break(self, order, row):
        trace = self._ten_cycles()
        parts = [trace.slice(0, 4), trace.slice(4, 6), trace.slice(6, 10)]
        with pytest.raises(ValueError, match=rf"^joined traces break at row {row}: cycle "):
            concat_traces([parts[i] for i in order])

    def test_concat_t_s_must_keep_its_step(self):
        trace = self._ten_cycles()
        late = trace.slice(4, 10)
        late = CycleTrace(**{**vars(late), "t_s": late.t_s + 1.0})  # cycles continue, the clock jumps
        with pytest.raises(ValueError, match=r"^joined traces break at row 4: cycle 4 -> 5, t_s "):
            concat_traces([trace.slice(0, 4), late])
        with pytest.raises(ValueError, match="zero traces"):
            concat_traces([])

    def test_eval_env_config_spans_series(self):
        series = generate_synthetic(steady_preset(length_s=2000), seed=17)
        cfg = cfg_for(episode_len=5)
        full = eval_env_config(series, cfg)
        assert full.episode_len == 199
        env = YawEnv(series, full)
        trace = run_constant_action(env, Action.STAY, start_cycle=0)
        assert len(trace) == 199
        assert trace.cycle[0] == 1 and trace.cycle[-1] == 199
