import re

import numpy as np
import pytest

from yawbench import (
    Action,
    CycleTrace,
    EnvConfig,
    Standardizer,
    WindSeries,
    YawEnv,
    eval_env_config,
    generate_synthetic,
    indifference_misalignment,
    run_actions,
    run_constant_action,
    steady_preset,
    wrap_to_360,
)
from env_reference import cycle_wind


def flat_series(n_s, phi=34.1, v=8.0):
    return WindSeries(np.arange(n_s), np.full(n_s, phi), np.full(n_s, v))


def cfg_for(episode_len=4, j=2, k=2, w=40.0, comm_delay=10.0, scale=8.0):
    return EnvConfig(
        standardizer=Standardizer(scale),
        cycle_period=10.0,
        comm_delay=comm_delay,
        k=k,
        j=j,
        w=w,
        episode_len=episode_len,
    )


class TestConfig:
    def test_comm_delay_must_be_zero_or_one_cycle(self):
        with pytest.raises(ValueError):
            cfg_for(comm_delay=5.0)
        cfg_for(comm_delay=0.0)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), k=0)
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), j=0)
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), w=-1.0)
        with pytest.raises(ValueError):
            EnvConfig(standardizer=Standardizer(8.0), cycle_period=2.5)

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
    @pytest.mark.parametrize("bad", [2.5, float("inf"), -3.0])
    def test_fractional_count_rejected_by_name(self, field, bad):
        # 2.5 was accepted, and YawEnv then died with a bare TypeError
        with pytest.raises(ValueError, match=rf"^{field} must be a positive whole number, got {bad}"):
            EnvConfig(standardizer=Standardizer(8.0), **{field: bad})

    def test_whole_float_count_stored_as_int(self):
        cfg = EnvConfig(standardizer=Standardizer(8.0), j=3.0, k=2.0, episode_len=8.0)
        assert (cfg.j, cfg.k, cfg.episode_len) == (3, 2, 8) and type(cfg.j) is int
        assert cfg == EnvConfig(standardizer=Standardizer(8.0), j=3, k=2, episode_len=8)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_cycle_period_named(self, bad):
        # inf raised OverflowError, nan a nameless "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="^cycle_period must be a positive whole number of seconds"):
            EnvConfig(standardizer=Standardizer(8.0), cycle_period=bad, comm_delay=0.0)


class TestCycleWind:
    def test_constant_direction(self):
        s = flat_series(30)
        assert cycle_wind(s, 0, cfg_for())[0] == pytest.approx(34.1, abs=1e-12)

    def test_mean_across_seam(self):
        phi = np.array([350.0] * 5 + [10.0] * 5 + [0.0] * 10)
        s = WindSeries(np.arange(20), phi, np.full(20, 8.0))
        mean_dir, _ = cycle_wind(s, 0, cfg_for())
        assert mean_dir == pytest.approx(0.0, abs=1e-9) or mean_dir == pytest.approx(360.0, abs=1e-9)

    def test_speed_arithmetic_mean(self):
        v = np.tile([6.0, 8.0], 10)
        s = WindSeries(np.arange(20), np.full(20, 10.0), v)
        assert cycle_wind(s, 0, cfg_for())[1] == 7.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_wind(flat_series(30), 3, cfg_for())


class TestReset:
    def test_align_gives_zero_gamma(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        obs = env.reset(start_cycle=0, init_theta="align")
        assert obs[0, 1] == 0.0
        assert obs.shape == (2, 4)

    def test_offset_init(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        obs = env.reset(start_cycle=0, init_theta=34.1 + 10.0)
        assert obs[0, 1] == pytest.approx(-10.0, abs=1e-12)

    def test_start_too_near_end(self):
        env = YawEnv(flat_series(100), cfg_for(episode_len=4))
        # 10 cycles total; valid starts are 0..5
        env.reset(start_cycle=5, init_theta="align")
        with pytest.raises(ValueError):
            env.reset(start_cycle=6, init_theta="align")

    def test_reset_requires_rng_or_start(self):
        env = YawEnv(flat_series(100), cfg_for())
        with pytest.raises(ValueError):
            env.reset()

    def test_history_prefilled_from_earlier_wind(self):
        n = 200
        phi = np.full(n, 30.0)
        phi[30:40] = 50.0  # cycle 3
        s = WindSeries(np.arange(n), phi, np.full(n, 8.0))
        env = YawEnv(s, cfg_for(episode_len=4, j=3))
        obs = env.reset(start_cycle=4, init_theta="align")
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
        env.reset(start_cycle=0, init_theta="align")
        _, reward, _ = env.step(Action.STAY)
        trace = env.trace()
        assert trace.gamma[0] == pytest.approx(3.0, abs=1e-9)
        assert trace.r1[0] == pytest.approx(-9.0, abs=1e-6)
        assert trace.r2[0] == 40.0
        assert reward == pytest.approx(31.0, abs=1e-6)
        assert reward == trace.r1[0] + trace.r2[0]

    def test_pending_action_applies_one_cycle_late(self):
        env = YawEnv(flat_series(200, phi=0.0), cfg_for(episode_len=4))
        env.reset(start_cycle=0, init_theta=10.0)
        env.step(Action.COUNTER_CLOCKWISE)
        env.step(Action.STAY)
        trace = env.trace()
        assert trace.theta[0] == 10.0 and trace.action_applied[0] == int(Action.STAY)
        assert trace.theta[1] == 13.0 and trace.action_applied[1] == int(Action.COUNTER_CLOCKWISE)

    def test_stay_leaves_theta_bit_identical(self):
        env = YawEnv(flat_series(200), cfg_for(episode_len=8))
        env.reset(start_cycle=0, init_theta=123.456)
        for _ in range(8):
            env.step(Action.STAY)
        thetas = env.trace().theta
        assert all(th == thetas[0] for th in thetas)

    def test_exact_step_sizes(self):
        env = YawEnv(flat_series(400, phi=0.0), cfg_for(episode_len=30))
        env.reset(start_cycle=0, init_theta=355.0)
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
        env.reset(start_cycle=0, init_theta="align")
        env.step(Action.STAY)
        with pytest.raises(RuntimeError, match="done"):
            env.step(Action.STAY)

    def test_invalid_action_rejected(self):
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(start_cycle=0, init_theta="align")
        with pytest.raises(ValueError):
            env.step(5)

    @pytest.mark.parametrize("bad", [1.5, np.float64(0.7), 2.0, "2", -1, 3, None])
    def test_non_integer_action_rejected_by_value(self, bad):
        # 1.5 used to issue Stay, 0.7 Clockwise, and "2" was accepted: Action(int(action)) truncated
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(start_cycle=0, init_theta="align")
        with pytest.raises(ValueError, match=rf"^action must be 0, 1 or 2, got {re.escape(repr(bad))}$"):
            env.step(bad)

    @pytest.mark.parametrize("good", [0, 1, 2, Action.STAY, np.int64(2), np.uint8(0)])
    def test_integer_actions_accepted(self, good):
        env = YawEnv(flat_series(100), cfg_for())
        env.reset(start_cycle=0, init_theta="align")
        env.step(good)
        assert env.trace().action_issued[0] == int(good)

    def test_streak_rule_counts_issued_actions(self):
        env = YawEnv(flat_series(400), cfg_for(episode_len=6, k=2, w=40.0))
        env.reset(start_cycle=0, init_theta="align")
        for a in [Action.STAY, Action.CLOCKWISE, Action.STAY, Action.STAY, Action.STAY, Action.CLOCKWISE]:
            env.step(a)
        r2 = list(env.trace().r2)
        # warm-up counts as Stays: first Stay completes a streak of 2
        assert r2 == [40.0, 0.0, 0.0, 40.0, 40.0, 0.0]

    def test_observation_shifts_newest_first(self):
        env = YawEnv(flat_series(400), cfg_for(episode_len=4, j=3))
        obs0 = env.reset(start_cycle=0, init_theta="align")
        obs1, _, _ = env.step(Action.CLOCKWISE)
        assert obs1[0, 0] == float(Action.CLOCKWISE)
        assert obs1[0, 1] == env.trace().gamma[0]
        assert np.array_equal(obs1[1], obs0[0])
        assert np.array_equal(obs1[2], obs0[1])


class TestProperties:
    def test_determinism_bitwise(self):
        series = generate_synthetic(steady_preset(length_s=3000), seed=11)
        cfg = cfg_for(episode_len=20, j=4)
        actions = np.random.default_rng(3).integers(0, 3, size=20)
        t1 = run_actions(YawEnv(series, cfg), list(actions), start_cycle=5, init_theta="align")
        t2 = run_actions(YawEnv(series, cfg), list(actions), start_cycle=5, init_theta="align")
        assert t1.equals(t2)

    def test_delay_law_shifts_theta_by_one_cycle(self):
        series = generate_synthetic(steady_preset(length_s=3000), seed=12)
        actions = list(np.random.default_rng(4).integers(0, 3, size=30))
        delayed = run_actions(
            YawEnv(series, cfg_for(episode_len=30, comm_delay=10.0)),
            actions, start_cycle=0, init_theta=100.0,
        )
        immediate = run_actions(
            YawEnv(series, cfg_for(episode_len=30, comm_delay=0.0)),
            actions, start_cycle=0, init_theta=100.0,
        )
        assert np.array_equal(immediate.theta[:-1], delayed.theta[1:])
        # identical wind stream in both runs
        assert np.array_equal(immediate.phi, delayed.phi)
        assert np.array_equal(immediate.v, delayed.v)

    def test_reward_decomposition(self):
        series = generate_synthetic(steady_preset(length_s=4000), seed=13)
        env = YawEnv(series, cfg_for(episode_len=50, j=3))
        env.reset(start_cycle=2, init_theta="align", rng=None)
        rng = np.random.default_rng(5)
        rewards = [env.step(int(rng.integers(0, 3)))[1] for _ in range(50)]
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
        o1 = e1.reset(start_cycle=20, init_theta="align")
        o2 = e2.reset(start_cycle=20, init_theta="align")
        assert np.array_equal(o1, o2)
        steps = [(e1.step(Action.STAY), e2.step(Action.STAY)) for _ in range(10)]
        for ((o1, r1, _), (o2, r2, _)), cycle in zip(steps, e1.trace().cycle):
            if cycle < 50:
                assert np.array_equal(o1, o2) and r1 == r2

    def test_indifference_examples(self):
        cfg = cfg_for(w=40.0)
        assert indifference_misalignment(cfg, 1.0, 3.0) == pytest.approx(49.0 / 6.0, abs=1e-12)
        assert indifference_misalignment(cfg, 2.0, 3.0) == pytest.approx(14.0 / 6.0, abs=1e-12)
        assert indifference_misalignment(cfg_for(w=0.0), 1.0, 3.0) == 1.5

    def test_indifference_strictly_decreasing_in_wind(self):
        cfg = cfg_for(w=40.0)
        vts = np.linspace(0.3, 3.0, 40)
        vals = [indifference_misalignment(cfg, vt, 3.0) for vt in vts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_indifference_errors(self):
        cfg = cfg_for()
        with pytest.raises(ZeroDivisionError):
            indifference_misalignment(cfg, 1.0, 0.0)
        with pytest.raises(ValueError):
            indifference_misalignment(cfg, 0.0, 3.0)
        with pytest.raises(ValueError):
            indifference_misalignment(cfg, 1.0, -2.0)


class TestTrace:
    def test_csv_roundtrip_lossless(self, tmp_path):
        series = generate_synthetic(steady_preset(length_s=2000), seed=15)
        env = YawEnv(series, cfg_for(episode_len=12, j=3))
        trace = run_constant_action(env, Action.STAY, start_cycle=0, init_theta="align")
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        back = CycleTrace.from_csv(p)
        assert back.equals(trace)
        header = p.read_text().splitlines()[0]
        assert header == "cycle,t_s,phi,v,theta,gamma,action_issued,action_applied,power_kw,r1,r2"

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

    def test_concat_and_slice(self):
        series = generate_synthetic(steady_preset(length_s=2000), seed=16)
        env = YawEnv(series, cfg_for(episode_len=10, j=2))
        trace = run_constant_action(env, Action.STAY, start_cycle=0, init_theta="align")
        parts = [trace.slice(0, 4), trace.slice(4, 10)]
        assert CycleTrace.concat(parts).equals(trace)

    def test_eval_env_config_spans_series(self):
        series = generate_synthetic(steady_preset(length_s=2000), seed=17)
        cfg = cfg_for(episode_len=5)
        full = eval_env_config(series, cfg)
        assert full.episode_len == 199
        env = YawEnv(series, full)
        trace = run_constant_action(env, Action.STAY, start_cycle=0, init_theta="align")
        assert len(trace) == 199
        assert trace.cycle[0] == 1 and trace.cycle[-1] == 199
