"""Reference implementation of the environment, kept for differential tests.

``YawEnv`` here is the per-step form that ``yawbench.env.YawEnv`` reproduces
with per-cycle features encoded once, observation tables filled backwards
and a trace kept as columns: it shifts its j x 4 observation every step,
works through the ``Action`` enum, returns ``(obs, reward, done, info)``,
and prices each cycle with the scalar ``power_with_misalignment`` of
``power_reference``, whose float forms wrap its angles. ``cycle_wind``
aggregates one cycle at a time, ``trace_from_records`` builds a
``CycleTrace`` from per-cycle dicts, and ``concat_traces`` joins traces that
continue one another. ``play`` runs a fixed action sequence through the
library env, and ``run_constant_action`` one action repeated.
``RawTableYawEnv`` is the library env with the raw table it once kept: it
writes a raw j x 4 row per step beside its float32 encoded table, through
numpy's cast where the library stores through a memoryview, and ``reset``
and ``step`` return a copy of the raw table's newest j rows. The library's
outputs must equal theirs bit for bit, its float32 observation the raw rows
encoded and rounded to float32.
"""

from __future__ import annotations

import operator

import numpy as np

import yawbench.env
from power_reference import power_with_misalignment, wrap_to_360, yaw_error
from yawbench.env import CYCLE_PERIOD_S, OBS_FEATURES_PER_ROW, TRACE_COLUMNS, Action, CycleTrace, n_cycles
from yawbench.power import circular_mean_deg, whole_number


def cycle_wind(series, cycle: int) -> tuple[float, float]:
    """Circular mean direction and arithmetic mean speed of one control cycle."""
    p = CYCLE_PERIOD_S
    if cycle < 0 or (cycle + 1) * p > len(series):
        raise ValueError(f"cycle {cycle} out of range for a series of {len(series)} samples")
    lo, hi = cycle * p, (cycle + 1) * p
    return circular_mean_deg(series.phi[lo:hi]), float(np.mean(series.v[lo:hi]))


def trace_from_records(records: list[dict]) -> CycleTrace:
    if not records:
        raise ValueError("cannot build a trace from zero records")
    return CycleTrace(**{name: np.array([rec[name] for rec in records]) for name in TRACE_COLUMNS})


def play(env, actions, start_cycle, theta=None) -> CycleTrace:
    """Reset the library ``env`` and play ``actions`` until they or the episode end."""
    env.reset(start_cycle, theta)
    for a in actions:
        if env.step(a)[1]:
            break
    return env.trace()


def run_constant_action(env, action, n_steps=None, **reset_kwargs) -> CycleTrace:
    """Reset the library ``env`` and repeat one action until done (or for ``n_steps``)."""
    limit = env.cfg.episode_len if n_steps is None else whole_number("n_steps", n_steps)
    return play(env, [action] * limit, **reset_kwargs)


def concat_traces(traces: list[CycleTrace]) -> CycleTrace:
    """The traces joined end to end. A join whose cycles do not step by 1, or
    whose ``t_s`` does not keep its first step, raises ValueError naming the
    first row that breaks."""
    if not traces:
        raise ValueError("cannot concatenate zero traces")
    joined = CycleTrace(**{name: np.concatenate([getattr(tr, name) for tr in traces]) for name in TRACE_COLUMNS})
    dt = np.diff(joined.t_s)
    breaks = np.flatnonzero((np.diff(joined.cycle) != 1) | (dt != dt[:1]))
    if breaks.size:
        r = int(breaks[0]) + 1
        raise ValueError(
            f"joined traces break at row {r}: cycle {joined.cycle[r - 1]} -> {joined.cycle[r]}, "
            f"t_s {joined.t_s[r - 1]} -> {joined.t_s[r]}"
        )
    return joined


class YawEnv:
    """The environment as one shifted observation and one info dict per step."""

    def __init__(self, series, cfg):
        self.series = series
        self.cfg = cfg
        self._n_cycles = n_cycles(series)
        if self._n_cycles < 2:
            raise ValueError(f"series of {len(series)} samples holds {self._n_cycles} cycles; need at least 2")
        winds = [cycle_wind(series, c) for c in range(self._n_cycles)]
        self._phi_c = np.array([phi for phi, _ in winds])
        self._v_c = np.array([v for _, v in winds])
        self._vt_c = cfg.standardizer.standardize(self._v_c)
        self._obs = np.zeros((cfg.j, 4))
        self._done = True

    @property
    def max_start_cycle(self) -> int:
        return self._n_cycles - self.cfg.episode_len - 1

    def reset(self, start_cycle, theta=None) -> np.ndarray:
        if not (0 <= start_cycle <= self.max_start_cycle):
            raise ValueError(f"start_cycle {start_cycle} out of range 0..{self.max_start_cycle}")
        self._theta = wrap_to_360(float(self._phi_c[start_cycle] if theta is None else theta))
        self._cycle = start_cycle
        self._pending = Action.STAY
        self._stay_streak = self.cfg.j  # warm-up rows count as issued Stays
        self._steps = 0
        self._done = False
        for i in range(self.cfg.j):
            c = max(start_cycle - i, 0)
            self._obs[i, 0] = float(Action.STAY)
            self._obs[i, 1] = yaw_error(self._phi_c[c], self._theta)
            self._obs[i, 2] = self._phi_c[c]
            self._obs[i, 3] = self._vt_c[c]
        return self._obs.copy()

    def step(self, action):
        if self._done:
            raise RuntimeError("episode is done; call reset() before stepping")
        act = Action(int(action))
        cfg = self.cfg
        tp = cfg.turbine

        applied = self._pending  # one cycle of communication delay
        delta_theta = CYCLE_PERIOD_S * (int(applied) - 1) * tp.yaw_rate_deg_s
        if delta_theta != 0.0:
            self._theta = wrap_to_360(self._theta + delta_theta)

        self._cycle += 1
        phi = float(self._phi_c[self._cycle])
        v = float(self._v_c[self._cycle])
        vt = float(self._vt_c[self._cycle])
        gamma = yaw_error(phi, self._theta)

        r1 = -(gamma**2) * vt**3
        self._stay_streak = self._stay_streak + 1 if act is Action.STAY else 0
        r2 = cfg.w if self._stay_streak >= cfg.k else 0.0
        reward = r1 + r2

        self._obs[1:] = self._obs[:-1]
        self._obs[0] = (float(act), gamma, phi, vt)
        self._pending = act
        self._steps += 1
        self._done = self._steps >= cfg.episode_len

        info = {
            "cycle": self._cycle,
            "t_s": float(self.series.t[self._cycle * CYCLE_PERIOD_S]),
            "phi": phi,
            "v": v,
            "v_tilde": vt,
            "theta": self._theta,
            "gamma": gamma,
            "action_issued": int(act),
            "action_applied": int(applied),
            "power_kw": power_with_misalignment(v, gamma, tp),
            "r1": r1,
            "r2": r2,
            "delta_theta": delta_theta,
        }
        return self._obs.copy(), reward, self._done, info


def run_actions(env: YawEnv, actions, **reset_kwargs) -> CycleTrace:
    env.reset(**reset_kwargs)
    records = []
    for a in actions:
        _, _, done, info = env.step(a)
        records.append(info)
        if done:
            break
    return trace_from_records(records)


class RawTableYawEnv(yawbench.env.YawEnv):
    """The column env with a raw observation table beside the float32 encoded one:
    ``step`` returns ``(obs, reward, done)``, ``obs`` a copy of the raw table's newest j rows."""

    def __init__(self, series, cfg):
        super().__init__(series, cfg)
        self._raw = np.zeros((cfg.episode_len + cfg.j, 4))

    def reset(self, start_cycle, theta=None) -> np.ndarray:
        super().reset(start_cycle, theta)  # writes the warm-up rows through _write_row
        return self._raw[self._row :].copy()

    def _write_row(self, row, action, gamma, c) -> None:
        self._raw[row] = (action, gamma, self._phi[c], self._vt[c])
        lo = row * OBS_FEATURES_PER_ROW
        self._enc[lo : lo + OBS_FEATURES_PER_ROW] = (action - 1.0, gamma / 180.0, *self._wind_features[c])

    def step(self, action):
        if self._done:
            raise RuntimeError("episode is done; call reset() before stepping")
        try:
            a = operator.index(action)
        except TypeError:
            a = None
        if a not in (0, 1, 2):
            raise ValueError(f"action must be 0, 1 or 2, got {action!r}")
        cfg = self.cfg
        applied = self._pending
        delta_theta = self._delta[applied]
        if delta_theta != 0.0:
            self._theta = wrap_to_360(self._theta + delta_theta)
        self._cycle = c = self._cycle + 1
        vt = self._vt[c]
        gamma = yaw_error(self._phi[c], self._theta)
        r1 = -(gamma**2) * vt**3
        self._stay_streak = self._stay_streak + 1 if a == 1 else 0
        r2 = cfg.w if self._stay_streak >= cfg.k else 0.0
        t = self._steps
        self._floats[:, t] = self._theta, gamma, r1, r2
        self._actions[:, t] = a, applied
        self._row = row = self._row - 1
        self._write_row(row, a, gamma, c)
        self._pending = a
        self._steps = t + 1
        self._done = self._steps >= cfg.episode_len
        return self._raw[row : row + cfg.j].copy(), r1 + r2, self._done
