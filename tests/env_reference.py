"""Reference implementation of the environment, kept for differential tests.

``YawEnv`` here is the per-step form that ``yawbench.env.YawEnv`` reproduces
with per-cycle features encoded once, observation tables filled backwards
and a trace kept as columns: it shifts its j x 4 observation every step,
works through the ``Action`` enum, returns ``(obs, reward, done, info)``,
and prices each cycle with the scalar ``power_with_misalignment`` of
``power_reference``. ``cycle_wind`` aggregates one cycle at a time, and
``trace_from_records`` builds a ``CycleTrace`` from per-cycle dicts. The
library's outputs must equal theirs bit for bit.
"""

from __future__ import annotations

import numpy as np

from power_reference import power_with_misalignment
from yawbench import Action, CycleTrace, circular_mean_deg, wrap_to_360, yaw_error
from yawbench.env import TRACE_COLUMNS, n_cycles


def cycle_wind(series, cycle: int, cfg) -> tuple[float, float]:
    """Circular mean direction and arithmetic mean speed of one control cycle."""
    p = cfg.p_samples
    if cycle < 0 or (cycle + 1) * p > len(series):
        raise ValueError(f"cycle {cycle} out of range for a series of {len(series)} samples")
    lo, hi = cycle * p, (cycle + 1) * p
    return circular_mean_deg(series.phi[lo:hi]), float(np.mean(series.v[lo:hi]))


def trace_from_records(records: list[dict]) -> CycleTrace:
    if not records:
        raise ValueError("cannot build a trace from zero records")
    return CycleTrace(**{name: np.array([rec[name] for rec in records]) for name in TRACE_COLUMNS})


class YawEnv:
    """The environment as one shifted observation and one info dict per step."""

    def __init__(self, series, cfg):
        self.series = series
        self.cfg = cfg
        self._n_cycles = n_cycles(series, cfg)
        if self._n_cycles < 2:
            raise ValueError(f"series of {len(series)} samples holds {self._n_cycles} cycles; need at least 2")
        winds = [cycle_wind(series, c, cfg) for c in range(self._n_cycles)]
        self._phi_c = np.array([phi for phi, _ in winds])
        self._v_c = np.array([v for _, v in winds])
        self._vt_c = cfg.standardizer.standardize(self._v_c)
        self._obs = np.zeros((cfg.j, 4))
        self._done = True

    @property
    def max_start_cycle(self) -> int:
        return self._n_cycles - self.cfg.episode_len - 1

    def reset(self, start_cycle=None, init_theta="align", align_offset_deg=0.0, rng=None) -> np.ndarray:
        if start_cycle is None:
            start_cycle = int(rng.integers(0, self.max_start_cycle + 1))
        if not (0 <= start_cycle <= self.max_start_cycle):
            raise ValueError(f"start_cycle {start_cycle} out of range 0..{self.max_start_cycle}")
        theta = self._phi_c[start_cycle] if init_theta == "align" else float(init_theta)
        self._theta = wrap_to_360(theta + align_offset_deg)
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

        applied = act if cfg.comm_delay == 0.0 else self._pending
        delta_theta = cfg.cycle_period * (int(applied) - 1) * tp.yaw_rate_deg_s
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
            "t_s": float(self.series.t[self._cycle * cfg.p_samples]),
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
