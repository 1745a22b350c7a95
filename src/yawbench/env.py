"""Discrete-time yaw-control environment.

One control cycle lasts ``cycle_period`` seconds. During cycle t the controller
observes the lagged state matrix and issues an action; with the one-cycle
communication delay the action reaches the yaw drive only while cycle t+1
runs. A step therefore (1) rotates the nacelle by the action issued one cycle
earlier, (2) advances the wind by one cycle, and only then (3) measures the
new misalignment, reward, and power.

Reward: r1 = -gamma^2 * v_tilde^3 penalizes misalignment weighted by the cubed
standardized wind speed; r2 pays ``w`` whenever the last ``k`` issued actions
(including the current one) were all Stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .power import (
    TurbineParams,
    circular_mean_deg,
    power_with_misalignment,
    wrap_to_360,
    yaw_error,
)
from .wind import Standardizer, WindSeries, read_log_csv, write_csv_columns

import enum


class Action(enum.IntEnum):
    CLOCKWISE = 0          # rotate for the full cycle, decrementing theta
    STAY = 1
    COUNTER_CLOCKWISE = 2  # rotate for the full cycle, incrementing theta


@dataclass(frozen=True)
class EnvConfig:
    """Control-loop configuration binding a turbine and a fitted standardizer."""

    standardizer: Standardizer
    turbine: TurbineParams = field(default_factory=TurbineParams)
    cycle_period: float = 10.0  # seconds per control cycle (integer-valued)
    comm_delay: float = 10.0    # 0 or one cycle_period
    k: int = 2                  # consecutive Stay actions needed for the r2 bonus
    j: int = 12                 # lagged rows in the observation
    w: float = 40.0             # r2 bonus weight
    episode_len: int = 256      # cycles per episode

    def __post_init__(self):
        p = self.cycle_period
        if p <= 0 or float(p) != int(p):
            raise ValueError(f"cycle_period must be a positive whole number of seconds, got {p}")
        if self.comm_delay not in (0.0, float(p)):
            raise ValueError(f"comm_delay must be 0 or one cycle_period ({p}), got {self.comm_delay}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.j < 1:
            raise ValueError(f"j must be >= 1, got {self.j}")
        if self.w < 0:
            raise ValueError(f"w must be >= 0, got {self.w}")
        if self.episode_len < 1:
            raise ValueError(f"episode_len must be >= 1, got {self.episode_len}")

    @property
    def p_samples(self) -> int:
        return int(self.cycle_period)

    def to_dict(self) -> dict:
        return {
            "standardizer_scale": self.standardizer.scale,
            "turbine": self.turbine.to_dict(),
            "cycle_period": self.cycle_period,
            "comm_delay": self.comm_delay,
            "k": self.k,
            "j": self.j,
            "w": self.w,
            "episode_len": self.episode_len,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnvConfig":
        d = dict(d)
        scale = d.pop("standardizer_scale")
        turbine = TurbineParams.from_dict(d.pop("turbine"))
        return cls(standardizer=Standardizer(scale), turbine=turbine, **d)


def n_cycles(series: WindSeries, cfg: EnvConfig) -> int:
    """Whole control cycles contained in the series."""
    return len(series) // cfg.p_samples


def cycle_wind(series: WindSeries, cycle: int, cfg: EnvConfig) -> tuple[float, float]:
    """Aggregate the 1 s samples of one control cycle.

    Directions are averaged on the unit circle (an arithmetic mean is wrong
    across the 0/360 seam); speeds arithmetically.
    """
    p = cfg.p_samples
    if cycle < 0 or (cycle + 1) * p > len(series):
        raise ValueError(f"cycle {cycle} out of range for a series of {len(series)} samples")
    lo, hi = cycle * p, (cycle + 1) * p
    return circular_mean_deg(series.phi[lo:hi]), float(np.mean(series.v[lo:hi]))


def cycle_stats(series: WindSeries, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean direction and mean speed of every whole ``p``-second cycle.

    Equal bit for bit to ``cycle_wind`` on each cycle: the sin, cos and speed
    means reduce each row as the 1-d means do, and the final atan2 runs per
    row in ``math.atan2``, as in ``circular_mean_deg``; ``np.arctan2`` on an
    array can differ from it in the last ulp.
    """
    count = len(series) // p
    rad = np.deg2rad(series.phi[: count * p]).reshape(count, p)
    sin_m, cos_m = np.sin(rad).mean(axis=1).tolist(), np.cos(rad).mean(axis=1).tolist()
    phi = wrap_to_360(np.degrees([math.atan2(s, c) for s, c in zip(sin_m, cos_m)]))
    return phi, series.v[: count * p].reshape(count, p).mean(axis=1)


def indifference_misalignment(cfg: EnvConfig, v_tilde: float, correction: float) -> float:
    """Misalignment above which a correcting move out-rewards staying put.

    Solves -(gamma - correction)^2 v~^3 = -gamma^2 v~^3 + w for gamma, i.e.
    gamma* = (w / v~^3 + correction^2) / (2 correction). Strictly decreasing in
    the standardized wind speed: fast wind buys more correction.
    """
    if correction == 0:
        raise ZeroDivisionError("correction must be positive, got 0")
    if correction < 0:
        raise ValueError(f"correction must be positive, got {correction}")
    if not v_tilde > 0:
        raise ValueError(f"v_tilde must be positive, got {v_tilde}")
    return (cfg.w / v_tilde**3 + correction**2) / (2.0 * correction)


@dataclass
class SimState:
    """Snapshot of the mutable simulation state."""

    cycle: int
    theta: float
    pending_action: Action
    steps: int
    done: bool


TRACE_COLUMNS = (
    "cycle",
    "t_s",
    "phi",
    "v",
    "theta",
    "gamma",
    "action_issued",
    "action_applied",
    "power_kw",
    "r1",
    "r2",
)

_TRACE_INT_COLUMNS = {"cycle", "action_issued", "action_applied"}


@dataclass(frozen=True, eq=False)
class CycleTrace:
    """Per-cycle record of a control run; the common currency of the benchmark."""

    cycle: np.ndarray
    t_s: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    action_issued: np.ndarray
    action_applied: np.ndarray
    power_kw: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        n = len(self.cycle)
        for name in TRACE_COLUMNS:
            dtype = np.int64 if name in _TRACE_INT_COLUMNS else np.float64
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.ndim != 1 or len(arr) != n:
                raise ValueError(f"trace column {name!r} must be 1-d of length {n}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.cycle)

    @classmethod
    def from_records(cls, records: list[dict]) -> "CycleTrace":
        if not records:
            raise ValueError("cannot build a trace from zero records")
        return cls(**{name: np.array([rec[name] for rec in records]) for name in TRACE_COLUMNS})

    def slice(self, start: int, stop: int | None = None) -> "CycleTrace":
        stop = len(self) if stop is None else stop
        return CycleTrace(**{name: getattr(self, name)[start:stop].copy() for name in TRACE_COLUMNS})

    @staticmethod
    def concat(traces: list["CycleTrace"]) -> "CycleTrace":
        if not traces:
            raise ValueError("cannot concatenate zero traces")
        return CycleTrace(
            **{
                name: np.concatenate([getattr(tr, name) for tr in traces])
                for name in TRACE_COLUMNS
            }
        )

    def equals(self, other: "CycleTrace") -> bool:
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in TRACE_COLUMNS
        )

    def to_csv(self, path) -> None:
        write_csv_columns(path, TRACE_COLUMNS, *(getattr(self, name) for name in TRACE_COLUMNS))

    @classmethod
    def from_csv(cls, path) -> "CycleTrace":
        """Read a ``to_csv`` file; a malformed row, including a non-finite value,
        raises WindDataError (a ValueError) naming the file and line."""
        cycle, rest = read_log_csv(path, TRACE_COLUMNS, ints=_TRACE_INT_COLUMNS)
        return cls(cycle, *rest)


class YawEnv:
    """Gym-style environment over a wind series.

    ``step`` returns ``(observation, reward, done, info)`` where the
    observation is the j x 4 matrix of (action, gamma, phi, v_tilde) rows,
    newest first, and ``info`` carries the per-cycle trace record including the
    reward parts ``r1``/``r2`` and the exact rotation ``delta_theta``.
    """

    def __init__(self, series: WindSeries, cfg: EnvConfig):
        self.series = series
        self.cfg = cfg
        self._n_cycles = n_cycles(series, cfg)
        if self._n_cycles < 2:
            raise ValueError(
                f"series of {len(series)} samples holds {self._n_cycles} cycles; need at least 2"
            )
        # Per-cycle aggregates, computed once; equal to cycle_wind on every cycle.
        self._phi_c, self._v_c = cycle_stats(series, cfg.p_samples)
        self._vt_c = cfg.standardizer.standardize(self._v_c)
        self._obs = np.zeros((cfg.j, 4))
        self._cycle = 0
        self._theta = 0.0
        self._pending = Action.STAY
        self._stay_streak = 0
        self._steps = 0
        self._done = True  # force a reset before stepping

    @property
    def n_cycles(self) -> int:
        return self._n_cycles

    @property
    def max_start_cycle(self) -> int:
        return self._n_cycles - self.cfg.episode_len - 1

    @property
    def state(self) -> SimState:
        return SimState(self._cycle, self._theta, self._pending, self._steps, self._done)

    def cycle_direction(self, cycle: int) -> float:
        return float(self._phi_c[cycle])

    def reset(
        self,
        start_cycle: int | None = None,
        init_theta: float | str = "align",
        align_offset_deg: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Start an episode at ``start_cycle`` (drawn from ``rng`` when omitted).

        ``init_theta="align"`` points the nacelle at the first cycle's mean
        wind direction; ``align_offset_deg`` shifts whichever heading was
        chosen. The j history rows are pre-filled from the wind before the
        start (clamped at the series head) under all-Stay actions.
        """
        if self.max_start_cycle < 0:
            raise ValueError(
                f"series holds {self._n_cycles} cycles: too short for an episode of "
                f"{self.cfg.episode_len} cycles plus the one-cycle lookahead"
            )
        if start_cycle is None:
            if rng is None:
                raise ValueError("reset needs either start_cycle or rng")
            start_cycle = int(rng.integers(0, self.max_start_cycle + 1))
        if not (0 <= start_cycle <= self.max_start_cycle):
            raise ValueError(
                f"start_cycle {start_cycle} leaves fewer than episode_len={self.cfg.episode_len} "
                f"cycles (valid range 0..{self.max_start_cycle})"
            )
        if init_theta == "align":
            theta = self._phi_c[start_cycle]
        else:
            theta = float(init_theta)
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

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
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
    """Reset ``env`` and play a fixed action sequence, returning the trace."""
    env.reset(**reset_kwargs)
    records = []
    for a in actions:
        _, _, done, info = env.step(a)
        records.append(info)
        if done:
            break
    return CycleTrace.from_records(records)


def run_constant_action(env: YawEnv, action: Action, n_steps: int | None = None, **reset_kwargs) -> CycleTrace:
    """Reset ``env`` and repeat one action until done (or for ``n_steps``)."""
    limit = env.cfg.episode_len if n_steps is None else n_steps
    return run_actions(env, [action] * limit, **reset_kwargs)


def eval_env_config(series: WindSeries, cfg: EnvConfig, start_cycle: int = 0) -> EnvConfig:
    """Config whose episode spans every cycle of ``series`` after ``start_cycle``."""
    length = n_cycles(series, cfg) - start_cycle - 1
    if length < 1:
        raise ValueError("series too short for a full-span evaluation episode")
    return replace(cfg, episode_len=length)
