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

Observations enter the networks encoded per row (``encode_batch``): the action
code centered to {-1, 0, 1}, the misalignment scaled by 1/180, the wind
direction as its (sin, cos) pair (raw degrees are discontinuous at the seam),
and the standardized speed as is - five features per lagged row.

An episode starts where the caller says: ``reset(start_cycle, theta)`` takes
the start cycle and the nacelle heading (``None`` aligns it with that cycle's
wind). The env draws no random numbers; a trainer picks its start windows.

``YawEnv`` keeps what a step needs as columns. The wind features of every
cycle are encoded once, when the env is built. The encoded observation rows
live in one table of ``episode_len + j`` rows, newest first, filled from the
end, so the network input is a contiguous slice and a step writes one row.
``step`` returns ``(reward, done)`` and records the cycle in preallocated
trace columns, from which ``observation`` and ``trace()`` are built on demand.
It wraps angles with the float ``%``, which rounds as ``np.mod`` does, and
stores its row and trace values through memoryviews, not numpy indexing.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .power import TurbineParams, from_fields, power_with_misalignment, whole_number, wrap_to_360
from .wind import Standardizer, WindSeries, read_log_csv, set_columns, write_csv_columns

OBS_FEATURES_PER_ROW = 5


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
        p = whole_number("cycle_period", self.cycle_period, "seconds")
        if self.comm_delay not in (0.0, float(p)):
            raise ValueError(f"comm_delay must be 0 or one cycle_period ({p}), got {self.comm_delay}")
        for name in ("k", "j", "episode_len"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if not 0.0 <= self.w < math.inf:
            raise ValueError(f"w must be finite and >= 0, got {self.w}")

    @property
    def p_samples(self) -> int:
        return int(self.cycle_period)

    def to_dict(self) -> dict:
        d = asdict(self)  # the turbine becomes a nested dict
        return {"standardizer_scale": d.pop("standardizer")["scale"], **d}

    @classmethod
    def from_dict(cls, d: dict) -> "EnvConfig":
        d = dict(d)
        scale, turbine = d.pop("standardizer_scale"), TurbineParams.from_dict(d.pop("turbine"))
        return from_fields(cls, d, standardizer=Standardizer(scale), turbine=turbine)


def n_cycles(series: WindSeries, cfg: EnvConfig) -> int:
    """Whole control cycles contained in the series."""
    return len(series) // cfg.p_samples


def cycle_stats(series: WindSeries, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean direction and mean speed of every whole ``p``-second cycle.

    Directions are averaged on the unit circle (an arithmetic mean is wrong
    across the 0/360 seam), speeds arithmetically. Equal bit for bit to
    ``circular_mean_deg`` and ``np.mean`` over each cycle's samples: the sin,
    cos and speed means reduce each row as the 1-d means do, and the final
    atan2 runs per row in ``math.atan2``; ``np.arctan2`` on an array can
    differ from it in the last ulp.
    """
    count = len(series) // p
    rad = np.deg2rad(series.phi[: count * p]).reshape(count, p)
    sin_m, cos_m = np.sin(rad).mean(axis=1).tolist(), np.cos(rad).mean(axis=1).tolist()
    phi = wrap_to_360(np.degrees([math.atan2(s, c) for s, c in zip(sin_m, cos_m)]))
    return phi, series.v[: count * p].reshape(count, p).mean(axis=1)


def encode_batch(obs: np.ndarray) -> np.ndarray:
    """(N, j, 4) observations -> (N, j*5) network inputs."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 3 or obs.shape[2] != 4:
        raise ValueError(f"expected observations shaped (N, j, 4), got {obs.shape}")
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    out = np.empty(obs.shape[:2] + (OBS_FEATURES_PER_ROW,))
    np.subtract(obs[:, :, 0], 1.0, out=out[:, :, 0])
    np.divide(obs[:, :, 1], 180.0, out=out[:, :, 1])
    phi_rad = np.deg2rad(obs[:, :, 2])
    np.sin(phi_rad, out=out[:, :, 2])
    np.cos(phi_rad, out=out[:, :, 3])
    out[:, :, 4] = obs[:, :, 3]
    return out.reshape(obs.shape[0], -1)


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
        set_columns(self, _TRACE_DTYPES)

    def __len__(self) -> int:
        return len(self.cycle)

    def slice(self, start: int, stop: int | None = None) -> "CycleTrace":
        stop = len(self) if stop is None else stop
        return CycleTrace(**{name: getattr(self, name)[start:stop].copy() for name in TRACE_COLUMNS})

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


TRACE_COLUMNS = tuple(f.name for f in fields(CycleTrace))
_TRACE_INT_COLUMNS = {"cycle", "action_issued", "action_applied"}
_TRACE_DTYPES = {name: np.int64 if name in _TRACE_INT_COLUMNS else np.float64 for name in TRACE_COLUMNS}


class YawEnv:
    """Gym-style environment over a wind series holding at least one episode
    plus the one-cycle lookahead; a shorter series raises ValueError here.

    ``reset(start_cycle, theta=None)`` starts an episode and draws nothing
    at random. ``step(action)`` takes 0, 1 or 2 (an ``Action``) and returns
    ``(reward, done)``. ``observation``, which ``reset`` returns, is the j x 4
    matrix of (action, gamma, phi, v_tilde) rows, newest first.
    ``encoded_observation`` is the same observation as the read-only network
    input of ``encode_batch``, bit for bit, and ``trace()`` returns the
    ``CycleTrace`` of the steps since the last ``reset``.
    """

    def __init__(self, series: WindSeries, cfg: EnvConfig):
        self.series = series
        self.cfg = cfg
        self._n_cycles = n_cycles(series, cfg)
        if self._n_cycles < cfg.episode_len + 1:
            raise ValueError(
                f"series holds {self._n_cycles} cycles: too short for an episode of "
                f"{cfg.episode_len} cycles plus the one-cycle lookahead"
            )
        self._phi_c, self._v_c = cycle_stats(series, cfg.p_samples)
        self._vt_c = cfg.standardizer.standardize(self._v_c)
        # Python floats index faster than numpy scalars. One encode_batch call
        # gives sin phi, cos phi and v~ of every cycle and checks them for finiteness.
        self._phi, self._vt = self._phi_c.tolist(), self._vt_c.tolist()
        cycles = np.zeros((1, self._n_cycles, 4))
        cycles[0, :, 2], cycles[0, :, 3] = self._phi_c, self._vt_c
        self._wind_features = encode_batch(cycles).reshape(-1, OBS_FEATURES_PER_ROW)[:, 2:].tolist()
        self._delta = [cfg.cycle_period * (a - 1) * cfg.turbine.yaw_rate_deg_s for a in range(3)]
        n, j = cfg.episode_len, cfg.j
        self._warmup = np.zeros((j, 4))  # the observation at reset
        self._enc = np.zeros((n + j) * OBS_FEATURES_PER_ROW)
        self._enc_read_only = self._enc.view()
        self._enc_read_only.flags.writeable = False
        self._floats, self._actions = np.zeros((4, n)), np.zeros((2, n), dtype=np.int64)  # trace columns
        self._gamma_col, self._issued_col = self._floats[1], self._actions[0]
        self._theta_mv, self._gamma_mv, self._r1_mv, self._r2_mv = map(memoryview, self._floats)
        self._issued_mv, self._applied_mv, self._enc_mv = map(memoryview, (*self._actions, self._enc))
        self._start = 0
        self._row = n  # the newest observation row
        self._steps = 0
        self._done = True  # force a reset before stepping

    @property
    def max_start_cycle(self) -> int:
        return self._n_cycles - self.cfg.episode_len - 1

    def cycle_direction(self, cycle: int) -> float:
        return self._phi[cycle]

    @property
    def encoded_observation(self) -> np.ndarray:
        """The current observation as the flat j*5 network input (a read-only view)."""
        lo = self._row * OBS_FEATURES_PER_ROW
        return self._enc_read_only[lo : lo + self.cfg.j * OBS_FEATURES_PER_ROW]

    def reset(self, start_cycle: int, theta: float | None = None) -> np.ndarray:
        """Start an episode at ``start_cycle`` with the nacelle at heading ``theta``.

        ``theta=None`` points the nacelle at the start cycle's mean wind
        direction; a real number (not a bool) is an absolute heading in
        degrees, wrapped into [0, 360).
        The j history rows are pre-filled from the wind before the start
        (clamped at the series head) under all-Stay actions.
        """
        if not (
            isinstance(start_cycle, (int, np.integer))
            and start_cycle.__class__ is not bool
            and 0 <= start_cycle <= self.max_start_cycle
        ):
            raise ValueError(
                f"start_cycle must be a whole number in 0..{self.max_start_cycle}, leaving "
                f"episode_len={self.cfg.episode_len} cycles, got {start_cycle}"
            )
        if theta is None:
            theta = self._phi[start_cycle]
        elif not isinstance(theta, (int, float, np.integer, np.floating)) or theta.__class__ is bool:
            raise ValueError(f"theta must be None or a real number of degrees, got {theta!r}")
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"the initial heading must be finite, got {theta!r}")
        self._theta = theta = 0.0 if (w := theta % 360.0) >= 360.0 else w  # wrapped as step wraps it
        self._start = self._cycle = start_cycle
        self._pending = int(Action.STAY)
        self._stay_streak = self.cfg.j  # warm-up rows count as issued Stays
        self._steps = 0
        self._done = False
        self._row = self.cfg.episode_len
        for i in range(self.cfg.j):
            c = max(start_cycle - i, 0)
            gamma = w - 360.0 if (w := (self._phi[c] - theta) % 360.0) > 180.0 else w
            self._warmup[i] = (int(Action.STAY), gamma, self._phi[c], self._vt[c])
            self._write_row(self._row + i, int(Action.STAY), gamma, c)
        return self.observation

    @property
    def observation(self) -> np.ndarray:
        """The last min(steps, j) trace rows, newest first, above the warm-up rows."""
        j, t = self.cfg.j, self._steps
        steps = np.arange(t - 1, max(t - j, 0) - 1, -1)
        cycles = self._start + 1 + steps
        rows = np.column_stack(
            (self._issued_col[steps], self._gamma_col[steps], self._phi_c[cycles], self._vt_c[cycles])
        )
        return np.concatenate((rows, self._warmup[: j - len(steps)]))

    def _write_row(self, row: int, action: int, gamma: float, c: int) -> None:
        """Row ``row`` of the table; Python floats round as ``encode_batch``'s arrays do."""
        enc, lo = self._enc_mv, row * OBS_FEATURES_PER_ROW
        enc[lo], enc[lo + 1] = action - 1.0, gamma / 180.0
        enc[lo + 2], enc[lo + 3], enc[lo + 4] = self._wind_features[c]

    def step(self, action) -> tuple[float, bool]:
        if self._done:
            raise RuntimeError("episode is done; call reset() before stepping")
        try:
            a = operator.index(action)
        except TypeError:
            a = None
        if a not in (0, 1, 2) or action.__class__ is bool:
            raise ValueError(f"action must be 0, 1 or 2, got {action!r}")
        cfg = self.cfg

        applied = a if cfg.comm_delay == 0.0 else self._pending
        delta_theta = self._delta[applied]
        if delta_theta != 0.0:  # wrap into [0, 360) as wrap_to_360 does: % can round a tiny negative up to 360
            self._theta = 0.0 if (w := (self._theta + delta_theta) % 360.0) >= 360.0 else w

        self._cycle = c = self._cycle + 1
        vt = self._vt[c]
        gamma = w - 360.0 if (w := (self._phi[c] - self._theta) % 360.0) > 180.0 else w  # yaw_error; 360 gives 0.0
        r1 = -(gamma**2) * vt**3
        self._stay_streak = self._stay_streak + 1 if a == 1 else 0
        r2 = cfg.w if self._stay_streak >= cfg.k else 0.0

        t = self._steps
        self._theta_mv[t], self._gamma_mv[t], self._r1_mv[t], self._r2_mv[t] = self._theta, gamma, r1, r2
        self._issued_mv[t], self._applied_mv[t] = a, applied
        self._row = row = self._row - 1
        self._write_row(row, a, gamma, c)
        self._pending = a
        self._steps = t + 1
        self._done = self._steps >= cfg.episode_len
        return r1 + r2, self._done

    def trace(self) -> CycleTrace:
        """The per-cycle trace of the steps since the last ``reset``; it owns
        copies of its columns, so later steps do not change it."""
        n = self._steps
        if n == 0:
            raise ValueError("no step since the last reset: the trace would be empty")
        cycle = np.arange(self._start + 1, self._start + 1 + n)
        theta, gamma, r1, r2 = self._floats[:, :n].copy()
        issued, applied = self._actions[:, :n].copy()
        t_s, phi, v = self.series.t[cycle * self.cfg.p_samples], self._phi_c[cycle], self._v_c[cycle]
        power_kw = power_with_misalignment(v, gamma, self.cfg.turbine)
        return CycleTrace(cycle, t_s, phi, v, theta, gamma, issued, applied, power_kw, r1, r2)


def eval_env_config(series: WindSeries, cfg: EnvConfig) -> EnvConfig:
    """Config whose episode spans every cycle of ``series`` after cycle 0."""
    length = n_cycles(series, cfg) - 1
    if length < 1:
        raise ValueError("series too short for a full-span evaluation episode")
    return replace(cfg, episode_len=length)
