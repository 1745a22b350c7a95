"""Discrete-time yaw-control environment.

The loop's timing is fixed: a cycle lasts ``CYCLE_PERIOD_S`` (10) seconds, and
with the one-cycle communication delay an action issued during cycle t reaches
the yaw drive only while cycle t+1 runs. A step therefore (1) rotates the
nacelle by the action issued one cycle earlier (3 degrees at 0.3 deg/s), (2)
advances the wind by one cycle, and only then (3) measures the new
misalignment, reward, and power.

Reward: r1 = -gamma^2 * v_tilde^3 penalizes misalignment weighted by the cubed
standardized wind speed; r2 pays ``w`` whenever the last ``k`` issued actions
(including the current one) were all Stay.

The policy observes the j newest cycles, newest first, as one flat float32
row of five features per cycle, the networks' input: the action code centered
to {-1, 0, 1}, the misalignment scaled by 1/180, the wind direction as its
(sin, cos) pair (raw degrees are discontinuous at the seam), and the
standardized speed as is.

An episode starts where the caller says: ``reset(start_cycle, theta)`` takes
the start cycle and the nacelle heading (``None`` aligns it with that cycle's
wind) and returns the first observation; the env draws no random numbers.

``YawEnv`` keeps what a step needs as columns. Every cycle's wind features
are computed once, when the env is built. The observation rows live in one
float32 table of ``episode_len + j`` rows, newest first, filled from the end,
so the observation is a contiguous slice and a step writes one row. ``step``
returns ``(reward, done)`` and records the cycle in preallocated trace columns,
from which ``trace()`` is built on demand. Angles wrap with the float ``%``,
which rounds as ``np.mod`` does; rows and trace values are stored through
memoryviews, where a float rounds to float32 as numpy's cast does.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import asdict, field, replace

import numpy as np

from .power import Record, TurbineParams, check_fields, from_fields, power_with_misalignment, real_number, wrap_to_360
from .wind import Columns, Ints, Standardizer, WindSeries, read_log_csv, write_csv_columns

OBS_FEATURES_PER_ROW = 5
CYCLE_PERIOD_S = 10  # seconds per control cycle, so also its count of 1 s wind samples


class Action(enum.IntEnum):
    CLOCKWISE = 0          # rotate for the full cycle, decrementing theta
    STAY = 1
    COUNTER_CLOCKWISE = 2  # rotate for the full cycle, incrementing theta


class EnvConfig(Record):
    """Control-loop configuration binding a turbine and a fitted standardizer."""

    standardizer: Standardizer
    turbine: TurbineParams = field(default_factory=TurbineParams)
    k: int = 2                  # consecutive Stay actions needed for the r2 bonus
    j: int = 12                 # lagged rows in the observation
    w: float = 40.0             # r2 bonus weight
    episode_len: int = 256      # cycles per episode

    def __post_init__(self):
        for name, cls in (("standardizer", Standardizer), ("turbine", TurbineParams)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        check_fields(self, w="[0, inf)")

    @property
    def p_samples(self) -> int:
        return CYCLE_PERIOD_S

    def to_dict(self) -> dict:
        d = asdict(self)  # the turbine becomes a nested dict
        return {"standardizer_scale": d.pop("standardizer")["scale"], **d}

    @classmethod
    def from_dict(cls, d: dict) -> "EnvConfig":
        d = dict(d)
        scale, turbine = d.pop("standardizer_scale"), TurbineParams.from_dict(d.pop("turbine"))
        return from_fields(cls, d, standardizer=Standardizer(scale), turbine=turbine)


def n_cycles(series: WindSeries) -> int:
    """Whole control cycles contained in the series."""
    return len(series) // CYCLE_PERIOD_S


def cycle_stats(series: WindSeries) -> tuple[np.ndarray, np.ndarray]:
    """Mean direction and mean speed of every whole control cycle.

    Directions are averaged on the unit circle (an arithmetic mean is wrong
    across the 0/360 seam), speeds arithmetically. Equal bit for bit to
    ``circular_mean_deg`` and ``np.mean`` over each cycle's samples: the sin,
    cos and speed means reduce each row as the 1-d means do, and the final
    atan2 runs per row in ``math.atan2``; ``np.arctan2`` on an array can
    differ from it in the last ulp.
    """
    p = CYCLE_PERIOD_S
    count = len(series) // p
    rad = np.deg2rad(series.phi[: count * p]).reshape(count, p)
    sin_m, cos_m = np.sin(rad).mean(axis=1).tolist(), np.cos(rad).mean(axis=1).tolist()
    phi = wrap_to_360(np.degrees([math.atan2(s, c) for s, c in zip(sin_m, cos_m)]))
    return phi, series.v[: count * p].reshape(count, p).mean(axis=1)


class CycleTrace(Columns):
    """Per-cycle record of a control run; the common currency of the benchmark."""

    cycle: Ints
    t_s: np.ndarray
    phi: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray
    action_issued: Ints
    action_applied: Ints
    power_kw: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def to_csv(self, path) -> None:
        write_csv_columns(path, TRACE_COLUMNS, *(getattr(self, name) for name in TRACE_COLUMNS))

    @classmethod
    def from_csv(cls, path) -> "CycleTrace":
        """Read a ``to_csv`` file; a malformed row, including a non-finite value,
        raises WindDataError (a ValueError) naming the file and line."""
        return cls(*read_log_csv(path, TRACE_COLUMNS, ints=cls.int_columns()))


TRACE_COLUMNS = CycleTrace._names


class YawEnv:
    """Gym-style environment over a wind series holding at least one episode
    plus the one-cycle lookahead; a shorter series raises ValueError here.

    ``reset(start_cycle, theta=None)`` starts an episode and draws nothing
    at random. ``step(action)`` takes 0, 1 or 2 (an ``Action``) and returns
    ``(reward, done)``. ``encoded_observation``, which ``reset`` returns, is the
    one observation, a read-only float32 view of the j newest rows, newest
    first; ``trace()`` is the ``CycleTrace`` of the steps since the last ``reset``.
    """

    def __init__(self, series: WindSeries, cfg: EnvConfig):
        self.series = series
        self.cfg = cfg
        self._n_cycles = n_cycles(series)
        if self._n_cycles < cfg.episode_len + 1:
            raise ValueError(
                f"series holds {self._n_cycles} cycles: too short for an episode of "
                f"{cfg.episode_len} cycles plus the one-cycle lookahead"
            )
        self._phi_c, self._v_c = cycle_stats(series)
        self._vt_c = cfg.standardizer.standardize(self._v_c)
        if not (np.abs(self._vt_c) <= np.finfo(np.float32).max).all():  # compared: a cast would warn
            raise ValueError(f"standardizer scale {cfg.standardizer.scale!r} puts standardized wind speeds past "
                             f"the float32 range, up to {float(np.abs(self._vt_c).max())!r}")
        # Python floats index faster than numpy scalars. sin and cos are written into
        # strided columns, as ppo.encode_observation writes them, so the ufunc loops match.
        self._phi, self._vt = self._phi_c.tolist(), self._vt_c.tolist()
        features = np.empty((self._n_cycles, OBS_FEATURES_PER_ROW))
        phi_rad = np.deg2rad(self._phi_c)
        np.sin(phi_rad, out=features[:, 2])
        np.cos(phi_rad, out=features[:, 3])
        features[:, 4] = self._vt_c
        self._wind_features = features[:, 2:].tolist()
        self._delta = [CYCLE_PERIOD_S * (a - 1) * cfg.turbine.yaw_rate_deg_s for a in range(3)]
        n, j = cfg.episode_len, cfg.j
        self._enc = np.zeros((n + j) * OBS_FEATURES_PER_ROW, dtype=np.float32)
        self._enc_read_only = self._enc.view()
        self._enc_read_only.flags.writeable = False
        self._floats, self._actions = np.zeros((4, n)), np.zeros((2, n), dtype=np.int64)  # trace columns
        self._theta_mv, self._gamma_mv, self._r1_mv, self._r2_mv = map(memoryview, self._floats)
        self._issued_mv, self._applied_mv, self._enc_mv = map(memoryview, (*self._actions, self._enc))
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
        """The current observation, the flat j*5 float32 network input: a read-only view the next reset rewrites."""
        lo = self._row * OBS_FEATURES_PER_ROW
        return self._enc_read_only[lo : lo + self.cfg.j * OBS_FEATURES_PER_ROW]

    def reset(self, start_cycle: int, theta: float | None = None) -> np.ndarray:
        """Start an episode at ``start_cycle`` with the nacelle at heading ``theta``.

        ``theta=None`` points the nacelle at the start cycle's mean wind
        direction; a real number (not a bool) is an absolute heading in
        degrees, wrapped into [0, 360).
        The j history rows are pre-filled from the wind before the start
        (clamped at the series head) under all-Stay actions; returns the first observation.
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
        theta = self._phi[start_cycle] if theta is None else real_number("theta", theta)
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
            self._write_row(self._row + i, int(Action.STAY), gamma, c)
        return self.encoded_observation

    def _write_row(self, row: int, action: int, gamma: float, c: int) -> None:
        """Row ``row`` of the table; each Python float rounds to float32 as numpy's cast does."""
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

        applied = self._pending  # the action issued one cycle earlier
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
        t_s, phi, v = self.series.t[cycle * CYCLE_PERIOD_S], self._phi_c[cycle], self._v_c[cycle]
        power_kw = power_with_misalignment(v, gamma, self.cfg.turbine)
        return CycleTrace(cycle, t_s, phi, v, theta, gamma, issued, applied, power_kw, r1, r2)


def eval_env_config(series: WindSeries, cfg: EnvConfig) -> EnvConfig:
    """Config whose episode spans every cycle of ``series`` after cycle 0."""
    length = n_cycles(series) - 1
    if length < 1:
        raise ValueError("series too short for a full-span evaluation episode")
    return replace(cfg, episode_len=length)
