"""Conventional yaw control: a simulated cumulative-error threshold controller
and a replay baseline reconstructed from recorded nacelle positions.

The simulated controller ticks once per 1 s wind sample: it integrates
|yaw error| over time while idle, and once the accumulator crosses the
threshold it turns toward the mean wind direction of a short trailing window,
at the fixed yaw rate, until within a deadband of that target. The accumulator
resets when an actuation is armed and does not accrue while yawing. Results
are resampled onto the control-cycle grid used by every other controller.

The simulation is event-driven: while the controller is idle the heading is
fixed, so only the ticks spent yawing step through a scalar loop (see
``_simulate``). Its outputs are bit-identical to a loop over every tick,
because ``np.cumsum`` adds strictly in sequence from the carried accumulator,
as that loop does, the float and array branches of the angle wrapping round
alike, and the cycle aggregation (``cycle_stats``) takes each cycle's final
atan2 with ``math.atan2``, as ``circular_mean_deg`` does.

Threshold calibration scores each candidate from its simulated end-of-cycle
headings alone, without building the cycle trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .env import CycleTrace, cycle_stats
from .metrics import cycle_deltas
from .power import (TurbineParams, circular_mean_deg, power_with_misalignment, whole_number,
                    wrap_angle, wrap_to_360, yaw_error)
from .wind import WindSeries, check_log, read_log_csv, set_columns, write_csv_columns

# Numerical floor under which the remaining turn is treated as reached even
# with a zero deadband; avoids chasing float residue at the target.
_STOP_FLOOR_DEG = 1e-9

# Ticks in the first idle scan after an event; each further scan of the same
# idle spell doubles, so a spell of L ticks costs O(L) work in O(log L) scans.
_SCAN_TICKS = 64

NACELLE_HEADER = ("t", "theta_deg")


@dataclass(frozen=True)
class CycaConfig:
    threshold: float = 900.0      # deg*s of accumulated |yaw error| that triggers a turn
    target_window: float = 30.0   # seconds of trailing wind-direction averaging
    stop_deadband: float = 1.0    # deg; stop turning once within this of the target

    def __post_init__(self):
        for name, x in vars(self).items():
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
        whole_number("target_window", self.target_window, "seconds")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.stop_deadband < 0:
            raise ValueError(f"stop_deadband must be >= 0, got {self.stop_deadband}")


def run_cyca_s(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, init_theta: float,
               cycle_period: float = 10.0, return_inner: bool = False):
    """Simulate the threshold controller over ``series``.

    Returns the per-cycle trace; with ``return_inner=True`` also a dict of
    per-second arrays (theta, accumulator, yawing flag) for inspection.
    """
    p = whole_number("cycle_period", cycle_period, "seconds")
    theta0 = wrap_to_360(float(init_theta))
    theta_sec, acc_sec, yawing_sec = _simulate(series, cfg, tp, theta0)
    trace = _resample_to_cycles(series, theta_sec, tp, p, theta_prev=theta0)
    if return_inner:
        return trace, {"t": series.t.copy(), "theta": theta_sec, "acc": acc_sec, "yawing": yawing_sec}
    return trace


def _simulate(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, theta0: float):
    """Per-second heading, accumulator and yawing flag of the controller from heading ``theta0``.

    Event-driven, and bit-identical to a per-tick loop (see the module
    docstring): an idle spell is scanned in doubling chunks, ``np.cumsum``
    adding each 1 s tick's ``|yaw error|`` (deg*s) onto the carried
    accumulator and ``searchsorted`` finding the trigger tick; a turn steps on
    Python floats, at most ``yaw_rate_deg_s`` per tick.
    """
    n = len(series)
    window = int(cfg.target_window)
    step_max = tp.yaw_rate_deg_s
    stop_at = max(cfg.stop_deadband, _STOP_FLOOR_DEG)

    theta_sec = np.empty(n)
    acc_sec = np.zeros(n)  # zero on every tick from a trigger to the end of its turn
    yawing_sec = np.zeros(n, dtype=bool)

    theta, acc, yawing, target = theta0, 0.0, False, 0.0
    i, span = 0, _SCAN_TICKS
    while i < n:
        if yawing:
            rem = yaw_error(target, theta)
            if abs(rem) <= stop_at:
                yawing = False
            else:
                theta = wrap_to_360(theta + math.copysign(min(step_max, abs(rem)), rem))
                yawing = abs(yaw_error(target, theta)) > stop_at
            theta_sec[i] = theta
            yawing_sec[i] = yawing
            i, span = i + 1, _SCAN_TICKS
            continue
        hi = min(i + span, n)
        run = np.cumsum(np.concatenate(([acc], np.abs(yaw_error(series.phi[i:hi], theta)))))[1:]
        hit = i + int(np.searchsorted(run, cfg.threshold))
        theta_sec[i : min(hit + 1, hi)] = theta
        if hit < hi:
            # Arm a turn toward the trailing-window mean; motion starts on the next tick.
            target = circular_mean_deg(series.phi[max(0, hit - window + 1) : hit + 1])
            acc_sec[i:hit] = run[: hit - i]
            yawing_sec[hit] = yawing = True
            acc, i = 0.0, hit + 1
        else:
            acc_sec[i:hi] = run
            acc, i, span = float(run[-1]), hi, 2 * span
    return theta_sec, acc_sec, yawing_sec


def _cycle_ends(theta_sec: np.ndarray, p: int) -> np.ndarray:
    """The end-of-cycle headings of a per-second trajectory, one per full ``p`` s cycle (a view)."""
    count = len(theta_sec) // p
    if count == 0:
        raise ValueError(f"series of {len(theta_sec)} samples holds no full {p} s cycle")
    return theta_sec[p - 1 : count * p : p]


def _resample_to_cycles(series: WindSeries, theta_sec: np.ndarray, tp: TurbineParams, p: int,
                        theta_prev: float) -> CycleTrace:
    """Collapse a per-second nacelle trajectory onto the control-cycle grid.

    The nacelle position reported for a cycle is its end-of-cycle value; the
    applied action is derived from the net rotation over the cycle.
    """
    theta = _cycle_ends(theta_sec, p).copy()
    count = len(theta)
    phi, v = cycle_stats(series, p)
    gamma = yaw_error(phi, theta)
    delta = wrap_angle(np.diff(theta, prepend=theta_prev))
    action = np.where(delta > 1e-12, 2, np.where(delta < -1e-12, 0, 1))
    return CycleTrace(
        cycle=np.arange(count),
        t_s=series.t[: count * p : p],
        phi=phi,
        v=v,
        theta=theta,
        gamma=gamma,
        action_issued=action,
        action_applied=action,
        power_kw=power_with_misalignment(v, gamma, tp),
        r1=np.zeros(count),
        r2=np.zeros(count),
    )


@dataclass(frozen=True, eq=False)
class NacelleLog:
    """Recorded nacelle positions at uniform 1 s spacing."""

    t: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        set_columns(self, {"t": np.int64, "theta": np.float64})
        check_log(self, 2, self.theta, "nacelle position")

    def __len__(self) -> int:
        return len(self.t)


def load_nacelle_log(path) -> NacelleLog:
    """Read a nacelle-position CSV with header ``t,theta_deg``; positions are wrapped into [0, 360)."""
    t, (theta,) = read_log_csv(path, NACELLE_HEADER)
    return NacelleLog(t, wrap_to_360(theta))


def save_nacelle_log(log: NacelleLog, path) -> None:
    write_csv_columns(path, NACELLE_HEADER, log.t, log.theta)


def replay_cyca_l(series: WindSeries, log: NacelleLog, tp: TurbineParams,
                  cycle_period: float = 10.0) -> CycleTrace:
    """Reconstruct a per-cycle trace from recorded nacelle positions.

    The log must cover exactly the same 1 s time range as the wind series.
    Power is computed like everywhere else, but reports should not quote it for
    replayed runs: recorded positions also reflect outside interference the
    simulation does not model.
    """
    if len(log) != len(series) or not np.array_equal(log.t, series.t):
        raise ValueError(
            f"time-range mismatch between wind series ({len(series)} samples from t={series.t[0]}) "
            f"and nacelle log ({len(log)} samples from t={log.t[0]})"
        )
    p = whole_number("cycle_period", cycle_period, "seconds")
    return _resample_to_cycles(series, log.theta, tp, p, theta_prev=float(log.theta[0]))


def calibrate_threshold(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, init_theta: float, thresholds,
                        target_pct: float = 2.0, cycle_period: float = 10.0) -> tuple[float, list[float]]:
    """Grid-search the accumulator threshold for a time-spent-yawing target.

    Returns the threshold whose usage lands closest to ``target_pct`` (ties go
    to the smaller threshold) along with the usage measured for each candidate.
    A ``target_pct`` outside [0, 100] (NaN and inf included) raises ValueError.

    A usage is scored from the simulated end-of-cycle headings alone, the
    ``theta`` that ``run_cyca_s``'s trace holds; no trace is built.
    """
    if not 0.0 <= target_pct <= 100.0:  # False for NaN too
        raise ValueError(f"target_pct must be a finite percentage in [0, 100], got {target_pct}")
    grid = [float(x) for x in thresholds]
    if not grid:
        raise ValueError("empty calibration grid")
    p = whole_number("cycle_period", cycle_period, "seconds")
    theta0 = wrap_to_360(float(init_theta))
    usages = []
    for thr in grid:
        theta_sec = _simulate(series, replace(cfg, threshold=thr), tp, theta0)[0]
        usages.append(float(100.0 * np.mean(cycle_deltas(_cycle_ends(theta_sec, p)) > 0.0)))
    best = min(range(len(grid)), key=lambda i: (abs(usages[i] - target_pct), grid[i]))
    return grid[best], usages
