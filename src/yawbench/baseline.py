"""Conventional yaw control: a simulated cumulative-error threshold controller
and a replay baseline reconstructed from recorded nacelle positions.

The simulated controller ticks once per 1 s wind sample: it integrates
|yaw error| over time while idle, and once the accumulator crosses the
threshold it turns toward the mean wind direction of a short trailing window,
at the fixed yaw rate, until within a deadband of that target. The accumulator
resets when an actuation is armed and does not accrue while yawing. Results
are resampled onto the control-cycle grid used by every other controller.

The simulation is event-driven: an idle heading is fixed, so an idle spell is
scanned by a fixed few array calls and only turns step through a scalar loop
(see ``_simulate``), bit for bit as a loop over every tick would. The idle
``minimum(w, 360 - w)``, with ``w = mod(phi - theta, 360)``, equals
``abs(wrap_angle(phi - theta))``: ``w = 360`` gives 0, and for ``w > 180``
``360 - w`` is exact (Sterbenz's lemma). ``np.cumsum`` adds in sequence from
the carried accumulator, Python's float ``%`` rounds as ``np.mod`` does, and
the turn target divides sin and cos sums by the window length, as ``np.mean``
in ``circular_mean_deg`` does.

Threshold calibration scores each candidate from its simulated end-of-cycle
headings alone, without building the cycle trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .env import CYCLE_PERIOD_S, CycleTrace, cycle_stats
from .metrics import cycle_deltas
from .power import TurbineParams, power_with_misalignment, real_number, whole_number, wrap_angle, wrap_to_360, yaw_error
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
    target_window: int = 30       # seconds of trailing wind-direction averaging
    stop_deadband: float = 1.0    # deg; stop turning once within this of the target

    def __post_init__(self):
        for name in ("threshold", "stop_deadband"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        object.__setattr__(self, "target_window", whole_number("target_window", self.target_window, "seconds"))
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.stop_deadband < 0:
            raise ValueError(f"stop_deadband must be >= 0, got {self.stop_deadband}")


def run_cyca_s(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, init_theta: float,
               return_inner: bool = False):
    """Simulate the threshold controller over ``series``.

    Returns the per-cycle trace; with ``return_inner=True`` also a dict of
    per-second arrays (theta, accumulator, yawing flag) for inspection.
    """
    theta0 = wrap_to_360(real_number("init_theta", init_theta))
    theta_sec, acc_sec, yawing_sec = _simulate(series, cfg, tp, theta0)
    trace = _resample_to_cycles(series, theta_sec, tp, theta_prev=theta0)
    if return_inner:
        return trace, {"t": series.t.copy(), "theta": theta_sec, "acc": acc_sec, "yawing": yawing_sec}
    return trace


def _simulate(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, theta0: float):
    """Per-second heading, accumulator and yawing flag of the controller from heading ``theta0``.

    An idle scan of any length is eight array calls into the output rows: ``w``,
    ``360 - w`` (into ``theta_sec`` until the heading fill), their minimum, the
    carried accumulator, ``cumsum`` and ``searchsorted``. An event adds about ten:
    the window target, and the turn stepped on Python floats and stored at once.
    """
    phi, n = series.phi, len(series)
    if not np.isfinite(phi).all():  # the caller may have written into the array since construction
        raise ValueError("wind direction must be finite")
    window, thr, step_max = cfg.target_window, cfg.threshold, tp.yaw_rate_deg_s
    stop_at = max(cfg.stop_deadband, _STOP_FLOOR_DEG)

    theta_sec = np.empty(n)
    acc_sec = np.zeros(n)  # zero on every tick from a trigger to the end of its turn
    yawing_sec = np.zeros(n, dtype=bool)
    theta, acc, i, span = theta0, 0.0, 0, _SCAN_TICKS
    while i < n:
        hi = min(i + span, n)
        run, other = acc_sec[i:hi], theta_sec[i:hi]
        np.subtract(phi[i:hi], theta, out=run)
        np.mod(run, 360.0, out=run)
        np.minimum(run, np.subtract(360.0, run, out=other), out=run)
        run[0] += acc
        run.cumsum(out=run)
        hit = i + int(run.searchsorted(thr))
        other.fill(theta)  # ticks past a trigger are written again by the turn or a later scan
        if hit == hi:
            acc, i, span = float(run[-1]), hi, 2 * span
            continue
        # Arm a turn toward the trailing-window mean; motion starts on the next tick.
        acc_sec[hit:hi] = 0.0
        rad = np.deg2rad(phi[max(0, hit - window + 1) : hit + 1])
        m = len(rad)
        target = math.degrees(math.atan2(float(np.sin(rad).sum()) / m, float(np.cos(rad).sum()) / m)) % 360.0
        if target >= 360.0:
            target = 0.0
        k, path = hit + 1, []
        w = (target - theta) % 360.0
        rem = w - 360.0 if w > 180.0 else w
        for _ in range(n - k):
            a = abs(rem)
            if a <= stop_at:
                break
            theta = (theta + math.copysign(a if a < step_max else step_max, rem)) % 360.0
            if theta >= 360.0:
                theta = 0.0
            path.append(theta)
            w = (target - theta) % 360.0
            rem = w - 360.0 if w > 180.0 else w
        if not path and k < n:
            path = [theta]  # already within the deadband: the turn ends on its first tick, unmoved
        i = k + len(path)
        theta_sec[k:i] = path
        yawing_sec[hit : i - (i > k and abs(rem) <= stop_at)] = True  # a turn's last tick is idle again
        acc, span = 0.0, _SCAN_TICKS
    return theta_sec, acc_sec, yawing_sec


def _cycle_ends(theta_sec: np.ndarray) -> np.ndarray:
    """The end-of-cycle headings of a per-second trajectory, one per full control cycle (a view)."""
    p = CYCLE_PERIOD_S
    count = len(theta_sec) // p
    if count == 0:
        raise ValueError(f"series of {len(theta_sec)} samples holds no full {p} s cycle")
    return theta_sec[p - 1 : count * p : p]


def _resample_to_cycles(series: WindSeries, theta_sec: np.ndarray, tp: TurbineParams,
                        theta_prev: float) -> CycleTrace:
    """Collapse a per-second nacelle trajectory onto the control-cycle grid.

    The nacelle position reported for a cycle is its end-of-cycle value; the
    applied action is derived from the net rotation over the cycle.
    """
    theta = _cycle_ends(theta_sec).copy()
    count = len(theta)
    phi, v = cycle_stats(series)
    gamma = yaw_error(phi, theta)
    delta = wrap_angle(np.diff(theta, prepend=theta_prev))
    action = np.where(delta > 1e-12, 2, np.where(delta < -1e-12, 0, 1))
    return CycleTrace(
        cycle=np.arange(count),
        t_s=series.t[: count * CYCLE_PERIOD_S : CYCLE_PERIOD_S],
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


def replay_cyca_l(series: WindSeries, log: NacelleLog, tp: TurbineParams) -> CycleTrace:
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
    return _resample_to_cycles(series, log.theta, tp, theta_prev=float(log.theta[0]))


def calibrate_threshold(series: WindSeries, cfg: CycaConfig, tp: TurbineParams, init_theta: float, thresholds,
                        target_pct: float = 2.0) -> tuple[float, list[float]]:
    """Grid-search the accumulator threshold for a time-spent-yawing target.

    Returns the threshold whose usage lands closest to ``target_pct`` (ties go
    to the smaller threshold) along with the usage measured for each candidate.
    A ``target_pct`` outside [0, 100] (NaN and inf included) raises ValueError.

    A usage is scored from the simulated end-of-cycle headings alone, the
    ``theta`` that ``run_cyca_s``'s trace holds; no trace is built.
    """
    if not 0.0 <= target_pct <= 100.0:  # False for NaN too
        raise ValueError(f"target_pct must be a finite percentage in [0, 100], got {target_pct}")
    grid = [real_number(f"thresholds[{i}]", x) for i, x in enumerate(thresholds)]
    if not grid:
        raise ValueError("empty calibration grid")
    theta0 = wrap_to_360(real_number("init_theta", init_theta))
    usages = []
    for thr in grid:
        theta_sec = _simulate(series, replace(cfg, threshold=thr), tp, theta0)[0]
        usages.append(float(100.0 * np.mean(cycle_deltas(_cycle_ends(theta_sec)) > 0.0)))
    best = min(range(len(grid)), key=lambda i: (abs(usages[i] - target_pct), grid[i]))
    return grid[best], usages
