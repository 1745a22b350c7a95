"""Reference implementations of the threshold baseline, kept for differential tests.

``run_cyca_s`` visits every 1 s controller tick in a Python loop and
``resample_to_cycles`` builds the cycle trace one record at a time. They are
the plain statements of the semantics that ``yawbench.baseline`` reproduces
with an event-driven schedule and one vectorised cycle aggregation; the
library's outputs must equal theirs bit for bit. ``calibrate_threshold``
scores each candidate from a whole cycle trace, where the library reads the
simulated headings alone.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import yawbench
from env_reference import trace_from_records
from power_reference import power_with_misalignment, wrap_angle, wrap_to_360, yaw_error
from yawbench import circular_mean_deg, run_cyca_s as run_cyca_s_lib
from yawbench.env import CYCLE_PERIOD_S

_STOP_FLOOR_DEG = 1e-9


def run_cyca_s(series, cfg, tp, init_theta, return_inner=False):
    """Per-tick simulation of the cumulative-error threshold controller."""
    n = len(series)
    window = int(cfg.target_window)
    rate = tp.yaw_rate_deg_s
    theta = wrap_to_360(float(init_theta))

    theta_sec = np.empty(n)
    acc_sec = np.empty(n)
    yawing_sec = np.zeros(n, dtype=bool)

    acc = 0.0
    yawing = False
    target = 0.0
    for tick in range(n):
        if yawing:
            rem = yaw_error(target, theta)
            stop_at = max(cfg.stop_deadband, _STOP_FLOOR_DEG)
            if abs(rem) <= stop_at:
                yawing = False
            else:
                step = math.copysign(min(rate, abs(rem)), rem)
                theta = wrap_to_360(theta + step)
                if abs(yaw_error(target, theta)) <= stop_at:
                    yawing = False
        else:
            gamma = yaw_error(series.phi[tick], theta)
            acc += abs(gamma)
            if acc >= cfg.threshold:
                lo = max(0, tick - window + 1)
                target = circular_mean_deg(series.phi[lo : tick + 1])
                acc = 0.0
                yawing = True  # motion starts on the next tick
        theta_sec[tick] = theta
        acc_sec[tick] = acc
        yawing_sec[tick] = yawing

    trace = resample_to_cycles(series, theta_sec, tp, theta_prev=wrap_to_360(float(init_theta)))
    if return_inner:
        return trace, {"t": series.t.copy(), "theta": theta_sec, "acc": acc_sec, "yawing": yawing_sec}
    return trace


def resample_to_cycles(series, theta_sec, tp, theta_prev):
    """Per-cycle collapse of a per-second nacelle trajectory onto the cycle grid."""
    p = CYCLE_PERIOD_S
    count = len(series) // p
    records = []
    for c in range(count):
        lo, hi = c * p, (c + 1) * p
        phi_c = circular_mean_deg(series.phi[lo:hi])
        v_c = float(np.mean(series.v[lo:hi]))
        theta_end = float(theta_sec[hi - 1])
        gamma = yaw_error(phi_c, theta_end)
        delta = wrap_angle(theta_end - theta_prev)
        if delta > 1e-12:
            action = 2
        elif delta < -1e-12:
            action = 0
        else:
            action = 1
        records.append(
            {
                "cycle": c,
                "t_s": float(series.t[lo]),
                "phi": phi_c,
                "v": v_c,
                "theta": theta_end,
                "gamma": gamma,
                "action_issued": action,
                "action_applied": action,
                "power_kw": power_with_misalignment(v_c, gamma, tp),
                "r1": 0.0,
                "r2": 0.0,
            }
        )
        theta_prev = theta_end
    return trace_from_records(records)


def replay_cyca_l(series, log, tp):
    """Reference replay: the per-cycle resample of the recorded headings."""
    return resample_to_cycles(series, log.theta, tp, theta_prev=float(log.theta[0]))


def calibrate_threshold(series, cfg, tp, init_theta, thresholds, target_pct=2.0):
    """Grid search that scores each threshold from the full cycle trace of
    ``yawbench.run_cyca_s``: its share of cycles that moved, and ties going to
    the smaller threshold."""
    grid = [float(x) for x in thresholds]
    usages = []
    for thr in grid:
        trace = run_cyca_s_lib(series, replace(cfg, threshold=thr), tp, init_theta)
        moving = np.concatenate([[False], np.abs(yawbench.wrap_angle(np.diff(trace.theta))) > 0])
        usages.append(float(100.0 * np.mean(moving)))
    best = 0
    for i in range(1, len(grid)):
        gap, best_gap = abs(usages[i] - target_pct), abs(usages[best] - target_pct)
        if gap < best_gap or (gap == best_gap and grid[i] < grid[best]):
            best = i
    return grid[best], usages
