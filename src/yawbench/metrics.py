"""Benchmark metrics over per-cycle traces: alignment quality, produced energy,
yaw usage, yaw-drive consumption, and candidate-vs-baseline comparisons.

Rotation per cycle is recovered from consecutive nacelle positions on the
cycle grid; the first traced cycle contributes no rotation. A "moving" cycle
is one with nonzero rotation, and one yaw actuation is a maximal run of
consecutive moving cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .env import CYCLE_PERIOD_S, CycleTrace, EnvConfig
from .power import TurbineParams, wrap_angle


def cycle_deltas(theta: np.ndarray) -> np.ndarray:
    """|rotation| per cycle from end-of-cycle nacelle positions (first cycle 0)."""
    if len(theta) == 0:
        return np.zeros(0)
    d = np.abs(wrap_angle(np.diff(np.asarray(theta, dtype=float))))
    return np.concatenate([[0.0], d]) if len(theta) > 1 else np.zeros(1)


@dataclass(frozen=True)
class MetricsReport:
    avg_yaw_error_deg: float
    energy_kwh: float
    angle_covered_deg: float
    yaw_count: int
    time_yawing_pct: float
    yaw_consumption_kwh: float
    n_cycles: int
    horizon_s: float

    to_dict = asdict


def _drive_kwh(rotation_deg, tp: TurbineParams):
    """Yaw-drive energy (kWh) of a rotation: its run time at the yaw rate times the drive power."""
    return rotation_deg / tp.yaw_rate_deg_s * tp.p_yaw_drive_kw / 3600.0


def compute_metrics(trace: CycleTrace, tp: TurbineParams, cfg: EnvConfig) -> MetricsReport:
    """Aggregate one trace into the benchmark metrics; ``tp`` must equal ``cfg.turbine``
    and the trace's cycles must be ``CYCLE_PERIOD_S`` apart (a CSV trace may not be)."""
    if tp != cfg.turbine:
        raise ValueError(f"turbine parameters {tp} differ from the env config's {cfg.turbine}")
    if len(trace) == 0:
        raise ValueError("cannot compute metrics over an empty trace")
    p = CYCLE_PERIOD_S
    steps = np.diff(trace.t_s)
    if np.any(steps != p):
        raise ValueError(f"trace cycles are {steps[steps != p][0]:g} s apart but the control cycle is {p} s")
    deltas = cycle_deltas(trace.theta)
    moving = deltas > 0.0
    starts = int(np.sum(np.diff(np.concatenate([[0], moving.astype(np.int64)])) == 1))
    return MetricsReport(
        avg_yaw_error_deg=float(np.mean(np.abs(trace.gamma))),
        energy_kwh=float(np.sum(trace.power_kw) * p / 3600.0),
        angle_covered_deg=float(np.sum(deltas)),
        yaw_count=starts,
        time_yawing_pct=float(100.0 * np.mean(moving)),
        yaw_consumption_kwh=float(_drive_kwh(np.sum(deltas), tp)),
        n_cycles=len(trace),
        horizon_s=float(len(trace) * p),
    )


def _check_same_grid(a: CycleTrace, b: CycleTrace) -> None:
    """Raise ValueError unless both traces hold the same cycles at the same ``t_s``."""
    if len(a) != len(b) or not np.array_equal(a.cycle, b.cycle):
        raise ValueError("traces are not on the same cycle grid")
    if not np.array_equal(a.t_s, b.t_s):
        i = int(np.argmax(a.t_s != b.t_s))
        raise ValueError(f"traces are on different time grids: cycle {a.cycle[i]} at t_s {a.t_s[i]} and {b.t_s[i]}")


def yaw_consumption_delta(trace_candidate: CycleTrace, trace_baseline: CycleTrace,
                          tp: TurbineParams) -> tuple[np.ndarray, float]:
    """Per-cycle difference in yaw-drive energy use, candidate minus baseline.

    delta(t) = (rot_candidate(t) - rot_baseline(t)) / yaw_rate * p_yaw_drive,
    converted to kWh: the rotation-over-rate term is seconds of drive run time.
    Negative entries are consumption credits for the candidate. Both traces
    must hold the same cycles at the same times (``t_s``).
    """
    _check_same_grid(trace_candidate, trace_baseline)
    d_c = cycle_deltas(trace_candidate.theta)
    d_b = cycle_deltas(trace_baseline.theta)
    delta = _drive_kwh(d_c - d_b, tp)
    return delta, float(np.sum(delta))


@dataclass(frozen=True)
class Comparison:
    yaw_error_decrease_pct: float
    energy_gain_pct: float
    net_energy_gain_pct: float
    yaw_consumption_delta_kwh: float
    delta_series_kwh: np.ndarray | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        """The four headline figures; the per-cycle series is left out."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def compare(report_candidate: MetricsReport, report_baseline: MetricsReport, delta_total_kwh: float,
            delta_series_kwh: np.ndarray | None = None) -> Comparison:
    """Headline percentages of a candidate run against a baseline run.

    net gain satisfies net% = gross% - 100 * delta_total / E_baseline exactly.
    """
    e_b = report_baseline.energy_kwh
    if e_b == 0.0:
        raise ValueError("undefined ratio: baseline energy is zero")
    err_b = report_baseline.avg_yaw_error_deg
    if err_b == 0.0:
        raise ValueError("undefined ratio: baseline average yaw error is zero")
    e_c = report_candidate.energy_kwh
    return Comparison(
        yaw_error_decrease_pct=100.0 * (err_b - report_candidate.avg_yaw_error_deg) / err_b,
        energy_gain_pct=100.0 * (e_c - e_b) / e_b,
        net_energy_gain_pct=100.0 * (e_c - e_b - delta_total_kwh) / e_b,
        yaw_consumption_delta_kwh=float(delta_total_kwh),
        delta_series_kwh=delta_series_kwh,
    )


def align_traces(a: CycleTrace, b: CycleTrace) -> tuple[CycleTrace, CycleTrace]:
    """Restrict two traces to their common cycle range (both must cover it,
    each cycle at the same ``t_s``)."""
    if not (len(a) and len(b)):
        raise ValueError(f"cannot align an empty trace: lengths {len(a)} and {len(b)}")
    lo = max(int(a.cycle[0]), int(b.cycle[0]))
    hi = min(int(a.cycle[-1]), int(b.cycle[-1]))
    if lo > hi:
        raise ValueError("traces share no cycles")

    def cut(tr: CycleTrace) -> CycleTrace:
        i0 = int(np.searchsorted(tr.cycle, lo))
        i1 = int(np.searchsorted(tr.cycle, hi, side="right"))
        out = tr.slice(i0, i1)
        if int(out.cycle[0]) != lo or int(out.cycle[-1]) != hi or len(out) != hi - lo + 1:
            raise ValueError("trace does not cover the common cycle range contiguously")
        return out

    cut_a, cut_b = cut(a), cut(b)
    _check_same_grid(cut_a, cut_b)
    return cut_a, cut_b


# Presentation order of the side-by-side metrics table.
_TABLE_ROWS = (
    ("average yaw error (deg)", "avg_yaw_error_deg", "{:.2f}"),
    ("power output (kWh)", "energy_kwh", "{:.1f}"),
    ("angle covered (deg)", "angle_covered_deg", "{:.1f}"),
    ("yaw count", "yaw_count", "{:d}"),
    ("time spent yawing (%)", "time_yawing_pct", "{:.1f}"),
    ("yaw consumption (kWh)", "yaw_consumption_kwh", "{:.2f}"),
)

_COMPARISON_ROWS = (
    ("average yaw error decrease (%)", "yaw_error_decrease_pct", "{:.1f}"),
    ("energy gain (%)", "energy_gain_pct", "{:.2f}"),
    ("net energy gain (%)", "net_energy_gain_pct", "{:.2f}"),
    ("yaw consumption delta (kWh)", "yaw_consumption_delta_kwh", "{:.3f}"),
)


def _render(rows, columns: dict, sep: str, blank=frozenset()) -> str:
    """One line per ``(title, key, fmt)`` row under a ``metric`` header, one cell
    per column; a ``(label, key)`` cell in ``blank`` reads "-". With the
    two-space separator the cells are padded into aligned columns; a CSV
    label holding a comma, quote or line break raises ValueError."""
    labels = list(columns)
    for lb in labels if sep == "," else ():
        if set(lb) & set(',"\r\n'):
            raise ValueError(f"CSV table label {lb!r} holds a comma, quote or line break")
    table = [["metric", *labels]] + [
        [title] + ["-" if (lb, key) in blank else fmt.format(getattr(columns[lb], key)) for lb in labels]
        for title, key, fmt in rows
    ]
    if sep == ",":
        return "".join(",".join(r) + "\n" for r in table)
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    return "".join(sep.join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n" for r in table)


def render_metrics_table(reports: dict[str, MetricsReport], omit_energy: set[str] | frozenset = frozenset()) -> str:
    """Aligned text table, one column per controller. Entries in ``omit_energy``
    leave the energy cell blank (replayed logs carry external interference)."""
    return _render(_TABLE_ROWS, reports, "  ", {(lb, "energy_kwh") for lb in omit_energy})


def metrics_table_csv(reports: dict[str, MetricsReport], omit_energy: set[str] | frozenset = frozenset()) -> str:
    return _render(_TABLE_ROWS, reports, ",", {(lb, "energy_kwh") for lb in omit_energy})


def render_comparison_table(comparisons: dict[str, Comparison]) -> str:
    """Aligned text table of candidate-vs-baseline percentages, one column per run."""
    return _render(_COMPARISON_ROWS, comparisons, "  ")


def comparison_table_csv(comparisons: dict[str, Comparison]) -> str:
    return _render(_COMPARISON_ROWS, comparisons, ",")
