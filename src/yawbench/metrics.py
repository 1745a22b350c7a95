"""Benchmark metrics over per-cycle traces: alignment quality, produced energy,
yaw usage, yaw-drive consumption, and candidate-vs-baseline comparisons.

Rotation per cycle is recovered from consecutive nacelle positions on the
cycle grid; the first traced cycle contributes no rotation. A "moving" cycle
is one with nonzero rotation, and one yaw actuation is a maximal run of
consecutive moving cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import CycleTrace, EnvConfig
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

    def to_dict(self) -> dict:
        return {
            "avg_yaw_error_deg": self.avg_yaw_error_deg,
            "energy_kwh": self.energy_kwh,
            "angle_covered_deg": self.angle_covered_deg,
            "yaw_count": self.yaw_count,
            "time_yawing_pct": self.time_yawing_pct,
            "yaw_consumption_kwh": self.yaw_consumption_kwh,
            "n_cycles": self.n_cycles,
            "horizon_s": self.horizon_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(**d)


def compute_metrics(trace: CycleTrace, tp: TurbineParams, cfg: EnvConfig) -> MetricsReport:
    """Aggregate one trace into the benchmark metrics."""
    if len(trace) == 0:
        raise ValueError("cannot compute metrics over an empty trace")
    p = cfg.cycle_period
    deltas = cycle_deltas(trace.theta)
    moving = deltas > 0.0
    starts = int(np.sum(np.diff(np.concatenate([[0], moving.astype(np.int64)])) == 1))
    return MetricsReport(
        avg_yaw_error_deg=float(np.mean(np.abs(trace.gamma))),
        energy_kwh=float(np.sum(trace.power_kw) * p / 3600.0),
        angle_covered_deg=float(np.sum(deltas)),
        yaw_count=starts,
        time_yawing_pct=float(100.0 * np.mean(moving)),
        yaw_consumption_kwh=float(np.sum(deltas) / tp.yaw_rate_deg_s * tp.p_yaw_drive_kw / 3600.0),
        n_cycles=len(trace),
        horizon_s=float(len(trace) * p),
    )


def yaw_consumption_delta(
    trace_candidate: CycleTrace,
    trace_baseline: CycleTrace,
    tp: TurbineParams,
) -> tuple[np.ndarray, float]:
    """Per-cycle difference in yaw-drive energy use, candidate minus baseline.

    delta(t) = (rot_candidate(t) - rot_baseline(t)) / yaw_rate * p_yaw_drive,
    converted to kWh: the rotation-over-rate term is seconds of drive run time.
    Negative entries are consumption credits for the candidate.
    """
    if len(trace_candidate) != len(trace_baseline) or not np.array_equal(
        trace_candidate.cycle, trace_baseline.cycle
    ):
        raise ValueError("traces are not on the same cycle grid")
    d_c = cycle_deltas(trace_candidate.theta)
    d_b = cycle_deltas(trace_baseline.theta)
    delta = (d_c - d_b) / tp.yaw_rate_deg_s * tp.p_yaw_drive_kw / 3600.0
    return delta, float(np.sum(delta))


@dataclass(frozen=True, eq=False)
class Comparison:
    yaw_error_decrease_pct: float
    energy_gain_pct: float
    net_energy_gain_pct: float
    yaw_consumption_delta_kwh: float
    delta_series_kwh: np.ndarray | None = None

    def to_dict(self, include_series: bool = False) -> dict:
        d = {
            "yaw_error_decrease_pct": self.yaw_error_decrease_pct,
            "energy_gain_pct": self.energy_gain_pct,
            "net_energy_gain_pct": self.net_energy_gain_pct,
            "yaw_consumption_delta_kwh": self.yaw_consumption_delta_kwh,
        }
        if include_series and self.delta_series_kwh is not None:
            d["delta_series_kwh"] = [float(x) for x in self.delta_series_kwh]
        return d


def compare(
    report_candidate: MetricsReport,
    report_baseline: MetricsReport,
    delta_total_kwh: float,
    delta_series_kwh: np.ndarray | None = None,
) -> Comparison:
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
    """Restrict two traces to their common cycle range (both must cover it)."""
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

    return cut(a), cut(b)


# Presentation order of the side-by-side metrics table.
_TABLE_ROWS = (
    ("average yaw error (deg)", "avg_yaw_error_deg", "{:.2f}"),
    ("power output (kWh)", "energy_kwh", "{:.1f}"),
    ("angle covered (deg)", "angle_covered_deg", "{:.1f}"),
    ("yaw count", "yaw_count", "{:d}"),
    ("time spent yawing (%)", "time_yawing_pct", "{:.1f}"),
    ("yaw consumption (kWh)", "yaw_consumption_kwh", "{:.2f}"),
)


def _metric_cell(report: MetricsReport, key: str, fmt: str, blank_energy: bool) -> str:
    if blank_energy and key == "energy_kwh":
        return "-"
    value = getattr(report, key)
    return fmt.format(value)


def render_metrics_table(reports: dict[str, MetricsReport], omit_energy: set[str] | frozenset = frozenset()) -> str:
    """Aligned text table, one column per controller. Entries in ``omit_energy``
    leave the energy cell blank (replayed logs carry external interference)."""
    labels = list(reports)
    header = ["metric"] + labels
    rows = [header]
    for title, key, fmt in _TABLE_ROWS:
        rows.append(
            [title] + [_metric_cell(reports[lb], key, fmt, lb in omit_energy) for lb in labels]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def metrics_table_csv(reports: dict[str, MetricsReport], omit_energy: set[str] | frozenset = frozenset()) -> str:
    labels = list(reports)
    lines = ["metric," + ",".join(labels)]
    for title, key, fmt in _TABLE_ROWS:
        cells = [_metric_cell(reports[lb], key, fmt, lb in omit_energy) for lb in labels]
        lines.append(f"{title}," + ",".join(cells))
    return "\n".join(lines) + "\n"


_COMPARISON_ROWS = (
    ("average yaw error decrease (%)", "yaw_error_decrease_pct", "{:.1f}"),
    ("energy gain (%)", "energy_gain_pct", "{:.2f}"),
    ("net energy gain (%)", "net_energy_gain_pct", "{:.2f}"),
    ("yaw consumption delta (kWh)", "yaw_consumption_delta_kwh", "{:.3f}"),
)


def render_comparison_table(comparisons: dict[str, Comparison]) -> str:
    """Aligned text table of candidate-vs-baseline percentages, one column per run."""
    labels = list(comparisons)
    header = ["metric"] + labels
    rows = [header]
    for title, key, fmt in _COMPARISON_ROWS:
        rows.append([title] + [fmt.format(getattr(comparisons[lb], key)) for lb in labels])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def comparison_table_csv(comparisons: dict[str, Comparison]) -> str:
    labels = list(comparisons)
    lines = ["metric," + ",".join(labels)]
    for title, key, fmt in _COMPARISON_ROWS:
        lines.append(f"{title}," + ",".join(fmt.format(getattr(comparisons[lb], key)) for lb in labels))
    return "\n".join(lines) + "\n"
