"""The four table renderers as they were before ``metrics._render`` replaced them.

Kept as the reference of the differential test in ``test_codecs.py``: the
package's renderers must reproduce these byte for byte. The row specs are
the package's own, so only the rendering is compared.
"""

from yawbench.metrics import _COMPARISON_ROWS, _TABLE_ROWS, Comparison, MetricsReport


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
