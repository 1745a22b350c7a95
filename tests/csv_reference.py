"""Reference CSV readers and writer, kept for differential tests.

``read_log_csv`` parses a log one row at a time, ``trace_from_csv`` is the
former hand-rolled ``CycleTrace.from_csv`` and ``write_csv_columns`` joins
one row at a time. ``yawbench.wind`` reads with one ``np.loadtxt`` pass and
writes a block per column; on every file these accept, the arrays must be
equal byte for byte, and a malformed wind or nacelle log must raise the same
exception with the same message.
"""

from __future__ import annotations

import csv
import math
from array import array
from pathlib import Path

import numpy as np

from yawbench.env import TRACE_COLUMNS, CycleTrace
from yawbench.wind import WindDataError

_TRACE_INT_COLUMNS = {"cycle", "action_issued", "action_applied"}


def read_log_csv(path, header, nonnegative=None):
    """Timestamps and each float column (a contiguous array) of a 1 s log CSV."""
    neg_col = header.index(nonnegative[0]) - 1 if nonnegative else None
    ts, values = array("q"), array("d")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        head = next(reader, None)
        if head is None or tuple(s.strip() for s in head) != header:
            raise WindDataError(f"{path}: expected header {','.join(header)!r}, got {head!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise WindDataError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                t_raw, *vals = map(float, row)
            except ValueError as exc:
                raise WindDataError(f"{path}: line {lineno}: could not parse row: {exc}") from exc
            if not t_raw.is_integer():
                raise WindDataError(f"{path}: line {lineno}: timestamp must be an integer second")
            if not all(map(math.isfinite, vals)):
                raise WindDataError(f"{path}: line {lineno}: non-finite value")
            if neg_col is not None and vals[neg_col] < 0:
                raise WindDataError(f"{path}: line {lineno}: negative {nonnegative[1]}={vals[neg_col]}")
            ts.append(int(t_raw))
            values.extend(vals)
    return np.array(ts, dtype=np.int64), *np.frombuffer(values).reshape(len(ts), len(header) - 1).T.copy()


def trace_from_csv(path) -> CycleTrace:
    """Read a ``CycleTrace.to_csv`` file one row at a time."""
    path = Path(path)
    parsers = [int if name in _TRACE_INT_COLUMNS else float for name in TRACE_COLUMNS]
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(parsers):
                    raise ValueError(f"expected {len(parsers)} fields, got {len(row)}")
                rows.append([parse(cell) for parse, cell in zip(parsers, row)])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    cols = list(zip(*rows)) or [()] * len(TRACE_COLUMNS)
    return CycleTrace(**{name: np.array(vals) for name, vals in zip(TRACE_COLUMNS, cols)})


def write_csv_columns(path, header, *cols) -> None:
    """Write equal-length columns under ``header``, joining one row at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(cols[0]), 256):
            for row in zip(*(c[lo : lo + 256].tolist() for c in cols)):
                f.write(",".join(map(repr, row)) + "\n")
