"""Wind time series: log ingestion, train/test splitting, speed standardization,
and statistically matched synthetic generation.

Series are 1-second samples of wind direction (degrees, [0, 360)) and wind
speed (m/s, >= 0). The synthetic generator superimposes a mean-reverting
direction process on deterministic ramp events and matches the requested mean
and standard deviation of the realized series exactly; its AR(1) loop runs
on Python floats.

``Columns`` is the base of the column records: ``WindSeries`` here, the
nacelle log and the cycle trace. A field annotated ``Ints`` holds int64 and any
other float64, and the base gives the check, length, ``slice`` and ``equals``.

Logs are CSV files with one header line. ``read_log_csv`` parses a whole
file in one ``np.loadtxt`` pass and checks the arrays; only a file that pass
rejects is re-read row by row, which names the first bad line in a
WindDataError. Either way the arrays are those ``float()``/``int()`` give.
``write_csv_columns`` formats a run of equal values once per block of rows,
and every other value with ``repr``.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import fields
from itertools import chain, repeat
from pathlib import Path
from typing import Collection, NamedTuple, NewType

import numpy as np

from .power import Record, check_fields, real_number, seed_number, wrap_to_360

CSV_HEADER = ("t", "phi_deg", "v_ms")


class WindDataError(ValueError):
    """Malformed, inconsistent, or degenerate wind data."""


Ints = NewType("Ints", np.ndarray)  # the annotation of an int64 column of a ``Columns`` record


class Columns(Record):
    """Base of the column records: each field becomes a read-only 1-d view, int64 if annotated
    ``Ints`` and float64 otherwise; the caller's array keeps its flags. A column that is not 1-d, not
    as long as the first, or int64 but holding a value not whole or out of the int64 range raises
    WindDataError naming the class and the column. The instance holds only its columns, in order;
    it equals only itself, and a copy or an unpickled record goes back through these checks."""

    __eq__, __hash__ = object.__eq__, object.__hash__
    _ints = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._ints = tuple(f.name for f in fields(cls) if getattr(f.type, "__name__", f.type) == "Ints")

    def __post_init__(self):
        kind, ints, first = type(self).__name__, self._ints, None
        for name in self._names:
            col, bad = np.asarray(getattr(self, name)), None
            if name in ints and col.dtype == np.uint64:  # the cast would wrap values >= 2**63
                bad = col > np.iinfo(np.int64).max
            elif name in ints and col.dtype.kind not in "iub":
                x = col.astype(np.float64)
                bad = ~((np.abs(x) < 2.0**63) & (x == np.trunc(x)))
            if bad is not None and bad.any():
                raise WindDataError(f"{kind} column {name!r} must hold whole numbers, got {col[bad][0]}")
            arr = col.astype(np.int64 if name in ints else np.float64, copy=False).view()
            if arr.ndim != 1:
                raise WindDataError(f"{kind} column {name!r} must be 1-d, got shape {arr.shape}")
            if first is None:
                first, n = name, len(arr)
            elif len(arr) != n:
                raise WindDataError(f"{kind} column {name!r} holds {len(arr)} values but column {first!r} holds {n}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def int_columns(cls) -> tuple[str, ...]:
        """The fields annotated ``Ints``, read as a name with or without postponed annotations."""
        return cls._ints

    def __reduce__(self):
        return type(self), tuple(vars(self).values())

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))  # the first column

    def slice(self, start: int, stop: int | None = None):
        """Rows ``start:stop`` as a record of the same class that owns copies of its columns."""
        return type(self)(**{name: col[start:stop].copy() for name, col in vars(self).items()})

    def equals(self, other) -> bool:
        return all(np.array_equal(col, getattr(other, name)) for name, col in vars(self).items())


def check_log(log, min_len: int, angle: np.ndarray, what: str) -> None:
    """The checks shared by the 1 s logs: at least ``min_len`` samples,
    timestamps one second apart, and ``angle`` (``what``) finite and in [0, 360)."""
    if len(log.t) < min_len:
        raise WindDataError(f"{type(log).__name__} too short: {len(log.t)} samples")
    gaps = np.diff(log.t)
    if np.any(gaps != 1):
        raise WindDataError(f"non-uniform spacing at t={int(log.t[1:][gaps != 1][0])}")
    if not np.all(np.isfinite(angle)) or np.any(angle < 0.0) or np.any(angle >= 360.0):
        raise WindDataError(f"{what} must be finite and in [0, 360)")


class WindSeries(Columns):
    """Uniform 1 s wind log. Immutable after construction."""

    t: Ints
    phi: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        check_log(self, 1, self.phi, "wind direction")
        if not np.all(np.isfinite(self.v)) or np.any(self.v < 0.0):
            raise WindDataError("wind speed must be finite and >= 0")


def read_log_csv(
    path, header: tuple[str, ...], nonnegative: tuple[str, str] | None = None, ints: Collection[str] = ()
):
    """The columns of a log CSV under ``header``, as a tuple of arrays.

    The first column holds whole-number timestamps and comes back as int64.
    Columns named in ``ints`` parse as ``int()`` does (``2.0`` is rejected)
    and the others as ``float()`` does; the float columns after the first
    must be finite and come back as float64.

    One ``np.loadtxt`` call parses the whole file, streamed in chunks, and
    its checks run on the arrays. When that parse raises or a check fails,
    a per-row loop with the same parsers re-reads the file and raises
    WindDataError with the line number of the first row that does not parse
    or holds a fractional timestamp, a non-finite value, or a negative value
    in the ``nonnegative`` (column, description) column. The loop also
    accepts what ``float()``/``int()`` accept but ``loadtxt`` does not
    (quoted cells, ``1_0``), so both paths return the same arrays.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        head = next(reader, None)
        if head is None or tuple(s.strip() for s in head) != header:
            raise WindDataError(f"{path}: expected header {','.join(header)!r}, got {head!r}")
        cols = None
        if reader.line_num == 1:  # the bulk parse skips exactly one line of header
            try:
                cols = _bulk_columns(path, header, nonnegative, ints)
            except ValueError:  # loadtxt's refusal of malformed text; the row loop decides what is an error
                pass
        if cols is None:
            cols = _row_columns(path, reader, header, nonnegative, ints)
    return tuple(cols)


def _bulk_columns(path, header, nonnegative, ints) -> list[np.ndarray] | None:
    """The columns from one ``np.loadtxt`` pass, or None when a check fails."""
    dtype = [(f"c{i}", np.int64 if name in ints else np.float64) for i, name in enumerate(header)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
    cols = [np.ascontiguousarray(table[f"c{i}"]) for i in range(len(header))]
    if cols[0].dtype == np.float64:
        t = cols[0]
        if not (np.all(np.abs(t) < 2.0**63) and np.array_equal(np.trunc(t), t)):
            return None
        cols[0] = t.astype(np.int64)
    if not all(np.isfinite(c).all() for c in cols[1:] if c.dtype == np.float64):
        return None
    if nonnegative and np.any(cols[header.index(nonnegative[0])] < 0):
        return None
    return cols


def _row_columns(path, reader, header, nonnegative, ints) -> list[np.ndarray]:
    """The columns parsed row by row; raises WindDataError naming the first bad line."""
    parsers = [int if name in ints else float for name in header]
    neg_col = header.index(nonnegative[0]) - 1 if nonnegative else None
    # 8 bytes a value, no number objects; the first column holds int64 timestamps
    cols = [array("q" if i == 0 or parse is int else "d") for i, parse in enumerate(parsers)]
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise WindDataError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            t_raw, *vals = [parse(cell) for parse, cell in zip(parsers, row)]
        except ValueError as exc:
            raise WindDataError(f"{path}: line {lineno}: could not parse row: {exc}") from exc
        if isinstance(t_raw, float) and not t_raw.is_integer():
            raise WindDataError(f"{path}: line {lineno}: timestamp must be an integer second")
        if not all(math.isfinite(x) for x in vals if isinstance(x, float)):
            raise WindDataError(f"{path}: line {lineno}: non-finite value")
        if neg_col is not None and vals[neg_col] < 0:
            raise WindDataError(f"{path}: line {lineno}: negative {nonnegative[1]}={vals[neg_col]}")
        cols[0].append(int(t_raw))
        for col, x in zip(cols[1:], vals):
            col.append(x)
    return [np.array(c) for c in cols]


def write_csv_columns(path, header: tuple[str, ...], *cols: np.ndarray) -> None:
    """Write equal-length columns under ``header``, one row per index.

    Integer columns are written as integers and float columns as their repr,
    which parses back to the same float. A header naming another number of
    columns, or a column of another length than the first, raises ValueError
    before the file or its directory is created. Rows are written a block at
    a time, so memory stays flat in the column length.
    """
    if not cols:
        raise ValueError("no columns to write")
    if len(header) != len(cols):
        raise ValueError(f"header names {len(header)} columns but {len(cols)} were given")
    n = len(cols[0])
    for name, col in zip(header, cols):
        if len(col) != n:
            raise ValueError(f"column {name!r} holds {len(col)} values but column {header[0]!r} holds {n}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = [None, ","] * (len(cols) - 1) + [None, "\n"]  # cell slots between separators
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for cells in zip(*map(_block_cells, cols)):
            text = row * len(cells[0])
            for c, col_cells in enumerate(cells):
                text[2 * c :: len(row)] = col_cells
            f.write("".join(text))
            del text  # freed before the next block is formatted


def _block_cells(col: np.ndarray):
    """The cells of ``col``, a list per block of 1024 rows. A column in which a
    value repeats the one before it (a nacelle at rest) is formatted by runs,
    each once per block; values compare as bit patterns, so ``-0.0`` after
    ``0.0`` starts a new run. Other columns take ``repr`` value by value."""
    n, block = len(col), 1024  # a multiple of 8, for the packed mask
    bits = col.view(np.int64) if col.itemsize == 8 else col.view(f"V{col.itemsize}")
    new = np.empty(n, dtype=bool)  # True where a run starts
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    if new.all():
        del new
        for lo in range(0, n, block):
            yield list(map(repr, col[lo : lo + block].tolist()))
        return
    new[::block] = True
    packed = np.packbits(new)  # a bit a row keeps memory flat
    del new
    for lo in range(0, n, block):
        at = np.flatnonzero(np.unpackbits(packed[lo // 8 : (lo + block) // 8], count=min(block, n - lo)))
        lens = np.diff(at, append=min(block, n - lo)).tolist()
        yield list(chain.from_iterable(map(repeat, map(repr, col[lo + at].tolist()), lens)))


def load_series(path) -> WindSeries:
    """Read a wind log CSV with header ``t,phi_deg,v_ms`` at uniform 1 s spacing.

    Directions are normalized into [0, 360).
    Raises WindDataError with the offending line number on malformed rows, on
    negative speeds, and on non-uniform timestamps.
    """
    t, phi, v = read_log_csv(path, CSV_HEADER, nonnegative=("v_ms", "wind speed v"))
    if len(t) < 2:
        raise WindDataError(f"{path}: series too short: {len(t)} samples")
    return WindSeries(t, wrap_to_360(phi), v)


def save_series(series: WindSeries, path) -> None:
    """Write a wind log CSV in the format read back by load_series."""
    write_csv_columns(path, CSV_HEADER, series.t, series.phi, series.v)


def split_train_test(series: WindSeries) -> tuple[WindSeries, WindSeries]:
    """First half (floor(n/2) samples) for training, the remainder for testing."""
    n = len(series)
    if n < 2:
        raise WindDataError(f"series too short to split: {n} samples")
    return series.slice(0, n // 2), series.slice(n // 2)


class Standardizer(Record):
    """Scales wind speed by a positive divisor fitted on the training split,
    so the training-split mean speed maps to 1 and the result is never negative."""

    scale: float

    def __post_init__(self):
        try:
            check_fields(self, scale="(0, inf)")
        except ValueError as e:
            raise WindDataError(*e.args) from None

    def standardize(self, v):
        return np.asarray(v, dtype=float) / self.scale


def fit_standardizer(train: WindSeries) -> Standardizer:
    mean = float(np.mean(train.v))
    if mean <= 0.0:
        raise WindDataError("degenerate standardizer: training-split mean wind speed is zero")
    return Standardizer(scale=mean)


class Ramp(NamedTuple):
    """Deterministic direction change: a linear offset from 0 at ``start_s`` to
    ``magnitude_deg`` at ``end_s``, held afterwards."""

    start_s: float
    end_s: float
    magnitude_deg: float


class GeneratorSpec(Record):
    """Parameters of the synthetic wind generator.

    ``dir_std_deg`` is the target standard deviation of the realized direction
    series including ramp events; the mean-reverting component is scaled to
    fill whatever variance the ramps do not account for.
    """

    length_s: int
    dir_mean_deg: float
    dir_std_deg: float
    reversion_rate: float = 0.001  # per-second pull toward the mean, in (0, 1]
    ramps: tuple[Ramp, ...] = ()
    speed_mean_ms: float = 8.2
    speed_std_ms: float = 1.0

    def __post_init__(self):
        try:  # the field checks raise a plain ValueError
            check_fields(self, length_s="[2, inf)", dir_std_deg="[0, inf)", reversion_rate="(0, 1]",
                         speed_mean_ms="[0, inf)", speed_std_ms="[0, inf)")
            ramps = tuple(Ramp._make(real_number(f"ramp {i} {f}", x) for f, x in zip(Ramp._fields, Ramp(*r)))
                          for i, r in enumerate(self.ramps))
        except ValueError as e:
            raise WindDataError(*e.args) from None
        for i, r in enumerate(ramps):
            if not (0 <= r.start_s < r.end_s <= self.length_s):
                raise WindDataError(f"ramp {i} outside the series or empty: {r}")
        object.__setattr__(self, "ramps", ramps)


def _matched_ar1(rng: np.random.Generator, n: int, a: float) -> np.ndarray:
    """AR(1) deviations normalized to sample mean 0 and sample std 1.

    Tails are clipped at ~3.3 sigma, so a series centered tens of degrees from
    the 0/360 seam seldom reaches it; ramps can still carry a few samples across.
    The recurrence runs on Python floats, which round as float64 does, through
    memoryviews, so no float object outlives its step.
    """
    eps = rng.standard_normal(n)
    x = np.empty(n)
    out, keep, prev = memoryview(x), 1.0 - a, 0.0
    out[0] = prev
    for i, e in enumerate(memoryview(eps)[1:], 1):
        prev = keep * prev + e
        out[i] = prev
    x -= x.mean()
    s = x.std()
    if s == 0.0:
        return np.zeros(n)
    x /= s
    x = np.clip(x, -3.3, 3.3)
    x -= x.mean()
    x /= x.std()
    return x


def _ramp_offsets(ramps: tuple[Ramp, ...], n: int) -> np.ndarray:
    t = np.arange(n, dtype=float)
    o = np.zeros(n)
    for r in ramps:
        o += np.interp(t, [r.start_s, r.end_s], [0.0, r.magnitude_deg])
    return o


def generate_synthetic(spec: GeneratorSpec, seed: int) -> WindSeries:
    """Generate a wind series matching ``spec`` exactly in direction mean/std.

    The statistics hold before the direction is wrapped into [0, 360), which
    moves only samples across the 0/360 seam. Deterministic for a fixed
    (spec, seed): the same inputs reproduce the same series bit for bit.
    """
    rng = np.random.default_rng(seed_number("seed", seed))
    n = spec.length_s
    t = np.arange(n, dtype=np.int64)

    offsets = _ramp_offsets(spec.ramps, n)
    oc = offsets - offsets.mean()
    var_oc = float(np.mean(oc * oc))
    target_var = spec.dir_std_deg**2

    if spec.dir_std_deg > 0:
        dev = _matched_ar1(rng, n, spec.reversion_rate)
    else:
        dev = np.zeros(n)
    cov = float(np.mean(dev * oc))
    disc = cov * cov + target_var - var_oc
    if disc < 0:
        raise WindDataError(
            f"ramps account for more variance ({var_oc:.2f}) than dir_std_deg allows ({target_var:.2f})"
        )
    b = -cov + math.sqrt(disc)
    phi = wrap_to_360(spec.dir_mean_deg + b * dev + oc)

    if spec.speed_std_ms > 0:
        sdev = _matched_ar1(rng, n, spec.reversion_rate)
    else:
        sdev = np.zeros(n)
    v = np.clip(spec.speed_mean_ms + spec.speed_std_ms * sdev, 0.0, None)

    return WindSeries(t, phi, v)


def steady_preset(length_s: int = 21000) -> GeneratorSpec:
    """Steady-direction regime: mean 34.1 deg, std 9.7 deg, no ramp events."""
    return GeneratorSpec(
        length_s=length_s,
        dir_mean_deg=34.1,
        dir_std_deg=9.7,
        reversion_rate=0.001,
        ramps=(),
        speed_mean_ms=8.2,
        speed_std_ms=1.0,
    )


def variable_preset(length_s: int = 21000) -> GeneratorSpec:
    """Variable regime: mean 41.4 deg, std 11.6 deg, with two windows of fast
    large-magnitude direction change (10000-12500 s and 15000-20000 s)."""
    if length_s < 20000:
        raise WindDataError("variable preset needs at least 20000 s to place its ramps")
    return GeneratorSpec(
        length_s=length_s,
        dir_mean_deg=41.4,
        dir_std_deg=11.6,
        reversion_rate=0.001,
        ramps=(
            Ramp(10200.0, 11200.0, 25.0),
            Ramp(11400.0, 12400.0, -25.0),
            Ramp(15200.0, 17000.0, 30.0),
            Ramp(17600.0, 19800.0, -30.0),
        ),
        speed_mean_ms=8.2,
        speed_std_ms=1.0,
    )
