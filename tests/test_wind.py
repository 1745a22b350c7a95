import copy
import math
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest

from yawbench.baseline import NacelleLog
from yawbench.env import TRACE_COLUMNS, CycleTrace
from yawbench.wind import (
    Columns,
    GeneratorSpec,
    Ints,
    Ramp,
    Standardizer,
    WindDataError,
    WindSeries,
    fit_standardizer,
    generate_synthetic,
    load_series,
    save_series,
    split_train_test,
    steady_preset,
    variable_preset,
    write_csv_columns,
)
from wind_reference import constant_preset


def make_series(n=20, phi=34.1, v=8.0):
    return WindSeries(np.arange(n), np.full(n, phi), np.full(n, v))


class TestLoadSeries:
    def test_basic_row_mapping(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,34.1,7.2\n1,35.0,7.0\n")
        s = load_series(p)
        assert (s.t[0], s.phi[0], s.v[0]) == (0, 34.1, 7.2)
        assert len(s) == 2
        assert list(vars(s)) == ["t", "phi", "v"]  # no source or label: the bench digest hashes vars(series)

    def test_negative_direction_normalized(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,1.0,6.0\n1,-10.0,6.0\n")
        s = load_series(p)
        assert s.phi[1] == pytest.approx(350.0, abs=1e-12)

    def test_directions_wrapped_into_range(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,360.0,6.0\n1,725.5,6.0\n2,-1e-300,6.0\n3,-0.0,6.0\n")
        assert load_series(p).phi.tolist() == [0.0, 5.5, 0.0, 0.0]

    def test_non_finite_direction_reports_line(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,1.0,6.0\n1,inf,6.0\n")
        with pytest.raises(WindDataError, match="line 3: non-finite"):
            load_series(p)

    def test_non_uniform_spacing(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,1.0,6.0\n1,1.0,6.0\n3,1.0,6.0\n")
        with pytest.raises(WindDataError, match="non-uniform spacing at t=3"):
            load_series(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,1.0,6.0\n1,abc,6.0\n")
        with pytest.raises(WindDataError, match="line 3"):
            load_series(p)

    def test_negative_speed_reports_line(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("t,phi_deg,v_ms\n0,1.0,6.0\n1,1.0,-2.0\n")
        with pytest.raises(WindDataError, match="line 3.*negative wind speed"):
            load_series(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time,dir,speed\n0,1.0,6.0\n")
        with pytest.raises(WindDataError, match="header"):
            load_series(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nope.csv")

    def test_roundtrip_is_lossless(self, tmp_path):
        s = generate_synthetic(steady_preset(length_s=50), seed=4)
        p = tmp_path / "r.csv"
        save_series(s, p)
        back = load_series(p)
        assert back.equals(s)


class TestWriteCsvColumns:
    @pytest.mark.parametrize("header, n_cols, message", [
        (("t", "a", "b"), 2, "header names 3 columns but 2 were given"),  # wrote 3 names over rows of 2 fields
        (("t",), 2, "header names 1 columns but 2 were given"),
        ((), 0, "no columns to write"),  # was an IndexError
    ])
    def test_header_must_name_every_column(self, tmp_path, header, n_cols, message):
        out = tmp_path / "made" / "x.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_csv_columns(out, header, *[np.ones(3)] * n_cols)
        assert not out.parent.exists()

    @pytest.mark.parametrize("lengths, message", [
        ((3, 5, 3), "column 'a' holds 5 values but column 't' holds 3"),  # zip wrote 3 rows
        ((3, 3, 0), "column 'b' holds 0 values but column 't' holds 3"),
        ((0, 3, 3), "column 'a' holds 3 values but column 't' holds 0"),
    ])
    def test_columns_must_be_equally_long(self, tmp_path, lengths, message):
        out = tmp_path / "made" / "x.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_csv_columns(out, ("t", "a", "b"), *(np.arange(k) for k in lengths))
        assert not out.parent.exists()


def _columns(record, n):
    """Valid columns of length ``n`` for one of the three column records."""
    if record is WindSeries:
        return {"t": np.arange(n), "phi": np.full(n, 34.1), "v": np.full(n, 8.0)}
    if record is NacelleLog:
        return {"t": np.arange(n), "theta": np.full(n, 20.0)}
    ints = {"cycle", "action_issued", "action_applied"}
    return {name: np.arange(n) if name in ints else np.full(n, 1.5) for name in TRACE_COLUMNS}


COLUMN_CASES = [(record, name) for record in (WindSeries, NacelleLog, CycleTrace) for name in _columns(record, 1)]
INT_COLUMN_CASES = [
    (record, name) for record, name in COLUMN_CASES if name in ("t", "cycle", "action_issued", "action_applied")
]


COPIES = [copy.copy, copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec))]
COPY_IDS = ["copy", "deepcopy", "pickle"]


class TestColumnRecords:
    """The shared column check of ``WindSeries``, ``NacelleLog`` and ``CycleTrace``."""

    @pytest.mark.parametrize("record, name", COLUMN_CASES)
    def test_two_dimensional_column_named(self, record, name):
        cols = _columns(record, 4)
        cols[name] = np.stack([cols[name], cols[name]], axis=1)
        with pytest.raises(WindDataError, match=rf"^{record.__name__} column '{name}' must be 1-d, got shape \(4, 2\)"):
            record(**cols)

    @pytest.mark.parametrize("record, name", COLUMN_CASES)
    def test_short_column_named(self, record, name):
        cols = _columns(record, 4)
        cols[name] = cols[name][:3]
        with pytest.raises(WindDataError, match=rf"^{record.__name__} column .*'{name}' holds 3"):
            record(**cols)

    @pytest.mark.parametrize("record, name", COLUMN_CASES)
    def test_every_column_read_only(self, record, name):
        rec = record(**_columns(record, 4))
        col = getattr(rec, name)
        assert col.ndim == 1 and len(col) == 4 and not col.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[1]

    @pytest.mark.parametrize("record, name", INT_COLUMN_CASES)
    @pytest.mark.parametrize("bad", [0.5, 0.9, -1.5, math.nan, math.inf, -math.inf, 1e19])
    def test_int_column_holding_a_fraction_or_non_finite_named(self, record, name, bad):
        cols = _columns(record, 4)
        cols[name] = cols[name].astype(float)
        cols[name][2] = bad  # was truncated (0.5 -> 0) or cast to an arbitrary integer
        with pytest.raises(WindDataError, match=rf"^{record.__name__} column '{name}' must hold whole numbers, got {re.escape(str(bad))}$"):
            record(**cols)

    @pytest.mark.parametrize(
        "record, cols",
        [
            (WindSeries, {"t": [0.5, 1.5, 2.5], "phi": [10.0] * 3, "v": [5.0] * 3}),  # was t = [0, 1, 2]
            (NacelleLog, {"t": [0.9, 1.9], "theta": [1.0, 2.0]}),  # was t = [0, 1]
            (CycleTrace, {**_columns(CycleTrace, 2), "action_issued": [0.7, 1.0]}),  # was action 0
        ],
    )
    def test_fractional_int_column_from_a_list_rejected(self, record, cols):
        with pytest.raises(WindDataError, match="must hold whole numbers"):
            record(**cols)

    @pytest.mark.parametrize("record, name", INT_COLUMN_CASES)
    def test_whole_floats_in_an_int_column_stored_as_int64(self, record, name):
        cols = _columns(record, 4)
        cols[name] = cols[name].astype(float)
        col = getattr(record(**cols), name)
        assert col.dtype == np.int64 and col.tolist() == list(range(4))

    @pytest.mark.parametrize("record, name", INT_COLUMN_CASES)
    def test_uint64_column_beyond_int64_named(self, record, name):
        cols = _columns(record, 4)
        cols[name] = cols[name].astype(np.uint64)
        col = getattr(record(**cols), name)
        assert col.dtype == np.int64 and col.tolist() == list(range(4))
        cols[name][1] = 2**63  # was wrapped to -2**63
        match = rf"^{record.__name__} column '{name}' must hold whole numbers, got {2**63}$"
        with pytest.raises(WindDataError, match=match):
            record(**cols)

    def test_uint64_timestamp_that_would_wrap_to_minus_one_rejected(self):
        match = r"^WindSeries column 't' must hold whole numbers, got 18446744073709551615$"
        with pytest.raises(WindDataError, match=match):
            WindSeries(np.array([2**64 - 1, 0, 1], dtype=np.uint64), [1.0] * 3, [5.0] * 3)  # was t = [-1, 0, 1]

    @pytest.mark.parametrize("record, name", COLUMN_CASES)
    @pytest.mark.parametrize("fails", [False, True])
    def test_caller_array_stays_writeable(self, record, name, fails):
        cols = _columns(record, 4)
        given = cols[name]
        if fails:  # another column is short, so the construction fails after or before this one is stored
            other = next(n for n in cols if n != name)
            cols[other] = cols[other][:3]
            with pytest.raises(WindDataError):
                record(**cols)
        else:
            assert not getattr(record(**cols), name).flags.writeable
        assert given.flags.writeable
        given[0] = given[1]  # was "assignment destination is read-only"

    @pytest.mark.parametrize("record, name", COLUMN_CASES)
    @pytest.mark.parametrize("round_trip", COPIES, ids=COPY_IDS)
    def test_copied_or_unpickled_column_read_only(self, record, name, round_trip):
        rec = round_trip(record(**_columns(record, 4)))
        col = getattr(rec, name)
        assert type(rec) is record and not col.flags.writeable  # a deepcopy's or an unpickled record's was writeable
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[1]

    @pytest.mark.parametrize("round_trip", COPIES, ids=COPY_IDS)
    def test_copy_goes_back_through_the_checks(self, round_trip):
        phi, t = np.full(4, 34.1), np.arange(4)
        series = WindSeries(t, phi, np.full(4, 8.0))  # its columns are read-only views of these arrays
        phi[1] = 400.0
        with pytest.raises(WindDataError, match=r"^wind direction must be finite and in \[0, 360\)$"):
            round_trip(series)  # was copied as it stood
        phi[1], t[2] = 34.1, 5
        with pytest.raises(WindDataError, match="^non-uniform spacing at t=5$"):
            round_trip(series)

    @pytest.mark.parametrize("record, n_min", [(WindSeries, 1), (NacelleLog, 2)])
    def test_too_short_log_named(self, record, n_min):
        with pytest.raises(WindDataError, match=rf"^{record.__name__} too short: {n_min - 1} samples"):
            record(**_columns(record, n_min - 1))
        assert len(record(**_columns(record, n_min))) == n_min


class Planted(Columns):
    """A column record with no code of its own."""

    n: Ints
    x: np.ndarray


class TestColumnsBase:
    """What a record gets from ``Columns`` alone: dtypes from the annotations, length, slicing and equality."""

    def test_ints_field_stores_int64_and_other_field_float64(self):
        rec = Planted([1, 2, 3], [1, 2, 3])
        assert rec.n.dtype == np.int64 and rec.x.dtype == np.float64 and len(rec) == 3
        assert rec.n.tolist() == rec.x.tolist() == [1, 2, 3]

    def test_ints_field_refuses_a_fraction_by_name(self):
        with pytest.raises(WindDataError, match=r"^Planted column 'n' must hold whole numbers, got 1.5$"):
            Planted([0, 1.5], [0.0, 1.0])
        assert Planted([0, 1], [0.0, 1.5]).x.tolist() == [0.0, 1.5]

    def test_annotation_read_with_and_without_postponed_evaluation(self):
        # this module evaluates its annotations; the package modules postpone theirs, so a field's type is a string
        assert fields(Planted)[0].type is Ints and fields(CycleTrace)[0].type == "Ints"
        assert Planted.int_columns() == ("n",)
        assert CycleTrace.int_columns() == ("cycle", "action_issued", "action_applied")

    def test_slice_owns_copies_of_its_rows(self):
        rec = Planted(np.arange(5), np.linspace(0.0, 1.0, 5))
        part = rec.slice(1, 3)
        assert type(part) is Planted and part.n.tolist() == [1, 2] and part.x.tolist() == [0.25, 0.5]
        assert not np.shares_memory(part.x, rec.x) and not part.x.flags.writeable
        assert rec.slice(2).equals(Planted([2, 3, 4], rec.x[2:])) and len(rec.slice(5)) == 0

    def test_equals_compares_every_column(self):
        rec = Planted(np.arange(3), np.zeros(3))
        assert rec.equals(Planted([0, 1, 2], [0.0, 0.0, 0.0]))
        assert not rec.equals(Planted(np.arange(3), [0.0, 0.0, 1.0]))
        assert not rec.equals(Planted([0, 1, 3], np.zeros(3)))


class TestSplit:
    def test_halves_of_21000(self):
        s = generate_synthetic(steady_preset(), seed=1)
        train, test = split_train_test(s)
        assert len(train) == 10500 and len(test) == 10500

    def test_floor_split_odd(self):
        s = WindSeries(np.arange(3), np.array([1.0, 2.0, 3.0]), np.full(3, 5.0))
        train, test = split_train_test(s)
        assert len(train) == 1 and len(test) == 2

    def test_partition_identity(self):
        s = generate_synthetic(steady_preset(length_s=101), seed=2)
        train, test = split_train_test(s)
        assert np.array_equal(np.concatenate([train.t, test.t]), s.t)
        assert np.array_equal(np.concatenate([train.phi, test.phi]), s.phi)
        assert np.array_equal(np.concatenate([train.v, test.v]), s.v)

    def test_too_short(self):
        one = WindSeries(np.array([0]), np.array([1.0]), np.array([5.0]))
        with pytest.raises(WindDataError):
            split_train_test(one)


class TestStandardizer:
    def test_mean_maps_to_one(self):
        s = fit_standardizer(make_series(v=8.0))
        assert s.scale == 8.0
        assert s.standardize(8.0) == 1.0

    def test_linearity(self):
        s = Standardizer(8.0)
        assert s.standardize(16.0) == 2.0

    def test_zero_preserved(self):
        assert Standardizer(8.0).standardize(0.0) == 0.0

    def test_roundtrip_property(self):
        rng = np.random.default_rng(3)
        s = Standardizer(scale=float(rng.uniform(1, 20)))
        x = rng.uniform(0, 30, size=100)
        assert np.allclose(s.standardize(s.scale * x), x, rtol=1e-12)

    def test_all_zero_speeds_degenerate(self):
        with pytest.raises(WindDataError, match="degenerate"):
            fit_standardizer(make_series(v=0.0))

    def test_fit_ignores_test_split(self):
        n = 100
        v = np.concatenate([np.full(n // 2, 8.0), np.full(n // 2, 20.0)])
        s = WindSeries(np.arange(n), np.full(n, 10.0), v)
        train, _ = split_train_test(s)
        assert fit_standardizer(train).scale == 8.0

    def test_positive_scale_required(self):
        with pytest.raises(WindDataError):
            Standardizer(0.0)


class TestGenerator:
    def test_steady_statistics_match_exactly(self):
        s = generate_synthetic(steady_preset(), seed=1)
        assert len(s) == 21000
        assert s.phi.mean() == pytest.approx(34.1, abs=1e-6)
        assert s.phi.std() == pytest.approx(9.7, abs=1e-6)
        assert s.v.mean() == pytest.approx(8.2, abs=1e-6)

    def test_steady_statistics_hold_for_any_seed(self):
        for seed in range(5):
            s = generate_synthetic(steady_preset(length_s=5000), seed=seed)
            assert abs(s.phi.mean() - 34.1) < 1e-6
            assert abs(s.phi.std() - 9.7) < 1e-6

    def test_variable_ramps_inside_windows(self):
        spec = variable_preset()
        for r in spec.ramps:
            assert (10000 <= r.start_s and r.end_s <= 12500) or (
                15000 <= r.start_s and r.end_s <= 20000
            )
        s = generate_synthetic(spec, seed=2)
        for lo, hi in ((10000, 12500), (15000, 20000)):
            swing = s.phi[lo:hi].max() - s.phi[lo:hi].min()
            assert swing >= 20.0
        assert s.phi.mean() == pytest.approx(41.4, abs=1e-6)
        assert s.phi.std() == pytest.approx(11.6, abs=1e-6)

    def test_constant_degenerate(self):
        s = generate_synthetic(constant_preset(length_s=100), seed=0)
        assert np.all(s.phi == s.phi[0])
        assert np.all(s.v == s.v[0])

    def test_determinism_bit_for_bit(self):
        a = generate_synthetic(steady_preset(length_s=3000), seed=7)
        b = generate_synthetic(steady_preset(length_s=3000), seed=7)
        assert a.equals(b)
        c = generate_synthetic(steady_preset(length_s=3000), seed=8)
        assert not a.equals(c)

    @pytest.mark.parametrize("seed", [180, 313, 426, 819])
    def test_seam_crossing_seeds_wrap_and_keep_matched_statistics(self, seed):
        # each of these seeds carries 2-3 samples below 0 deg
        s = generate_synthetic(variable_preset(), seed=seed)
        assert np.all(s.phi >= 0.0) and np.all(s.phi < 360.0)
        crossed = s.phi >= 180.0
        assert 1 <= crossed.sum() <= 3
        unwrapped = np.where(crossed, s.phi - 360.0, s.phi)
        assert unwrapped.mean() == pytest.approx(41.4, abs=1e-6)
        assert unwrapped.std() == pytest.approx(11.6, abs=1e-6)

    def test_normalization_invariants(self):
        s = generate_synthetic(variable_preset(), seed=5)
        assert np.all(s.phi >= 0.0) and np.all(s.phi < 360.0)
        assert np.all(s.v >= 0.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(WindDataError):
            GeneratorSpec(length_s=0, dir_mean_deg=0.0, dir_std_deg=1.0)
        with pytest.raises(WindDataError):
            GeneratorSpec(length_s=100, dir_mean_deg=0.0, dir_std_deg=-1.0)
        with pytest.raises(WindDataError):
            GeneratorSpec(length_s=100, dir_mean_deg=0.0, dir_std_deg=1.0, reversion_rate=0.0)
        with pytest.raises(WindDataError):
            GeneratorSpec(
                length_s=100, dir_mean_deg=0.0, dir_std_deg=1.0, ramps=(Ramp(50.0, 40.0, 5.0),)
            )

    @pytest.mark.parametrize(
        "field, bad",
        [("dir_std_deg", float("nan")), ("speed_mean_ms", float("nan")), ("speed_std_ms", float("nan")),
         ("speed_mean_ms", float("inf")), ("length_s", 2500.5), ("length_s", float("nan")), ("length_s", float("inf")),
         ("dir_mean_deg", True), ("length_s", 10**400), ("dir_mean_deg", 10**400), ("reversion_rate", "0.1")],
    )
    def test_non_finite_or_fractional_spec_named(self, field, bad):
        # each was accepted: the checks were comparisons, and nan < 0 is false;
        # a nan only surfaced in generate_synthetic, naming no field. True was
        # kept as given, 10**400 raised a bare OverflowError and "0.1" a bare TypeError
        spec = {"length_s": 3000, "dir_mean_deg": 10.0, "dir_std_deg": 2.0, field: bad}
        with pytest.raises(WindDataError, match=rf"^{field} must be"):
            GeneratorSpec(**spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"ramps": ((100, 200, float("nan")),)}, "ramp 0 magnitude_deg must be finite"),
            ({"ramps": (Ramp(100, 200, 5.0), Ramp(300, 400, float("inf")))}, "ramp 1 magnitude_deg must be finite"),
            ({"ramps": (Ramp(100, 200, 5.0), Ramp(300, 200, 5.0))}, "ramp 1 outside the series or empty"),
            ({"dir_mean_deg": float("nan")}, "dir_mean_deg must be finite"),
            ({"dir_mean_deg": float("-inf")}, "dir_mean_deg must be finite"),
            ({"ramps": (Ramp(100, 200, True),)}, "ramp 0 magnitude_deg must be a real number"),
            ({"ramps": ((100, 200, 10**400),)}, "ramp 0 magnitude_deg must be finite"),
            ({"ramps": (Ramp("100", 200, 5.0),)}, "ramp 0 start_s must be a real number"),
        ],
    )
    def test_non_finite_ramp_or_mean_direction_named(self, spec, message):
        # the non-finite ones were accepted; generate_synthetic then failed with the
        # nameless "wind direction must be finite and in [0, 360)". A True magnitude
        # was kept as given, 10**400 raised a bare OverflowError and "100" a bare TypeError
        with pytest.raises(WindDataError, match=rf"^{message}"):
            GeneratorSpec(**{"length_s": 3000, "dir_mean_deg": 10.0, "dir_std_deg": 2.0, **spec})

    def test_whole_float_length_stored_as_int(self):
        # 3000.0 was accepted, and generate_synthetic then died with a bare TypeError
        spec = GeneratorSpec(length_s=3000.0, dir_mean_deg=10.0, dir_std_deg=2.0)
        assert spec.length_s == 3000 and type(spec.length_s) is int
        assert len(generate_synthetic(spec, seed=0)) == 3000

    @pytest.mark.parametrize("seed", [True, np.True_, 1.5, "3", -1, None, float("nan")])
    def test_bad_seed_named(self, seed):
        # True ran as seed 1; 1.5, "3" and None raised numpy's TypeError and -1 its unnamed ValueError
        spec = GeneratorSpec(length_s=100, dir_mean_deg=10.0, dir_std_deg=2.0)
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative whole number, got {re.escape(repr(seed))}$"):
            generate_synthetic(spec, seed)

    @pytest.mark.parametrize("seed, same", [(3.0, 3), (np.int64(5), 5), (10**400, 10**400)])
    def test_whole_seed_taken_as_its_int(self, seed, same):
        spec = GeneratorSpec(length_s=100, dir_mean_deg=10.0, dir_std_deg=2.0)
        assert generate_synthetic(spec, seed).equals(generate_synthetic(spec, same))

    def test_ramps_exceeding_std_rejected(self):
        spec = GeneratorSpec(
            length_s=1000, dir_mean_deg=180.0, dir_std_deg=0.5, ramps=(Ramp(100.0, 500.0, 40.0),)
        )
        with pytest.raises(WindDataError, match="variance"):
            generate_synthetic(spec, seed=0)
