"""Every record against its ``@dataclass(frozen=True)`` twin (tests/record_reference.py).

``power.Record`` replaces the methods that dataclass compiled for each
record with one shared set. For drawn field values, a record and its twin
must agree on ``repr``, ``==``, ``hash``, ``asdict``, ``replace``,
``inspect.signature``, the ``FrozenInstanceError`` of setting or deleting an
attribute, the ``TypeError`` of a missing, repeated, unknown or extra
argument, and copy and pickle round trips. The twin is given the values the
record stored after its checks.
"""

import copy
import inspect
import pickle
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from record_reference import RECORDS, TWINS
from yawbench import baseline, env, metrics, power, ppo, wind

pos = st.floats(1e-3, 1e3)
nonneg = st.floats(0.0, 1e3)
real = st.floats(-1e3, 1e3)
count = st.integers(1, 1000)


@st.composite
def turbine_fields(draw):
    cut_in, rated, cut_out = sorted(draw(st.lists(st.floats(0.5, 40.0), min_size=3, max_size=3, unique=True)))
    return dict(rho=draw(pos), rotor_diameter=draw(pos), alpha=draw(st.floats(power.ALPHA_MIN, power.ALPHA_MAX)),
                v_cut_in=cut_in, v_rated=rated, v_cut_out=cut_out, p_rated_kw=draw(pos), yaw_rate_deg_s=draw(pos),
                p_yaw_drive_kw=draw(nonneg))


@st.composite
def generator_fields(draw):
    n = draw(st.integers(2, 10**5))
    starts = draw(st.lists(st.integers(0, n - 1), max_size=3))
    ramps = tuple((s, draw(st.integers(s + 1, n)), draw(real)) for s in starts)
    return dict(length_s=n, dir_mean_deg=draw(real), dir_std_deg=draw(nonneg), reversion_rate=draw(st.floats(1e-6, 1.0)),
                ramps=ramps, speed_mean_ms=draw(nonneg), speed_std_ms=draw(nonneg))


@st.composite
def env_fields(draw):
    return dict(standardizer=wind.Standardizer(draw(pos)), turbine=power.TurbineParams(**draw(turbine_fields())),
                k=draw(count), j=draw(count), w=draw(nonneg), episode_len=draw(count))


@st.composite
def ppo_fields(draw):
    batch = draw(st.integers(1, 64))
    n_steps = batch * draw(st.integers(1, 64))
    return dict(learning_rate=draw(pos), n_steps=n_steps, batch_size=batch, epochs=draw(count),
                discount=draw(st.floats(1e-3, 1.0)), gae_lambda=draw(st.floats(0.0, 1.0)),
                total_steps=n_steps + draw(st.integers(0, 10**6)), clip_eps=draw(pos), value_coef=draw(nonneg),
                entropy_coef=draw(nonneg), seed=draw(st.integers(0, 2**70)),
                hidden=tuple(draw(st.lists(st.integers(1, 256), min_size=1, max_size=3))), init_offset_deg=draw(nonneg))


def column(n, elements):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def log_fields(draw, angle, min_len):
    n, t0 = draw(st.integers(min_len, 20)), draw(st.integers(-10**6, 10**6))
    cols = {"t": list(range(t0, t0 + n)), angle: draw(column(n, st.floats(0.0, 360.0, exclude_max=True)))}
    return cols if angle == "theta" else {**cols, "v": draw(column(n, nonneg))}


@st.composite
def trace_fields(draw):
    n = draw(st.integers(0, 8))
    ints = st.integers(-2**62, 2**62)
    return {name: draw(column(n, ints if name in env.CycleTrace.int_columns() else real)) for name in env.TRACE_COLUMNS}


FIELDS = {
    power.TurbineParams: turbine_fields(),
    wind.Standardizer: st.builds(dict, scale=pos),
    wind.GeneratorSpec: generator_fields(),
    env.EnvConfig: env_fields(),
    baseline.CycaConfig: st.builds(dict, threshold=pos, target_window=count, stop_deadband=nonneg),
    ppo.PpoConfig: ppo_fields(),
    metrics.MetricsReport: st.builds(dict, avg_yaw_error_deg=real, energy_kwh=real, angle_covered_deg=nonneg,
                                     yaw_count=st.integers(0, 10**6), time_yawing_pct=st.floats(0.0, 100.0),
                                     yaw_consumption_kwh=real, n_cycles=st.integers(0, 10**6), horizon_s=nonneg),
    metrics.Comparison: st.builds(dict, yaw_error_decrease_pct=real, energy_gain_pct=real, net_energy_gain_pct=real,
                                  yaw_consumption_delta_kwh=real,
                                  delta_series_kwh=st.none() | st.lists(real, max_size=5).map(np.array)),
    wind.Columns: st.just({}),
    wind.WindSeries: log_fields("phi", 1),
    baseline.NacelleLog: log_fields("theta", 2),
    env.CycleTrace: trace_fields(),
}


def same(a, b) -> bool:
    """Equal in type and value: arrays bit for bit, dicts, lists and tuples item by item."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def agree(rec, ref) -> None:
    """``rec`` and its twin ``ref`` hold the same values and print alike."""
    assert type(ref) is TWINS[type(rec)]
    assert same(vars(rec), vars(ref)) and repr(rec) == repr(ref)


def hash_of(x):
    """``hash(x)``, or "identity" where it is ``object``'s hash."""
    return "identity" if hash(x) == object.__hash__(x) else hash(x)


def failure(call):
    """The exception type and text that ``call()`` raises, or None."""
    try:
        call()
    except Exception as e:  # whatever either side raises is compared
        return type(e), str(e)
    return None


def type_error(call):
    """The text of the TypeError that ``call()`` raises, or None: a record's check may refuse a mix
    of drawn values and defaults with a ValueError, which the twin, having no checks, cannot raise."""
    try:
        call()
    except TypeError as e:
        return str(e)
    except ValueError:
        pass
    return None


def test_fields_cover_every_record():
    assert set(FIELDS) == set(RECORDS) == set(TWINS) and len(RECORDS) == 12
    assert all(issubclass(cls, power.Record) and TWINS[cls].__name__ == cls.__name__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_class_matches_its_twin(cls):
    ref = TWINS[cls]
    assert inspect.signature(cls) == inspect.signature(ref)
    assert is_dataclass(cls) and cls.__match_args__ == ref.__match_args__
    assert [(f.name, f.type, f.compare) for f in fields(cls)] == [(f.name, f.type, f.compare) for f in fields(ref)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_record_matches_its_twin(cls, data):
    Twin, names = TWINS[cls], [f.name for f in fields(cls)]
    given_fields = data.draw(FIELDS[cls])
    rec = cls(**given_fields)
    values = {name: getattr(rec, name) for name in names}
    ref = Twin(**values)
    agree(rec, ref)

    # positional and keyword binding, and defaults and default factories
    k = data.draw(st.integers(0, len(names)))
    agree(cls(*[given_fields[n] for n in names[:k]], **{n: given_fields[n] for n in names[k:]}), ref)
    omitted = data.draw(st.sets(st.sampled_from(names))) if names else set()
    kept = {n: v for n, v in given_fields.items() if n not in omitted}
    if type_error(lambda: Twin(**{n: values[n] for n in kept})) is None:  # no omitted field is required
        filled = vars(Twin(**{n: values[n] for n in kept}))  # the omitted fields' defaults and factory values
        outcome = failure(lambda: cls(**kept))
        assert outcome == failure(lambda: cls(**filled))  # a default may break a rule the drawn values keep
        if outcome is None:
            partial = cls(**kept)
            agree(partial, Twin(**{n: getattr(partial, n) for n in kept}))

    # equality and hashing, over the compare fields only
    other = cls(**data.draw(FIELDS[cls]))
    other_ref = Twin(**{name: getattr(other, name) for name in names})
    again, again_ref = cls(**given_fields), Twin(**values)
    assert (rec == again, rec != again, rec == other, rec == rec) == (ref == again_ref, ref != again_ref,
                                                                       ref == other_ref, ref == ref)
    assert rec.__eq__(ref) is NotImplemented and rec.__eq__(object()) is ref.__eq__(object()) is NotImplemented
    assert hash_of(rec) == hash_of(ref) and (hash_of(rec) == hash_of(again)) == (hash_of(ref) == hash_of(again_ref))

    # asdict and replace
    assert same(asdict(rec), asdict(ref))
    agree(replace(rec), replace(ref))
    changes = {name: getattr(other, name) for name in names}
    agree(replace(rec, **changes), replace(ref, **changes))
    some = {name: changes[name] for name in (data.draw(st.sets(st.sampled_from(names))) if names else ())}
    try:
        changed = replace(rec, **some)
    except ValueError:
        pass  # the drawn mix breaks a rule across fields, such as v_cut_in < v_rated
    else:
        agree(changed, replace(ref, **some))

    # frozen
    for name in [*names, "not_a_field"]:
        assert failure(lambda: setattr(rec, name, 1)) == failure(lambda: setattr(ref, name, 1)) is not None
        assert failure(lambda: delattr(rec, name)) == failure(lambda: delattr(ref, name)) is not None

    # a missing, repeated, unknown or extra argument
    assert type_error(lambda: cls(**kept)) == type_error(lambda: Twin(**{n: values[n] for n in kept}))
    if names:
        i = data.draw(st.integers(0, len(names) - 1))
        k = data.draw(st.integers(i + 1, len(names)))
        args, kwargs = [given_fields[n] for n in names[:k]], {n: given_fields[n] for n in names[k:]}
        repeated = type_error(lambda: cls(*args, **kwargs, **{names[i]: given_fields[names[i]]}))
        assert repeated == type_error(lambda: Twin(*[values[n] for n in names[:k]], **{
            n: values[n] for n in names[k:]}, **{names[i]: values[names[i]]})) is not None
    unknown = type_error(lambda: cls(**given_fields, bogus=1))
    assert unknown == type_error(lambda: Twin(**values, bogus=1)) is not None
    extra = type_error(lambda: cls(*[given_fields[n] for n in names], 0))
    assert extra == type_error(lambda: Twin(*values.values(), 0)) is not None

    # copies and pickle round trips
    for round_trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        copied, copied_ref = round_trip(rec), round_trip(ref)
        agree(copied, copied_ref)
        assert (copied == rec) == (copied_ref == ref)
