"""Angle arithmetic and the regioned turbine power curve with yaw-misalignment losses.

All angles are degrees. The sign convention used throughout the package:
positive yaw error means the wind direction sits counterclockwise of the
nacelle heading, and a counterclockwise rotation reduces it.

The power curve is one function over scalars or arrays,
``power_with_misalignment``: zero, the cubic law with the cos^alpha
misalignment loss, rated power, zero. Each boundary speed (cut-in, rated,
cut-out) belongs to the region above it.

``Record``, ``from_fields`` and ``check_fields`` live here, in the module every
other one imports: the base of every record in the package, the strict
``from_dict`` of its config records, and the one check of their numeric fields,
whose annotations pick their type rules.
"""

from __future__ import annotations

import math
from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError, asdict, dataclass, fields
from inspect import Parameter, Signature
from typing import NewType

import numpy as np

# Observed range for the cosine exponent of the yaw-loss law.
ALPHA_MIN = 1.7
ALPHA_MAX = 5.1

_INT64_MAX = 2**63 - 1


def from_fields(cls, d: dict, **given):
    """``cls`` built from ``given`` and a dict ``d`` holding exactly its other fields.

    The strict half of every ``to_dict``/``from_dict`` pair: a missing field
    raises KeyError and an unknown key TypeError, each naming the key.
    """
    names = [name for name in cls._names if name not in given]
    unknown = set(d).difference(names)
    if unknown:
        raise TypeError(f"unknown key(s) {sorted(unknown)}")
    return cls(**{name: d[name] for name in names}, **given)


def is_real(x) -> bool:
    """Whether ``x`` is an int or a float (numpy's too); a bool, str, bytes, None or complex is not."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def whole_number(name: str, x) -> int:
    """``x`` as an int; ValueError naming ``name`` unless it is a positive whole number that fits
    an int64. Only an ``is_real`` value passes; nan and inf fail the range check before ``%`` runs."""
    if not is_real(x) or not (0 < x < math.inf and x % 1 == 0 and int(x) <= _INT64_MAX):
        raise ValueError(f"{name} must be a positive whole number, got {x!r}")
    return int(x)


Seed = NewType("Seed", int)  # the annotation of a random seed field


def seed_number(name: str, x) -> int:
    """``x`` as an int; ValueError naming ``name`` unless it is a non-negative whole number. Unlike
    a count, a seed may be 0 and exceed int64, as ``np.random.default_rng`` takes it."""
    if not is_real(x) or not (0 <= x < math.inf and x % 1 == 0):
        raise ValueError(f"{name} must be a non-negative whole number, got {x!r}")
    return int(x)


def real_number(name: str, x) -> float:
    """``x`` as a float; ValueError naming ``name`` unless it is a finite int or float (numpy's
    too). A bool, str, bytes or None is refused, not read as 1.0 or parsed."""
    if not is_real(x):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        f = float(x)
    except OverflowError:  # an int past the float range
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {x}")
    return f


def in_bounds(name: str, x, bound: str):
    """``x`` if it lies in the interval ``bound``, written like ``"(0, 1]"`` or ``"[0, inf)"``;
    else ValueError naming ``name``, the bound and ``repr(x)``."""
    lo, hi = (float(end) for end in bound[1:-1].split(","))
    if not ((lo <= x if bound[0] == "[" else lo < x) and (x <= hi if bound[-1] == "]" else x < hi)):
        raise ValueError(f"{name} must be in {bound}, got {x!r}")
    return x


_TYPE_RULES = {"int": whole_number, "float": real_number, "Seed": seed_number}


def check_fields(record, **bounds: str) -> None:
    """Pass each field of the ``Record`` ``record`` annotated ``int``, ``float`` or ``Seed`` through
    ``whole_number``, ``real_number`` or ``seed_number``, storing the result, then hold each field
    named in ``bounds`` to its interval (see ``in_bounds``). Every refusal names the field."""
    values = vars(record)
    for name, rule in record._rules:
        values[name] = rule(name, values[name])
    for name, bound in bounds.items():
        in_bounds(name, values[name], bound)


class Record:
    """Base of the package's frozen records. Each subclass is a dataclass (``fields``, ``asdict``,
    ``replace`` and ``__match_args__`` work on it) whose ``__init__``, ``__repr__``, ``__eq__``,
    ``__hash__``, ``__setattr__`` and ``__delattr__`` act as ``@dataclass(frozen=True)``'s would,
    but come from here rather than from source text that dataclass compiles for every class. Its
    field lists are computed once, when the class is created."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)  # generates no function, unlike frozen=True
        fs = fields(cls)
        cls._names, cls._compare = tuple(f.name for f in fs), tuple(f.name for f in fs if f.compare)
        kinds = ((f.name, getattr(f.type, "__name__", f.type)) for f in fs)
        cls._rules = tuple((name, _TYPE_RULES[kind]) for name, kind in kinds if kind in _TYPE_RULES)
        cls._template = {f.name: f.default for f in fs}  # MISSING where a factory or the caller fills it
        cls._unset = tuple((f.name, f.default_factory) for f in fs if f.default is MISSING)
        params = [Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type, default=(
            _HAS_DEFAULT_FACTORY if f.default_factory is not MISSING else  # shown as "<factory>", as dataclass does
            Parameter.empty if f.default is MISSING else f.default)) for f in fs]
        cls.__signature__ = Signature(params, return_annotation=None)

    def __init__(self, *args, **kwargs):
        names, values = self._names, self._template.copy()
        values.update(zip(names, args))
        values.update(kwargs)  # an unknown keyword adds a key
        if len(values) > len(names) or len(args) > len(names) or (
                args and kwargs and not kwargs.keys().isdisjoint(names[: len(args)])):
            raise _call_error(type(self), args, kwargs)
        for name, factory in self._unset:
            if values[name] is MISSING:
                if factory is MISSING:
                    raise _call_error(type(self), args, kwargs)
                values[name] = factory()
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, n) for n in self._compare) == tuple(getattr(other, n) for n in self._compare)

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self._compare))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _call_error(cls, args: tuple, kwargs: dict) -> TypeError:
    """The TypeError that Python raises for a bad call of a generated ``cls.__init__``, by its rules:
    the first unknown or repeated keyword, then too many positional arguments, then the missing ones."""
    where, names, n = f"{cls.__qualname__}.__init__()", cls._names, len(cls._names) + 1  # self counts
    required = [name for name, factory in cls._unset if factory is MISSING]
    for key in kwargs:
        if key not in cls._template:
            return TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in names[: len(args)]:
            return TypeError(f"{where} got multiple values for argument {key!r}")
    if len(args) >= n:
        takes = f"from {len(required) + 1} to {n} positional arguments" if len(required) + 1 < n else (
            f"{n} positional argument{'s' * (n != 1)}")
        return TypeError(f"{where} takes {takes} but {len(args) + 1} were given")
    missing = [repr(name) for name in required if name not in kwargs and name not in names[: len(args)]]
    text = " and ".join(missing) if len(missing) < 3 else f"{', '.join(missing[:-1])}, and {missing[-1]}"
    return TypeError(f"{where} missing {len(missing)} required positional argument{'s' * (len(missing) != 1)}: {text}")


def wrap_angle(x):
    """Wrap an angle (degrees) into (-180, 180].

    Accepts a scalar, which gives a float, or an array; the result is
    congruent to the input mod 360.
    """
    w = np.asarray(wrap_to_360(x))
    w = np.where(w > 180.0, w - 360.0, w)
    return float(w) if w.ndim == 0 else w


def wrap_to_360(x):
    """Wrap an angle (degrees) into [0, 360); a scalar gives a float, an array an array."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"angle wrapping requires finite input, got {x!r}")
    w = np.mod(arr, 360.0)
    w = np.where(w >= 360.0, 0.0, w)  # mod can round a tiny negative input up to exactly 360.0
    return float(w) if w.ndim == 0 else w


def yaw_error(phi, theta):
    """Signed misalignment between wind direction ``phi`` and nacelle heading ``theta``.

    Returns wrap_angle(phi - theta), in (-180, 180].
    """
    return wrap_angle(np.asarray(phi, dtype=float) - np.asarray(theta, dtype=float))


def circular_mean_deg(angles_deg) -> float:
    """Mean direction of angles in degrees via unit-vector averaging, in [0, 360)."""
    a = np.asarray(angles_deg, dtype=float)
    if a.size == 0:
        raise ValueError("circular_mean_deg of an empty set is undefined")
    rad = np.deg2rad(a)
    mean = math.atan2(float(np.mean(np.sin(rad))), float(np.mean(np.cos(rad))))
    return wrap_to_360(math.degrees(mean))


class TurbineParams(Record):
    """Physical constants of the simulated turbine.

    Defaults describe a 2 MW machine with an 82 m rotor. The power coefficient
    is not stored: it is calibrated so the cubic law meets rated power exactly
    at rated speed, keeping the curve continuous.
    """

    rho: float = 1.225            # air density, kg/m^3
    rotor_diameter: float = 82.0  # m
    alpha: float = 3.0            # cosine exponent of the yaw-loss law
    v_cut_in: float = 3.5         # m/s
    v_rated: float = 14.0         # m/s
    v_cut_out: float = 25.0       # m/s
    p_rated_kw: float = 2000.0    # kW
    yaw_rate_deg_s: float = 0.3   # deg/s while the yaw drive runs
    p_yaw_drive_kw: float = 18.0  # kW drawn by the yaw drive while running

    def __post_init__(self):
        check_fields(self, rho="(0, inf)", rotor_diameter="(0, inf)", alpha=f"[{ALPHA_MIN}, {ALPHA_MAX}]",
                     p_rated_kw="(0, inf)", yaw_rate_deg_s="(0, inf)", p_yaw_drive_kw="[0, inf)")
        if not (0.0 < self.v_cut_in < self.v_rated < self.v_cut_out):
            raise ValueError("need 0 < v_cut_in < v_rated < v_cut_out, got "
                             f"{self.v_cut_in}, {self.v_rated}, {self.v_cut_out}")

    @property
    def area_m2(self) -> float:
        """Circular swept area of the rotor."""
        return math.pi * (self.rotor_diameter / 2.0) ** 2

    @property
    def power_coefficient(self) -> float:
        """Calibrated so 0.5 * rho * A * v_rated^3 * c equals rated power."""
        return (self.p_rated_kw * 1e3) / (0.5 * self.rho * self.area_m2 * self.v_rated**3)

    to_dict = asdict
    from_dict = classmethod(from_fields)


def power_ideal(v, tp: TurbineParams):
    """Power in kW at perfect alignment: ``power_with_misalignment`` at zero misalignment."""
    return power_with_misalignment(v, 0.0, tp)


def power_with_misalignment(v, gamma_deg, tp: TurbineParams):
    """Power in kW at wind speed ``v`` (m/s) and yaw misalignment ``gamma_deg``.

    Scalars give a float, equal-length arrays an array. Each boundary speed
    belongs to the region above it: zero below ``v_cut_in``; from it the cubic
    law times the loss cos^alpha(gamma), with the cosine clamped at zero for
    |gamma| >= 90 deg; from ``v_rated`` rated power, with no loss modelled;
    zero from ``v_cut_out``. A negative or non-finite speed raises ValueError,
    as does a non-finite misalignment where the loss applies.

    Equal bit for bit to the scalar chain with ``math``: ``np.cos`` of
    ``np.radians`` equals ``math.cos`` of ``math.radians`` (a test pins this),
    ``v**3`` and ``c**alpha`` stay Python float powers, because ``np.power``
    can differ from them in the last bit, and the products run in the order
    0.5 * rho * A * v^3 * c_p * 1e-3 * loss.
    """
    v = np.asarray(v, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma_deg, dtype=float), v.shape)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("wind speed must be finite and >= 0")
    partial = (v >= tp.v_cut_in) & (v < tp.v_rated)
    out = np.where((v >= tp.v_rated) & (v < tp.v_cut_out), tp.p_rated_kw, 0.0)
    g = gamma[partial]
    if not np.all(np.isfinite(g)):
        raise ValueError("misalignment must be finite")
    cube = np.array([x**3 for x in v[partial].tolist()])
    loss = np.array([c**tp.alpha if c > 0.0 else 0.0 for c in np.cos(np.radians(g)).tolist()])
    out[partial] = 0.5 * tp.rho * tp.area_m2 * cube * tp.power_coefficient * 1e-3 * loss
    return float(out) if out.ndim == 0 else out
