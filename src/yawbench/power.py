"""Angle arithmetic and the regioned turbine power curve with yaw-misalignment losses.

All angles are degrees. The sign convention used throughout the package:
positive yaw error means the wind direction sits counterclockwise of the
nacelle heading, and a counterclockwise rotation reduces it.

The power curve is one function over scalars or arrays,
``power_with_misalignment``: zero, the cubic law with the cos^alpha
misalignment loss, rated power, zero. Each boundary speed (cut-in, rated,
cut-out) belongs to the region above it.

``from_fields`` lives here, in the module every other one imports: it is the
strict ``from_dict`` of every config record in the package.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

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
    names = [f.name for f in fields(cls) if f.name not in given]
    unknown = set(d).difference(names)
    if unknown:
        raise TypeError(f"unknown key(s) {sorted(unknown)}")
    return cls(**{name: d[name] for name in names}, **given)


def whole_number(name: str, x, unit: str = "") -> int:
    """``x`` as an int; ValueError naming ``name`` unless it is a positive whole number (of ``unit``)
    that fits an int64. A bool is refused; nan and inf fail the range check before ``%`` runs."""
    if isinstance(x, (bool, np.bool_)) or not (0 < x < math.inf and x % 1 == 0 and int(x) <= _INT64_MAX):
        raise ValueError(f"{name} must be a positive whole number{unit and ' of ' + unit}, got {x}")
    return int(x)


def real_number(name: str, x) -> float:
    """``x`` as a float; ValueError naming ``name`` unless it is a finite int or float (numpy's
    too). A bool, str, bytes or None is refused, not read as 1.0 or parsed."""
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        f = float(x)
    except OverflowError:  # an int past the float range
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{name} must be finite, got {x}")
    return f


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


@dataclass(frozen=True)
class TurbineParams:
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
        for f in fields(self):
            object.__setattr__(self, f.name, real_number(f.name, getattr(self, f.name)))
        if not (0.0 < self.v_cut_in < self.v_rated < self.v_cut_out):
            raise ValueError(
                "need 0 < v_cut_in < v_rated < v_cut_out, got "
                f"{self.v_cut_in}, {self.v_rated}, {self.v_cut_out}"
            )
        if not (ALPHA_MIN <= self.alpha <= ALPHA_MAX):
            raise ValueError(f"alpha must lie in [{ALPHA_MIN}, {ALPHA_MAX}], got {self.alpha}")
        for name in ("rho", "rotor_diameter", "p_rated_kw", "yaw_rate_deg_s"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.p_yaw_drive_kw < 0.0:
            raise ValueError(f"p_yaw_drive_kw must be finite and >= 0, got {self.p_yaw_drive_kw}")

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
