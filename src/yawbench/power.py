"""Angle arithmetic and the regioned turbine power curve with yaw-misalignment losses.

All angles are degrees. The sign convention used throughout the package:
positive yaw error means the wind direction sits counterclockwise of the
nacelle heading, and a counterclockwise rotation reduces it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Observed range for the cosine exponent of the yaw-loss law.
ALPHA_MIN = 1.7
ALPHA_MAX = 5.1


def wrap_angle(x):
    """Wrap an angle (degrees) into (-180, 180].

    Accepts a scalar or array; the result is congruent to the input mod 360.
    """
    w = wrap_to_360(x)
    if isinstance(w, float):
        return w - 360.0 if w > 180.0 else w
    return np.where(w > 180.0, w - 360.0, w)


def wrap_to_360(x):
    """Wrap an angle (degrees) into [0, 360).

    A float or int takes a scalar branch: ``x % 360.0`` rounds exactly as
    ``np.mod`` does, so it returns bit for bit what the array branch would.
    """
    if isinstance(x, (float, int)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"angle wrapping requires finite input, got {x!r}")
        w = x % 360.0
        # mod can round a tiny negative input up to exactly 360.0
        return 0.0 if w >= 360.0 else w
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"angle wrapping requires finite input, got {x!r}")
    w = np.mod(arr, 360.0)
    w = np.where(w >= 360.0, 0.0, w)
    return float(w) if w.ndim == 0 else w


def yaw_error(phi, theta):
    """Signed misalignment between wind direction ``phi`` and nacelle heading ``theta``.

    Returns wrap_angle(phi - theta), in (-180, 180].
    """
    if isinstance(phi, float) and isinstance(theta, float):
        return wrap_angle(phi - theta)
    return wrap_angle(np.asarray(phi, dtype=float) - np.asarray(theta, dtype=float))


def circular_mean_deg(angles_deg) -> float:
    """Mean direction of angles in degrees via unit-vector averaging, in [0, 360)."""
    a = np.asarray(angles_deg, dtype=float)
    if a.size == 0:
        raise ValueError("circular_mean_deg of an empty set is undefined")
    rad = np.deg2rad(a)
    mean = math.atan2(float(np.mean(np.sin(rad))), float(np.mean(np.cos(rad))))
    return wrap_to_360(math.degrees(mean))


class PowerRegion(enum.IntEnum):
    """Operating region of the power curve.

    Boundary ownership: v == v_cut_in belongs to PARTIAL, v == v_rated to RATED,
    v == v_cut_out to ABOVE_CUT_OUT.
    """

    BELOW_CUT_IN = 1
    PARTIAL = 2
    RATED = 3
    ABOVE_CUT_OUT = 4


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
        if not (0.0 < self.v_cut_in < self.v_rated < self.v_cut_out):
            raise ValueError(
                "need 0 < v_cut_in < v_rated < v_cut_out, got "
                f"{self.v_cut_in}, {self.v_rated}, {self.v_cut_out}"
            )
        if not (ALPHA_MIN <= self.alpha <= ALPHA_MAX):
            raise ValueError(f"alpha must lie in [{ALPHA_MIN}, {ALPHA_MAX}], got {self.alpha}")
        if self.rho <= 0 or self.rotor_diameter <= 0:
            raise ValueError("rho and rotor_diameter must be positive")
        if self.p_rated_kw <= 0:
            raise ValueError("p_rated_kw must be positive")
        if self.yaw_rate_deg_s <= 0:
            raise ValueError("yaw_rate_deg_s must be positive")
        if self.p_yaw_drive_kw < 0:
            raise ValueError("p_yaw_drive_kw must be non-negative")

    @property
    def area_m2(self) -> float:
        """Circular swept area of the rotor."""
        return math.pi * (self.rotor_diameter / 2.0) ** 2

    @property
    def power_coefficient(self) -> float:
        """Calibrated so 0.5 * rho * A * v_rated^3 * c equals rated power."""
        return (self.p_rated_kw * 1e3) / (0.5 * self.rho * self.area_m2 * self.v_rated**3)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "rotor_diameter": self.rotor_diameter,
            "alpha": self.alpha,
            "v_cut_in": self.v_cut_in,
            "v_rated": self.v_rated,
            "v_cut_out": self.v_cut_out,
            "p_rated_kw": self.p_rated_kw,
            "yaw_rate_deg_s": self.yaw_rate_deg_s,
            "p_yaw_drive_kw": self.p_yaw_drive_kw,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TurbineParams":
        return cls(**d)


def region_of(v: float, tp: TurbineParams) -> PowerRegion:
    """Power-curve region for wind speed ``v`` (m/s, >= 0)."""
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"wind speed must be finite and >= 0, got {v}")
    if v < tp.v_cut_in:
        return PowerRegion.BELOW_CUT_IN
    if v < tp.v_rated:
        return PowerRegion.PARTIAL
    if v < tp.v_cut_out:
        return PowerRegion.RATED
    return PowerRegion.ABOVE_CUT_OUT


def power_ideal(v: float, tp: TurbineParams) -> float:
    """Power in kW at perfect alignment: cubic law below rated, capped at rated,
    zero outside the operating envelope."""
    region = region_of(v, tp)
    if region is PowerRegion.PARTIAL:
        return 0.5 * tp.rho * tp.area_m2 * v**3 * tp.power_coefficient * 1e-3
    if region is PowerRegion.RATED:
        return tp.p_rated_kw
    return 0.0


def yaw_loss_factor(gamma_deg: float, alpha: float) -> float:
    """Fraction of aligned power retained at misalignment ``gamma_deg``.

    cos^alpha of the misalignment, with the cosine clamped at zero for
    |gamma| >= 90 deg (a negative base is unphysical for power).
    """
    if not math.isfinite(gamma_deg):
        raise ValueError(f"misalignment must be finite, got {gamma_deg}")
    c = math.cos(math.radians(gamma_deg))
    if c <= 0.0:
        return 0.0
    return c**alpha


def power_with_misalignment(v: float, gamma_deg: float, tp: TurbineParams) -> float:
    """Power in kW at wind speed ``v`` and yaw misalignment ``gamma_deg``.

    The cosine-exponent loss applies only in the partial-load region; at rated
    the turbine already produces its cap and no loss is modelled, and outside
    the envelope the output is zero anyway.
    """
    p = power_ideal(v, tp)
    if region_of(v, tp) is PowerRegion.PARTIAL:
        return p * yaw_loss_factor(gamma_deg, tp.alpha)
    return p


def power_with_misalignment_array(v, gamma_deg, tp: TurbineParams) -> np.ndarray:
    """``power_with_misalignment`` over equal-length arrays, bit for bit.

    The regions take the boundary ownership of ``region_of``. ``np.cos`` of
    ``np.radians`` equals ``math.cos`` of ``math.radians`` (one multiply by
    the same constant, then the same cosine; a test pins this), while
    ``v**3`` and ``c**alpha`` stay Python float powers, because ``np.power``
    can differ from them in the last bit. The products run in the operand
    order of ``power_ideal``.
    """
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma_deg, dtype=float)
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
    return out
