"""Reference power curve, kept for differential tests.

The scalar chain ``region_of`` -> ``power_ideal`` -> ``yaw_loss_factor`` ->
``power_with_misalignment`` states the curve one speed at a time, with the
regions as an enum. ``yawbench.power.power_with_misalignment`` computes it
over scalars or arrays and must equal it bit for bit; the reference
environment and the reference baseline price their cycles with it.
"""

from __future__ import annotations

import enum
import math

from yawbench import TurbineParams


class PowerRegion(enum.IntEnum):
    """Operating region of the power curve.

    Boundary ownership: v == v_cut_in belongs to PARTIAL, v == v_rated to RATED,
    v == v_cut_out to ABOVE_CUT_OUT.
    """

    BELOW_CUT_IN = 1
    PARTIAL = 2
    RATED = 3
    ABOVE_CUT_OUT = 4


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
