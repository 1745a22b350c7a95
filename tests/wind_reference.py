"""Reference implementation of the synthetic generator's AR(1) process, kept for differential tests.

``matched_ar1`` is the form that ``yawbench.wind._matched_ar1`` reproduces
with a Python-float loop: it runs the recurrence over numpy float64 scalars,
reading and writing a preallocated array at every step. The library's output
must equal it bit for bit. ``constant_preset`` is a degenerate generator
spec, constant in direction and speed, that only tests use.
"""

from __future__ import annotations

import numpy as np

from yawbench.wind import GeneratorSpec


def constant_preset(length_s: int = 2000, dir_deg: float = 34.1, v_ms: float = 8.2) -> GeneratorSpec:
    """Degenerate regime: constant direction and speed."""
    return GeneratorSpec(
        length_s=length_s,
        dir_mean_deg=dir_deg,
        dir_std_deg=0.0,
        reversion_rate=0.001,
        ramps=(),
        speed_mean_ms=v_ms,
        speed_std_ms=0.0,
    )


def matched_ar1(rng: np.random.Generator, n: int, a: float) -> np.ndarray:
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = 0.0
    keep = 1.0 - a
    for i in range(1, n):
        x[i] = keep * x[i - 1] + eps[i]
    x -= x.mean()
    s = x.std()
    if s == 0.0:
        return np.zeros(n)
    x /= s
    x = np.clip(x, -3.3, 3.3)
    x -= x.mean()
    x /= x.std()
    return x
