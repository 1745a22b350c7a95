"""Test-suite settings: property tests run a fixed, bounded set of examples.

The profile is derandomized, so every run draws the same examples and a
failure reproduces, and it keeps no example database.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "yawbench",
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("yawbench")
