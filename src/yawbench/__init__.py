"""Simulation and benchmarking toolkit for wind-turbine yaw control.

A discrete-time yaw environment driven by real or synthetic wind logs, a
PPO-trained controller, a conventional cumulative-error threshold baseline,
and the metrics to compare them (alignment, energy, yaw usage, and yaw-drive
consumption). Import each name from its module; ``import yawbench`` loads all six.
"""

__version__ = "0.1.0"

from . import baseline, env, metrics, power, ppo, wind
