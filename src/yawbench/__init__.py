"""Simulation and benchmarking toolkit for wind-turbine yaw control.

A discrete-time yaw environment driven by real or synthetic wind logs, a
PPO-trained controller, a conventional cumulative-error threshold baseline,
and the metrics to compare them (alignment, energy, yaw usage, and yaw-drive
consumption).
"""

__version__ = "0.1.0"

from .power import (
    TurbineParams,
    circular_mean_deg,
    power_ideal,
    power_with_misalignment,
    wrap_angle,
    wrap_to_360,
    yaw_error,
)
from .wind import (
    GeneratorSpec,
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
)
from .env import (
    Action,
    CycleTrace,
    EnvConfig,
    YawEnv,
    cycle_stats,
    eval_env_config,
    n_cycles,
)
from .baseline import (
    CycaConfig,
    NacelleLog,
    calibrate_threshold,
    load_nacelle_log,
    replay_cyca_l,
    run_cyca_s,
    save_nacelle_log,
)
from .ppo import (
    ActorCritic,
    Adam,
    Mlp,
    PpoConfig,
    compute_gae,
    encode_observation,
    evaluate,
    load_checkpoint,
    policy_forward,
    ppo_loss_and_grads,
    ppo_update,
    sample_action,
    save_checkpoint,
    train,
)
from .metrics import (
    Comparison,
    MetricsReport,
    align_traces,
    compare,
    compute_metrics,
    yaw_consumption_delta,
)
