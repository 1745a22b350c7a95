"""Determinism pins: seeded outputs hashed to fixed sha256 digests.

The differential tests compare each fast path with its reference on small
inputs; these pins hold the end results of the seeded pipeline (a full-length
synthetic series, a toy training run and its greedy evaluation) to fixed
bits, so any change that moves a bit fails here and not only in the
benchmark's output digests. The weight, learning-curve and checkpoint pins
are those of the float32 networks and Adam; the series, greedy-trace and
CYCA-S pins did not move with them. The toy run's checkpoint file is pinned
as the version-5 codec writes it, and so are the
threshold baseline's calibration usages and per-second simulation on seeded
variable wind. A short run of the default network (64, 64 hidden, j = 12)
pins the BLAS calls at the shapes the benchmark trains, which the (16, 16)
toy does not reach.
"""

import hashlib
import json

import numpy as np
import pytest

from yawbench.baseline import CycaConfig, calibrate_threshold, run_cyca_s
from yawbench.env import TRACE_COLUMNS, EnvConfig, YawEnv, eval_env_config
from yawbench.power import TurbineParams
from yawbench.ppo import PpoConfig, evaluate, save_checkpoint, train
from yawbench.wind import fit_standardizer, generate_synthetic, split_train_test, steady_preset, variable_preset

SERIES_SHA256 = "45c7c2f8f9e847c9298e14d566b570db64ab9d74fabc492696cced62deda10e1"
WEIGHTS_SHA256 = "6093ea054d2581c30aebc87a880a5721f315abc64a06ed51d9762908fa658b16"
CURVE_SHA256 = "c99518a6125c7d0d3f3119e322ccbf0f8f56d594a440eb0c7d40443f0f67b662"
GREEDY_TRACE_SHA256 = "b26861d8c912f6ded62850e2d39d4a9ffea527d0f2e668b9046d452b3926a3bc"
CHECKPOINT_SHA256 = "946ac9e0d1dd399948435106382f830871b0edf53f91698ce67faa20cb63a4ee"
PROD_WEIGHTS_SHA256 = "91e5839aba22e7eeb98a75eeea9cd9540f60af8edf1d70d3c96ef4d5998b5cbe"
PROD_CURVE_SHA256 = "a91633c49fc591073346af2c61020041c35410abf122580d57d6796eddd9c1e6"
PROD_GREEDY_TRACE_SHA256 = "3d19d174590321f78e180eba53e14496a9faed531563ff9ecf2b14c2bf42427f"
CYCA_S_SHA256 = "25752c66a598eb9a14c28c5aabcba176cd476348613c382b8c84233f0fd607bd"


def sha256_of(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def series():
    return generate_synthetic(steady_preset(21000), 1)


@pytest.fixture(scope="module")
def toy_run(series):
    """A toy training run on the train half, a full-span greedy evaluation on the
    test half, and the two configs of the run."""
    train_half, test_half = split_train_test(series)
    env_cfg = EnvConfig(standardizer=fit_standardizer(train_half))
    cfg = PpoConfig(n_steps=128, total_steps=256, hidden=(16, 16), seed=1)
    ac, curve = train(YawEnv(train_half, env_cfg), cfg)
    trace = evaluate(ac, YawEnv(test_half, eval_env_config(test_half, env_cfg)))
    return ac, curve, trace, env_cfg, cfg


def test_synthetic_series(series):
    assert sha256_of(series.t, series.phi, series.v) == SERIES_SHA256


def test_trained_weights(toy_run):
    assert sha256_of(toy_run[0].flat_params) == WEIGHTS_SHA256


def test_learning_curve(toy_run):
    # repr of a float round-trips, so the JSON text holds every bit; a nan
    # mean_return is written as NaN.
    assert hashlib.sha256(json.dumps(toy_run[1], sort_keys=True).encode()).hexdigest() == CURVE_SHA256


def test_greedy_trace(toy_run):
    trace = toy_run[2]
    assert sha256_of(*(getattr(trace, name) for name in TRACE_COLUMNS)) == GREEDY_TRACE_SHA256


def test_checkpoint_file(toy_run, tmp_path):
    ac, _, _, env_cfg, cfg = toy_run
    save_checkpoint(tmp_path / "ck.json", ac, env_cfg, cfg)
    assert hashlib.sha256((tmp_path / "ck.json").read_bytes()).hexdigest() == CHECKPOINT_SHA256


def test_production_shape_run(series):
    """One 256-step update (two epochs) of the default (64, 64), j = 12 networks on the
    train half, and the full-span greedy evaluation on the test half."""
    train_half, test_half = split_train_test(series)
    env_cfg = EnvConfig(standardizer=fit_standardizer(train_half))
    cfg = PpoConfig(n_steps=256, total_steps=256, epochs=2, seed=1)
    assert cfg.hidden == (64, 64) and env_cfg.j == 12
    ac, curve = train(YawEnv(train_half, env_cfg), cfg)
    trace = evaluate(ac, YawEnv(test_half, eval_env_config(test_half, env_cfg)))
    assert sha256_of(ac.flat_params) == PROD_WEIGHTS_SHA256
    assert hashlib.sha256(json.dumps(curve, sort_keys=True).encode()).hexdigest() == PROD_CURVE_SHA256
    assert sha256_of(*(getattr(trace, name) for name in TRACE_COLUMNS)) == PROD_GREEDY_TRACE_SHA256


def test_cyca_s_calibration_and_simulation():
    # calibrated on the train half over the benchmark's grid, then run on the test half
    train_half, test_half = split_train_test(generate_synthetic(variable_preset(21000), 1))
    tp = TurbineParams()
    grid = (300.0, 2500.0, 20000.0)
    thr, usages = calibrate_threshold(train_half, CycaConfig(), tp, float(train_half.phi[0]), grid)
    _, inner = run_cyca_s(test_half, CycaConfig(threshold=thr), tp, float(test_half.phi[0]), return_inner=True)
    digest = sha256_of(np.array(usages), inner["t"], inner["theta"], inner["acc"], inner["yawing"])
    assert digest == CYCA_S_SHA256
