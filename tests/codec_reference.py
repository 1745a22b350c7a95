"""The hand-listed ``to_dict`` codecs the field-derived ones replaced.

Kept as the reference of ``test_codecs.py``: the package's ``to_dict`` must
give these dicts, and ``save_checkpoint`` the bytes of ``checkpoint_text``.
"""

import base64
import json
import struct


def turbine_to_dict(tp) -> dict:
    return {
        "rho": tp.rho,
        "rotor_diameter": tp.rotor_diameter,
        "alpha": tp.alpha,
        "v_cut_in": tp.v_cut_in,
        "v_rated": tp.v_rated,
        "v_cut_out": tp.v_cut_out,
        "p_rated_kw": tp.p_rated_kw,
        "yaw_rate_deg_s": tp.yaw_rate_deg_s,
        "p_yaw_drive_kw": tp.p_yaw_drive_kw,
    }


def env_to_dict(cfg) -> dict:
    return {
        "standardizer_scale": cfg.standardizer.scale,
        "turbine": turbine_to_dict(cfg.turbine),
        "k": cfg.k,
        "j": cfg.j,
        "w": cfg.w,
        "episode_len": cfg.episode_len,
    }


def ppo_to_dict(cfg) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "n_steps": cfg.n_steps,
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        "discount": cfg.discount,
        "gae_lambda": cfg.gae_lambda,
        "total_steps": cfg.total_steps,
        "clip_eps": cfg.clip_eps,
        "value_coef": cfg.value_coef,
        "entropy_coef": cfg.entropy_coef,
        "seed": cfg.seed,
        "hidden": list(cfg.hidden),
        "init_offset_deg": cfg.init_offset_deg,
    }


def report_to_dict(m) -> dict:
    return {
        "avg_yaw_error_deg": m.avg_yaw_error_deg,
        "energy_kwh": m.energy_kwh,
        "angle_covered_deg": m.angle_covered_deg,
        "yaw_count": m.yaw_count,
        "time_yawing_pct": m.time_yawing_pct,
        "yaw_consumption_kwh": m.yaw_consumption_kwh,
        "n_cycles": m.n_cycles,
        "horizon_s": m.horizon_s,
    }


def comparison_to_dict(c) -> dict:
    return {
        "yaw_error_decrease_pct": c.yaw_error_decrease_pct,
        "energy_gain_pct": c.energy_gain_pct,
        "net_energy_gain_pct": c.net_energy_gain_pct,
        "yaw_consumption_delta_kwh": c.yaw_consumption_delta_kwh,
    }


def checkpoint_text(ac, env_cfg, ppo_cfg) -> str:
    """A version-5 checkpoint: both configs and the base64 of every parameter as a
    little-endian float32, policy first, layer by layer."""
    raw = b"".join(struct.pack("<f", x) for p in ac.parameters for x in p.ravel().tolist())
    payload = {
        "format": "yawbench-checkpoint",
        "version": 5,
        "env": env_to_dict(env_cfg),
        "ppo": ppo_to_dict(ppo_cfg),
        "params": base64.b64encode(raw).decode("ascii"),
    }
    return json.dumps(payload, sort_keys=True) + "\n"
