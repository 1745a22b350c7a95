"""Reference implementations of the PPO hot loop, kept for differential tests.

These are the plain per-call statements that ``yawbench.ppo`` reproduces
with one encode per step, a preallocated encoder, a lean batch-of-one
softmax and sampler, and flat-moment Adam: a per-array ``Adam``, an
``np.stack`` encoder, a ``policy_forward`` and ``sample_action`` built from
``keepdims`` reductions, ``cumsum`` and ``searchsorted``, and a ``train``
loop that encodes every observation twice. ``ppo_loss`` is the forward-only
loss the analytic gradients are checked against. The library's outputs must
equal theirs bit for bit.
"""

from __future__ import annotations

import numpy as np

from yawbench import Action, ActorCritic, CycleTrace, PpoConfig, RolloutBuffer, YawEnv, ppo_update
from yawbench.ppo import OBS_FEATURES_PER_ROW, log_softmax


def encode_batch(obs: np.ndarray) -> np.ndarray:
    """(N, j, 4) observations -> (N, j*5) network inputs."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 3 or obs.shape[2] != 4:
        raise ValueError(f"expected observations shaped (N, j, 4), got {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    phi_rad = np.deg2rad(obs[:, :, 2])
    feats = np.stack(
        [
            obs[:, :, 0] - 1.0,
            obs[:, :, 1] / 180.0,
            np.sin(phi_rad),
            np.cos(phi_rad),
            obs[:, :, 3],
        ],
        axis=2,
    )
    return feats.reshape(obs.shape[0], -1)


def encode_observation(obs: np.ndarray) -> np.ndarray:
    return encode_batch(obs[None])[0]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def policy_forward(ac: ActorCritic, obs: np.ndarray) -> tuple[np.ndarray, float]:
    x = encode_observation(np.asarray(obs, dtype=np.float64))[None]
    probs = softmax(ac.policy.forward(x))[0]
    value = float(ac.value.forward(x)[0, 0])
    return probs, value


def sample_action(probs: np.ndarray, rng) -> tuple[Action, float]:
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)) or np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-8:
        raise ValueError(f"degenerate action distribution: {probs!r}")
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    idx = min(idx, 2)
    return Action(idx), float(np.log(p[idx]))


class Adam:
    """Adaptive-moment optimizer with one moment array per parameter array."""

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def train(env: YawEnv, cfg: PpoConfig) -> tuple[ActorCritic, list[dict]]:
    """The rollout loop that encodes each observation for the forward and again for the buffer."""
    rng = np.random.default_rng(cfg.seed)
    ac = ActorCritic.create(env.cfg.j, cfg.hidden, rng)
    adam = Adam([p.shape for p in ac.parameters], lr=cfg.learning_rate)
    buffer = RolloutBuffer(cfg.n_steps, env.cfg.j * OBS_FEATURES_PER_ROW)

    def fresh_episode() -> np.ndarray:
        offset = rng.uniform(-cfg.init_offset_deg, cfg.init_offset_deg) if cfg.init_offset_deg > 0 else 0.0
        return env.reset(rng=rng, init_theta="align", align_offset_deg=offset)

    obs = fresh_episode()
    curve: list[dict] = []
    steps_done = 0
    update_idx = 0
    ep_return = 0.0
    while steps_done < cfg.total_steps:
        buffer.reset()
        episode_returns: list[float] = []
        while not buffer.full:
            probs, value = policy_forward(ac, obs)
            action, logp = sample_action(probs, rng)
            next_obs, reward, done, _ = env.step(action)
            buffer.add(encode_observation(obs), action, logp, reward, value, done)
            ep_return += reward
            if done:
                episode_returns.append(ep_return)
                ep_return = 0.0
                obs = fresh_episode()
            else:
                obs = next_obs
        _, bootstrap = policy_forward(ac, obs)
        buffer.finalize(bootstrap, cfg.discount, cfg.gae_lambda)
        stats = ppo_update(ac, buffer, cfg, adam, rng)
        steps_done += cfg.n_steps
        update_idx += 1
        curve.append(
            {
                "update_idx": update_idx,
                "steps": steps_done,
                "mean_return": float(np.mean(episode_returns)) if episode_returns else float("nan"),
                "policy_loss": stats["policy_loss"],
                "value_loss": stats["value_loss"],
                "entropy": stats["entropy"],
            }
        )
    return ac, curve


def evaluate(ac, env, mode="greedy", rng=None, start_cycle=0) -> CycleTrace:
    """Greedy or stochastic roll-out through the reference forward and sampler."""
    obs = env.reset(start_cycle=start_cycle, init_theta="align", rng=rng)
    records = []
    for _ in range(env.cfg.episode_len):
        probs, _ = policy_forward(ac, obs)
        action = Action(int(np.argmax(probs))) if mode == "greedy" else sample_action(probs, rng)[0]
        obs, _, done, info = env.step(action)
        records.append(info)
        if done:
            break
    return CycleTrace.from_records(records)


def ppo_loss(ac, obs_enc, actions, logp_old, advantages, returns, clip_eps, value_coef, entropy_coef) -> dict:
    """Forward-only PPO loss; the reference for the gradient computation."""
    logits = ac.policy.forward(obs_enc)
    logp_all = log_softmax(logits)
    n = len(actions)
    lp = logp_all[np.arange(n), actions]
    ratio = np.exp(lp - logp_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    probs = np.exp(logp_all)
    entropy = float(np.mean(-np.sum(probs * logp_all, axis=1)))
    v = ac.value.forward(obs_enc)[:, 0]
    value_loss = float(np.mean((v - returns) ** 2))
    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > clip_eps))
    return {
        "total": total,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": clip_fraction,
    }
