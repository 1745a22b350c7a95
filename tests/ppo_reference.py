"""Reference implementations of the PPO hot loop, kept for differential tests.

These are the plain per-call statements that ``yawbench.ppo`` reproduces
with one encode per step, a preallocated encoder, a lean batch-of-one
softmax and sampler, values taken after the rollout in one stacked forward,
and Adam on one flat vector: a per-array ``Adam``, an ``np.stack`` encoder,
a ``policy_forward`` and ``sample_action`` built from ``keepdims``
reductions, ``cumsum`` and ``searchsorted``, a ``compute_gae`` loop over
numpy scalars, and a ``train`` loop that encodes every observation twice and
runs the value network at every step. ``train`` and ``evaluate`` run on the
reference environment of ``env_reference``, built from the series and config
of the env they are given; greedy ``evaluate`` takes ``np.argmax`` of the
probabilities. ``greedy_action`` is that softmax-then-argmax rule on three
logits, the reference for the library's ranking of the logits themselves.
``policy_probs`` is the rollout's softmax on the ``(1, k)`` row that the
library passes 1-D to its inference-only ``Mlp.forward``; ``policy_forward``
runs ``forward_cached`` on that row too.
``ppo_loss_and_grads`` is the loss with a ``keepdims`` ``log_softmax``,
``np.sum`` and ``np.mean`` reductions, ``np.clip``, a one-hot written by
fancy indexing, and gradients in freshly allocated arrays; its loss alone,
``ppo_loss``, is what the analytic gradients are checked against by finite
differences. Each reference runs at the network's dtype: the networks'
inputs are rounded to it and ``Adam``'s moments take it (float32 by default),
while the softmax before the sampler normalizes in float64, as the library
does. The library's outputs must equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

import env_reference
from yawbench.env import OBS_FEATURES_PER_ROW, Action, CycleTrace, YawEnv
from yawbench.ppo import ActorCritic, PpoConfig, ppo_update


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


def create_parameters(lag_depth, hidden, rng) -> list[np.ndarray]:
    """The parameters of both networks as separate float32 arrays, in the draw order
    of ``ActorCritic.create``: N(0, 1/fan_in) weights drawn in float64, zero biases, policy first."""
    in_dim = lag_depth * OBS_FEATURES_PER_ROW
    out = []
    for sizes in ((in_dim, *hidden, 3), (in_dim, *hidden, 1)):
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            out += [rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in), np.zeros(fan_out)]
    return [p.astype(np.float32) for p in out]


def encode_observation(obs: np.ndarray) -> np.ndarray:
    return encode_batch(obs[None])[0]


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = np.max(z, axis=-1, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def policy_forward(ac: ActorCritic, obs: np.ndarray) -> tuple[np.ndarray, float]:
    x = encode_observation(np.asarray(obs, dtype=np.float64))[None].astype(ac.flat_params.dtype)
    probs = softmax(ac.policy.forward_cached(x)[0].astype(np.float64))[0]
    value = float(ac.value.forward_cached(x)[0][0, 0])
    return probs, value


def policy_probs(ac: ActorCritic, x: np.ndarray) -> np.ndarray:
    """The rollout's batch-of-one softmax, in float64, on the ``(1, k)`` row ``x[None]``, through ``forward_cached``."""
    logits = ac.policy.forward_cached(x[None])[0][0].astype(np.float64)
    e = np.exp(logits - max(logits.tolist()))
    e0, e1, e2 = e.tolist()
    return e / ((e0 + e1) + e2)


def greedy_action(logits: np.ndarray) -> int:
    """The greedy rule of the float64 softmax: the lowest index of the largest probability of three
    logits; ValueError unless every probability is finite."""
    with np.errstate(invalid="ignore"):  # inf - inf
        probs = softmax(np.asarray(logits, dtype=np.float64))
    if not np.isfinite(probs).all():
        raise ValueError(f"degenerate action distribution: {probs!r}")
    return int(np.argmax(probs))


def sample_action(probs: np.ndarray, rng) -> tuple[Action, float]:
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)) or np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-8:
        raise ValueError(f"degenerate action distribution: {probs!r}")
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    idx = min(idx, 2)
    return Action(idx), float(np.log(p[idx]))


def compute_gae(rewards, values, dones, bootstrap_value, discount, gae_lambda):
    """The advantage loop indexing numpy arrays, so it runs on numpy float64 scalars."""
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=bool)
    if not (r.shape == v.shape == d.shape) or r.ndim != 1:
        raise ValueError(f"mismatched rollout lengths: {r.shape}, {v.shape}, {d.shape}")
    n = len(r)
    adv = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if d[t] else 1.0
        v_next = bootstrap_value if t == n - 1 else v[t + 1]
        delta = r[t] + discount * v_next * nonterminal - v[t]
        last = delta + discount * gae_lambda * nonterminal * last
        adv[t] = last
    return adv, adv + v


def split(flat, shapes) -> list[np.ndarray]:
    """Views of consecutive arrays of ``shapes`` into the flat vector ``flat``."""
    out, lo = [], 0
    for s in shapes:
        out.append(flat[lo : lo + math.prod(s)].reshape(s))
        lo += out[-1].size
    return out


class Adam:
    """Adaptive-moment optimizer with one moment array per parameter array.

    ``step`` takes the flat parameter and gradient vectors of the library's
    ``Adam`` and updates each array of ``shapes`` on its own view; the moments
    are ``dtype``, the parameters', and a subnormal first moment is set to zero.
    """

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8, dtype=np.float32):
        self.shapes = shapes
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s, dtype=dtype) for s in shapes]
        self.v = [np.zeros(s, dtype=dtype) for s in shapes]

    def step(self, params, grads) -> None:
        params, grads = split(params, self.shapes), split(grads, self.shapes)
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            m[np.abs(m) < np.finfo(m.dtype).smallest_normal] = 0.0
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def train(env: YawEnv, cfg: PpoConfig) -> tuple[ActorCritic, list[dict]]:
    """The rollout loop that collects each step in lists, encodes each observation for the
    forward and again for the rollout, and takes each step's value with a batch-of-one
    forward as it goes."""
    env = env_reference.YawEnv(env.series, env.cfg)
    rng = np.random.default_rng(cfg.seed)
    ac = ActorCritic.create(env.cfg.j, cfg.hidden, rng)
    adam = Adam([p.shape for p in ac.parameters], lr=cfg.learning_rate)

    def fresh_episode() -> np.ndarray:
        offset = rng.uniform(-cfg.init_offset_deg, cfg.init_offset_deg) if cfg.init_offset_deg > 0 else 0.0
        start = int(rng.integers(0, env.max_start_cycle + 1))
        return env.reset(start, env._phi_c[start] + offset)

    obs = fresh_episode()
    curve: list[dict] = []
    steps_done = 0
    update_idx = 0
    ep_return = 0.0
    while steps_done < cfg.total_steps:
        episode_returns: list[float] = []
        rows = []
        for _ in range(cfg.n_steps):
            probs, value = policy_forward(ac, obs)
            action, logp = sample_action(probs, rng)
            next_obs, reward, done, _ = env.step(action)
            rows.append((encode_observation(obs), int(action), logp, reward, done, value))
            ep_return += reward
            if done:
                episode_returns.append(ep_return)
                ep_return = 0.0
                obs = fresh_episode()
            else:
                obs = next_obs
        _, bootstrap = policy_forward(ac, obs)
        obs_enc, actions, logp_old, rewards, dones, values = map(np.array, zip(*rows))
        advantages, returns = compute_gae(rewards, values, dones, bootstrap, cfg.discount, cfg.gae_lambda)
        stats = ppo_update(ac, obs_enc, actions, logp_old, advantages, returns, cfg, adam, rng)
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


def evaluate(ac, env) -> CycleTrace:
    """Greedy roll-out from cycle 0, nacelle aligned, through the reference forward."""
    env = env_reference.YawEnv(env.series, env.cfg)
    obs = env.reset(0)
    records = []
    for _ in range(env.cfg.episode_len):
        probs, _ = policy_forward(ac, obs)
        obs, _, done, info = env.step(Action(int(np.argmax(probs))))
        records.append(info)
        if done:
            break
    return env_reference.trace_from_records(records)


def backward(net, acts, d_out) -> list[np.ndarray]:
    """Gradients w.r.t. every parameter of ``net``, ordered like ``parameters``, in new arrays."""
    grads = [None] * (2 * len(net.weights))
    d_h = d_out
    for layer in range(len(net.weights) - 1, -1, -1):
        grads[2 * layer] = acts[layer].T @ d_h
        grads[2 * layer + 1] = d_h.sum(axis=0)
        if layer > 0:
            d_h = (d_h @ net.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return grads


def ppo_loss_and_grads(ac, obs_enc, actions, logp_old, advantages, returns, clip_eps, value_coef, entropy_coef):
    """The loss with ``np.mean`` reductions and ``**2``, and gradients in freshly allocated arrays."""
    n = len(actions)
    logits, p_acts = ac.policy.forward_cached(obs_enc)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    lp = logp_all[np.arange(n), actions]
    ratio = np.exp(lp - logp_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    entropy_rows = -np.sum(probs * logp_all, axis=1)
    entropy = float(np.mean(entropy_rows))
    v_out, v_acts = ac.value.forward_cached(obs_enc)
    diff = v_out[:, 0] - returns
    value_loss = float(np.mean(diff**2))
    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    active = (unclipped <= clipped).astype(probs.dtype)
    d_lp = -(advantages * ratio * active) / n
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), actions] = 1.0
    d_logits = d_lp[:, None] * (onehot - probs)
    if entropy_coef != 0.0:
        d_logits += (entropy_coef / n) * probs * (logp_all + entropy_rows[:, None])
    grads = backward(ac.policy, p_acts, d_logits) + backward(ac.value, v_acts, ((value_coef * 2.0 / n) * diff)[:, None])
    stats = {
        "total": total,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > clip_eps)),
    }
    return stats, grads


def ppo_loss(ac, obs_enc, actions, logp_old, advantages, returns, clip_eps, value_coef, entropy_coef) -> dict:
    """The reference loss statistics alone; finite differences of ``total`` check the analytic gradients."""
    return ppo_loss_and_grads(ac, obs_enc, actions, logp_old, advantages, returns, clip_eps, value_coef, entropy_coef)[0]
