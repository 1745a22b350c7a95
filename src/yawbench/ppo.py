"""Actor-critic PPO on a hand-rolled dense network stack.

Two separate tanh MLPs (two hidden layers of 64 by default) map the flattened
lagged state to action logits and to a state value. Updates use the clipped
surrogate objective over shuffled minibatches with advantages from generalized
advantage estimation, driven by an adaptive-moment first-order optimizer.
Everything is float64 numpy; a fixed seed reproduces training bit for bit.

Observations enter the networks re-encoded per row: the action code centered
to {-1, 0, 1}, the misalignment scaled by 1/180, the wind direction mapped to
its (sin, cos) pair (raw degrees are discontinuous at the seam), and the
standardized speed as is - five features per lagged row.

The networks are small, so a step costs numpy call overhead, not arithmetic.
Training encodes each observation once, for the networks and the buffer; the
batch-of-one softmax and the sampler avoid ``keepdims`` reductions and
``searchsorted``; Adam updates flat moment arrays. Each keeps the operations
and their order, so results are bit-identical to the per-call forms. The
softmax keeps ``np.exp``: ``math.exp`` differs from it in the last bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .env import Action, CycleTrace, EnvConfig, YawEnv
from .wind import write_csv_columns

CHECKPOINT_FORMAT = "yawbench-checkpoint"
CHECKPOINT_VERSION = 1

OBS_FEATURES_PER_ROW = 5


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 0.003
    n_steps: int = 2048        # transitions collected per update
    batch_size: int = 64
    epochs: int = 10           # passes over the buffer per update
    discount: float = 0.99
    gae_lambda: float = 0.95
    total_steps: int = 200_000
    clip_eps: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    seed: int = 0
    hidden: tuple[int, int] = (64, 64)
    init_offset_deg: float = 0.0  # training episodes start misaligned by U(-x, x)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        for name in ("n_steps", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden layer widths must be positive, got {self.hidden}")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        for name in ("learning_rate", "clip_eps", "value_coef", "entropy_coef", "init_offset_deg"):
            x, positive = getattr(self, name), name in ("learning_rate", "clip_eps")
            if not math.isfinite(x) or x < 0 or (positive and x == 0):
                raise ValueError(f"{name} must be finite and {'positive' if positive else '>= 0'}, got {x}")
        if self.n_steps % self.batch_size != 0:
            raise ValueError(
                f"n_steps ({self.n_steps}) must be divisible by batch_size ({self.batch_size})"
            )
        if self.total_steps < self.n_steps:
            raise ValueError("total_steps must cover at least one rollout of n_steps")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PpoConfig":
        d = dict(d)
        d["hidden"] = tuple(d.get("hidden", (64, 64)))
        return cls(**d)


class Mlp:
    """Dense network with tanh hidden activations and a linear output layer."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @classmethod
    def create(cls, sizes: tuple[int, ...], rng: np.random.Generator) -> "Mlp":
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    @property
    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            acts.append(h)
        return h @ self.weights[-1] + self.biases[-1], acts

    def backward(self, acts: list[np.ndarray], d_out: np.ndarray) -> list[np.ndarray]:
        """Gradients w.r.t. every parameter, ordered like ``parameters``."""
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        d_h = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[layer]
            grads[2 * layer] = a_prev.T @ d_h
            grads[2 * layer + 1] = d_h.sum(axis=0)
            if layer > 0:
                d_h = (d_h @ self.weights[layer].T) * (1.0 - acts[layer] ** 2)
        return grads

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        return cls(
            [np.array(w, dtype=np.float64) for w in d["weights"]],
            [np.array(b, dtype=np.float64) for b in d["biases"]],
        )


class ActorCritic:
    """Policy network (3 logits) and value network (scalar) over the encoded state."""

    def __init__(self, policy: Mlp, value: Mlp, lag_depth: int):
        self.policy = policy
        self.value = value
        self.lag_depth = lag_depth

    @classmethod
    def create(cls, lag_depth: int, hidden: tuple[int, int], rng: np.random.Generator) -> "ActorCritic":
        in_dim = lag_depth * OBS_FEATURES_PER_ROW
        policy = Mlp.create((in_dim, *hidden, 3), rng)
        value = Mlp.create((in_dim, *hidden, 1), rng)
        return cls(policy, value, lag_depth)

    @property
    def parameters(self) -> list[np.ndarray]:
        return self.policy.parameters + self.value.parameters


def encode_observation(obs: np.ndarray) -> np.ndarray:
    """Flatten one j x 4 observation into the network input vector."""
    return encode_batch(obs[None])[0]


def encode_batch(obs: np.ndarray) -> np.ndarray:
    """(N, j, 4) observations -> (N, j*5) network inputs."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 3 or obs.shape[2] != 4:
        raise ValueError(f"expected observations shaped (N, j, 4), got {obs.shape}")
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    out = np.empty(obs.shape[:2] + (OBS_FEATURES_PER_ROW,))
    np.subtract(obs[:, :, 0], 1.0, out=out[:, :, 0])
    np.divide(obs[:, :, 1], 180.0, out=out[:, :, 1])
    phi_rad = np.deg2rad(obs[:, :, 2])
    np.sin(phi_rad, out=out[:, :, 2])
    np.cos(phi_rad, out=out[:, :, 3])
    out[:, :, 4] = obs[:, :, 3]
    return out.reshape(obs.shape[0], -1)


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = np.max(z, axis=-1, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True))


def _forward_encoded(ac: ActorCritic, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for one encoded row ``x``."""
    x = x[None]  # keep the (1, n) @ W products of the batched forward
    logits = ac.policy.forward(x)[0]
    e = np.exp(logits - logits.max())
    return e / e.sum(), float(ac.value.forward(x)[0, 0])


def policy_forward(ac: ActorCritic, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for one raw j x 4 observation."""
    return _forward_encoded(ac, encode_observation(np.asarray(obs, dtype=np.float64)))


_ACTIONS = tuple(Action)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> tuple[Action, float]:
    """Draw one action categorically; returns it with its log-probability."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (3,) or not np.isfinite(p).all() or (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-8:
        raise ValueError(f"degenerate action distribution: {probs!r}")
    p0, p1, _ = p.tolist()  # p0 and p0 + p1 are the values np.cumsum gives
    u = rng.random()
    idx = 0 if u < p0 else 1 if u < p0 + p1 else 2
    return _ACTIONS[idx], float(np.log(p[idx]))


def compute_gae(
    rewards,
    values,
    dones,
    bootstrap_value: float,
    discount: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one rollout.

    delta_t = r_t + discount * v_{t+1} * (1 - done_t) - v_t with the value after
    the last step supplied as ``bootstrap_value``; advantages accumulate
    delta_t + discount * lambda * (1 - done_t) * A_{t+1}, and returns are
    advantages + values.
    """
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


class RolloutBuffer:
    """Fixed-size on-policy storage for one update's worth of transitions."""

    def __init__(self, n_steps: int, in_dim: int):
        self.n_steps = n_steps
        self.obs = np.zeros((n_steps, in_dim))
        self.actions = np.zeros(n_steps, dtype=np.int64)
        self.logp = np.zeros(n_steps)
        self.rewards = np.zeros(n_steps)
        self.values = np.zeros(n_steps)
        self.dones = np.zeros(n_steps, dtype=bool)
        self.advantages: np.ndarray | None = None
        self.returns: np.ndarray | None = None
        self.idx = 0

    @property
    def full(self) -> bool:
        return self.idx >= self.n_steps

    def add(self, obs_enc, action, logp, reward, value, done) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self.idx
        self.obs[i] = obs_enc
        self.actions[i] = int(action)
        self.logp[i] = logp
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = done
        self.idx += 1

    def finalize(self, bootstrap_value: float, discount: float, gae_lambda: float) -> None:
        if not self.full:
            raise RuntimeError("cannot finalize a partially filled buffer")
        self.advantages, self.returns = compute_gae(
            self.rewards, self.values, self.dones, bootstrap_value, discount, gae_lambda
        )

    def reset(self) -> None:
        self.idx = 0
        self.advantages = None
        self.returns = None


def ppo_loss_and_grads(
    ac: ActorCritic,
    obs_enc: np.ndarray,
    actions: np.ndarray,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    clip_eps: float,
    value_coef: float,
    entropy_coef: float,
) -> tuple[dict, list[np.ndarray]]:
    """PPO loss with analytic gradients for every parameter of both networks."""
    n = len(actions)
    logits, p_acts = ac.policy.forward_cached(obs_enc)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    lp = logp_all[np.arange(n), actions]
    ratio = np.exp(lp - logp_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.mean(surrogate))
    entropy_rows = -np.sum(probs * logp_all, axis=1)
    entropy = float(np.mean(entropy_rows))

    v_out, v_acts = ac.value.forward_cached(obs_enc)
    v = v_out[:, 0]
    diff = v - returns
    value_loss = float(np.mean(diff**2))

    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    if not math.isfinite(total):
        raise FloatingPointError(
            f"non-finite PPO loss: policy={policy_loss}, value={value_loss}, entropy={entropy}"
        )

    # d(policy_loss)/d(logp_new): only where the unclipped branch is active.
    active = (unclipped <= clipped).astype(np.float64)
    d_lp = -(advantages * ratio * active) / n
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), actions] = 1.0
    d_logits = d_lp[:, None] * (onehot - probs)
    # -entropy_coef * mean(H): dH/dz_j = -p_j (logp_j + H).
    if entropy_coef != 0.0:
        d_logits += (entropy_coef / n) * probs * (logp_all + entropy_rows[:, None])
    grads_policy = ac.policy.backward(p_acts, d_logits)

    d_v = (value_coef * 2.0 / n) * diff
    grads_value = ac.value.backward(v_acts, d_v[:, None])

    stats = {
        "total": total,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > clip_eps)),
    }
    return stats, grads_policy + grads_value


class Adam:
    """Adaptive-moment optimizer over a list of parameter arrays.

    The moments of all parameters live in two flat arrays, updated with
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= lr*(m/b1c) / (sqrt(v/b2c) + eps)`` in the operand order of the
    per-array form, so the result is the same to the bit.
    """

    def __init__(self, shapes: list[tuple], lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        self.m, self.v = np.zeros(ends[-1]), np.zeros(ends[-1])
        self._g, self._step = np.empty(ends[-1]), np.empty(ends[-1])  # scratch: gradients, step
        self._step_views = [self._step[lo:hi].reshape(s) for lo, hi, s in zip(ends, ends[1:], shapes)]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, g, step = self.m, self.v, self._g, self._step
        np.concatenate(grads, axis=None, out=g)
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=step)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, b1c, out=step)
        np.multiply(self.lr, step, out=step)
        denom = np.divide(v, b2c, out=g)  # the gradients are spent
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        for p, d in zip(params, self._step_views):
            p -= d


def ppo_update(
    ac: ActorCritic,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> dict:
    """One PPO update: ``epochs`` passes over shuffled minibatches of the buffer.

    Advantages are normalized to mean 0 / std 1 once per update. Raises
    FloatingPointError (leaving parameters at their last finite state) if a
    minibatch loss turns non-finite.
    """
    if not buffer.full or buffer.advantages is None:
        raise RuntimeError("buffer must be full and finalized before an update")
    adv = buffer.advantages
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    n = buffer.n_steps
    agg = {"total": 0.0, "policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_fraction": 0.0}
    batches = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            stats, grads = ppo_loss_and_grads(
                ac,
                buffer.obs[idx],
                buffer.actions[idx],
                buffer.logp[idx],
                adv[idx],
                buffer.returns[idx],
                cfg.clip_eps,
                cfg.value_coef,
                cfg.entropy_coef,
            )
            adam.step(ac.parameters, grads)
            for key in agg:
                agg[key] += stats[key]
            batches += 1
    return {key: val / batches for key, val in agg.items()}


def train(env: YawEnv, cfg: PpoConfig) -> tuple[ActorCritic, list[dict]]:
    """Train on ``env``, alternating n-step rollouts and clipped updates.

    Episodes restart (at rng-drawn windows, nacelle aligned up to a random
    offset of at most ``init_offset_deg``) whenever one finishes mid-rollout.
    Returns the trained networks and the learning-curve records, one per
    update: update_idx, steps, mean_return, policy_loss, value_loss, entropy.
    """
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
            x = encode_observation(obs)
            probs, value = _forward_encoded(ac, x)
            action, logp = sample_action(probs, rng)
            next_obs, reward, done, _ = env.step(action)
            buffer.add(x, action, logp, reward, value, done)
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


CURVE_COLUMNS = ("update_idx", "steps", "mean_return", "policy_loss", "value_loss", "entropy")


def save_learning_curve(path, curve: list[dict]) -> None:
    counts = [np.array([rec[c] for rec in curve], dtype=int) for c in CURVE_COLUMNS[:2]]
    floats = [np.array([rec[c] for rec in curve], dtype=float) for c in CURVE_COLUMNS[2:]]
    write_csv_columns(path, CURVE_COLUMNS, *counts, *floats)


def evaluate(
    ac: ActorCritic,
    env: YawEnv,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    n_steps: int | None = None,
    start_cycle: int | None = 0,
    init_theta: float | str = "align",
    align_offset_deg: float = 0.0,
) -> CycleTrace:
    """Roll the policy over ``env`` and return the per-cycle trace.

    Greedy mode takes the argmax action (ties resolve to the lowest action
    code); stochastic mode samples and needs ``rng``. Never mutates the
    networks.
    """
    if mode not in ("greedy", "stochastic"):
        raise ValueError(f"mode must be 'greedy' or 'stochastic', got {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic evaluation needs an rng")
    obs = env.reset(
        start_cycle=start_cycle, init_theta=init_theta, align_offset_deg=align_offset_deg, rng=rng
    )
    limit = env.cfg.episode_len if n_steps is None else n_steps
    records = []
    for _ in range(limit):
        probs, _ = policy_forward(ac, obs)
        if mode == "greedy":
            action = Action(int(np.argmax(probs)))
        else:
            action, _ = sample_action(probs, rng)
        obs, _, done, info = env.step(action)
        records.append(info)
        if done:
            break
    return CycleTrace.from_records(records)


def save_checkpoint(path, ac: ActorCritic, env_cfg: EnvConfig, ppo_cfg: PpoConfig) -> None:
    """Structured-text checkpoint carrying the networks and the exact
    environment settings they were trained with, so evaluation is
    self-contained."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "lag_depth": ac.lag_depth,
        "policy": ac.policy.to_dict(),
        "value": ac.value.to_dict(),
        "env": env_cfg.to_dict(),
        "ppo": ppo_cfg.to_dict(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # dumps runs the C encoder; dump would stream through the pure-Python one.
    text = json.dumps(payload, sort_keys=True) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _load_network(path: Path, payload: dict, name: str, in_dim: int, out_dim: int) -> Mlp:
    """The ``name`` network, checked to chain in_dim -> out_dim with finite weights."""
    try:
        net = Mlp.from_dict(payload[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name}: unreadable network: {exc}") from exc
    width = in_dim
    if not net.weights or len(net.weights) != len(net.biases):
        raise ValueError(f"{path}: {name}: {len(net.weights)} weight and {len(net.biases)} bias arrays")
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if w.ndim != 2 or w.shape[0] != width:
            raise ValueError(f"{path}: {name}.weights[{i}] has shape {w.shape}, expected ({width}, n)")
        if b.shape != (w.shape[1],):
            raise ValueError(f"{path}: {name}.biases[{i}] has shape {b.shape}, expected ({w.shape[1]},)")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: {name}: layer {i} holds non-finite weights")
        width = w.shape[1]
    if width != out_dim:
        raise ValueError(f"{path}: {name}: {width} outputs, expected {out_dim}")
    return net


def _load_config(path: Path, payload: dict, name: str, cls):
    """The ``name`` config section; a missing, unknown or bad key raises ValueError naming the file."""
    try:
        return cls.from_dict(payload[name])
    except KeyError as exc:
        raise ValueError(f"{path}: {name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name}: {exc}") from exc


def load_checkpoint(path) -> tuple[ActorCritic, EnvConfig, PpoConfig]:
    """Read a ``save_checkpoint`` file; raises ValueError naming the file and
    the field unless every key is present and known, ``lag_depth`` equals the
    env config's ``j``, both networks take ``lag_depth`` x 5 inputs and every
    weight is finite."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path) as f:
        payload = json.load(f)
    if payload.get("format") != CHECKPOINT_FORMAT or payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file"
        )
    for key in ("env", "lag_depth", "ppo", "policy", "value"):
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    env_cfg = _load_config(path, payload, "env", EnvConfig)
    ppo_cfg = _load_config(path, payload, "ppo", PpoConfig)
    try:
        lag_depth = int(payload["lag_depth"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: lag_depth: {exc}") from exc
    if lag_depth != env_cfg.j:
        raise ValueError(f"{path}: lag_depth {lag_depth} differs from the env config's j={env_cfg.j}")
    in_dim = lag_depth * OBS_FEATURES_PER_ROW
    ac = ActorCritic(
        _load_network(path, payload, "policy", in_dim, 3),
        _load_network(path, payload, "value", in_dim, 1),
        lag_depth,
    )
    return ac, env_cfg, ppo_cfg
