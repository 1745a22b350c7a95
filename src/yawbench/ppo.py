"""Actor-critic PPO on a hand-rolled dense network stack.

Two separate tanh MLPs (two hidden layers of 64 by default) map the flattened
lagged state to action logits and to a state value. Updates use the clipped
surrogate objective over shuffled minibatches with advantages from generalized
advantage estimation, driven by an adaptive-moment first-order optimizer.
Everything is float64 numpy; a fixed seed reproduces training bit for bit.

The networks take the observation as ``env.encode_batch`` encodes it, five
features per lagged row. They are small, so a step costs numpy call
overhead, not arithmetic. Training and evaluation read the env's encoded
observation, which the env updates one row per step, and greedy evaluation
runs only the policy network; the batch-of-one softmax and the sampler avoid
``keepdims`` reductions and ``searchsorted``. Each keeps the operations and
their order, so results are bit-identical to the per-call forms. The softmax
keeps ``np.exp``: ``math.exp`` differs from it in the last bit.

The rollout runs only the policy network. The state values GAE needs are
taken after the rollout, ``batch_size`` rows at a time, as a stack of
batch-of-one forwards (``Mlp.forward_rows``): numpy's ``matmul`` makes the
same BLAS call for each item of an ``(n, 1, k) @ (k, m)`` stack as for a lone
``(1, k) @ (k, m)``, while a flat ``(n, k)`` batch calls another routine
whose results differ in the last bit. The parameters of both networks live
in one flat vector and their gradients in another; each weight and bias is a
reshaped view into them. The backward pass writes into the gradient views,
and Adam updates the parameter vector in one pass. The loss reductions are
the arithmetic of ``np.mean`` (a sum, then a division by the count) without
its call overhead.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .env import OBS_FEATURES_PER_ROW, Action, CycleTrace, EnvConfig, YawEnv, encode_batch
from .power import from_fields, whole_number

CHECKPOINT_FORMAT = "yawbench-checkpoint"
CHECKPOINT_VERSION = 1


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
        for name in ("n_steps", "batch_size", "epochs", "total_steps"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if not (math.isfinite(self.seed) and self.seed >= 0 and self.seed == int(self.seed)):
            raise ValueError(f"seed must be a non-negative whole number, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if not self.hidden:
            raise ValueError("hidden layer widths must be positive, got ()")
        object.__setattr__(self, "hidden", tuple(whole_number("hidden layer width", h) for h in self.hidden))
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
        return {**asdict(self), "hidden": list(self.hidden)}

    from_dict = classmethod(from_fields)


def _layer_views(flat: np.ndarray, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """Weight and bias views into ``flat`` for a network of layer ``sizes``, ordered like ``parameters``."""
    views, lo = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            n = math.prod(shape)
            views.append(flat[lo : lo + n].reshape(shape))
            lo += n
    return views


class Mlp:
    """Dense network with tanh hidden activations and a linear output layer.

    Its weights and biases are views into a flat parameter vector, and their
    gradients views into a flat gradient vector laid out alike.
    """

    def __init__(self, sizes: tuple[int, ...], params: np.ndarray, grads: np.ndarray):
        self.sizes = tuple(sizes)
        self.parameters = _layer_views(params, self.sizes)
        self.gradients = _layer_views(grads, self.sizes)
        self.weights, self.biases = self.parameters[0::2], self.parameters[1::2]

    @staticmethod
    def param_count(sizes: tuple[int, ...]) -> int:
        """The number of parameters of a network of layer ``sizes``."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_rows(self, x: np.ndarray, chunk: int) -> np.ndarray:
        """The output for each row of ``x``, bit-identical to a batch-of-one forward of that row.

        A ``(n, 1, k) @ (k, m)`` stack makes, for each row, the BLAS call of a
        lone ``(1, k) @ (k, m)``; a flat ``(n, k)`` batch calls another routine
        and differs in the last bit. ``chunk`` rows at a time bound the memory.
        """
        out = np.empty((len(x), self.sizes[-1]))
        for lo in range(0, len(x), chunk):
            out[lo : lo + chunk] = self.forward(x[lo : lo + chunk, None, :])[:, 0]
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
            acts.append(h)
        return h @ self.weights[-1] + self.biases[-1], acts

    def backward(self, acts: list[np.ndarray], d_out: np.ndarray) -> None:
        """Write the gradients w.r.t. every parameter into ``gradients``."""
        d_h = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, d_h, out=self.gradients[2 * layer])
            np.sum(d_h, axis=0, out=self.gradients[2 * layer + 1])
            if layer > 0:
                d_h = (d_h @ self.weights[layer].T) * (1.0 - acts[layer] ** 2)

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }


class ActorCritic:
    """Policy network (3 logits) and value network (scalar) over the encoded state.

    Every parameter of both networks lives in one float64 vector,
    ``flat_params``, in ``parameters`` order (policy first); their gradients
    live in ``flat_grads``, laid out alike.
    """

    def __init__(self, policy_sizes: tuple[int, ...], value_sizes: tuple[int, ...], lag_depth: int):
        n_policy = Mlp.param_count(policy_sizes)
        self.flat_params = np.zeros(n_policy + Mlp.param_count(value_sizes))
        self.flat_grads = np.zeros_like(self.flat_params)
        self.policy = Mlp(policy_sizes, self.flat_params[:n_policy], self.flat_grads[:n_policy])
        self.value = Mlp(value_sizes, self.flat_params[n_policy:], self.flat_grads[n_policy:])
        self.lag_depth = lag_depth
        self.parameters = self.policy.parameters + self.value.parameters
        self.gradients = self.policy.gradients + self.value.gradients

    @classmethod
    def create(cls, lag_depth: int, hidden: tuple[int, int], rng: np.random.Generator) -> "ActorCritic":
        """Both networks with N(0, 1/fan_in) weights, policy first, and zero biases."""
        in_dim = lag_depth * OBS_FEATURES_PER_ROW
        ac = cls((in_dim, *hidden, 3), (in_dim, *hidden, 1), lag_depth)
        for w in ac.policy.weights + ac.value.weights:
            w[...] = rng.standard_normal(w.shape) / math.sqrt(w.shape[0])
        return ac


def encode_observation(obs: np.ndarray) -> np.ndarray:
    """Flatten one j x 4 observation into the network input vector."""
    return encode_batch(obs[None])[0]


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = np.max(z, axis=-1, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True))


def _policy_probs(ac: ActorCritic, x: np.ndarray) -> np.ndarray:
    """Action probabilities for one encoded row ``x``."""
    logits = ac.policy.forward(x[None])[0]  # keep the (1, n) @ W products of the batched forward
    e = np.exp(logits - logits.max())
    return e / e.sum()


def policy_forward(ac: ActorCritic, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for one raw j x 4 observation."""
    x = encode_observation(np.asarray(obs, dtype=np.float64))
    return _policy_probs(ac, x), float(ac.value.forward(x[None])[0, 0])


_ACTIONS = tuple(Action)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> tuple[Action, float]:
    """Draw one action categorically; returns it with its log-probability."""
    p = np.asarray(probs, dtype=np.float64)
    p0, p1, p2 = p.tolist() if p.shape == (3,) else (math.nan,) * 3
    # Finite, non-negative and summing to 1: a NaN fails every comparison and
    # an inf the sum. p0 + p1 (+ p2) are the values np.cumsum and np.sum give.
    if not (p0 >= 0.0 and p1 >= 0.0 and p2 >= 0.0 and abs(p0 + p1 + p2 - 1.0) <= 1e-8):
        raise ValueError(f"degenerate action distribution: {probs!r}")
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
        self.dones = np.zeros(n_steps, dtype=bool)
        self.advantages: np.ndarray | None = None
        self.returns: np.ndarray | None = None
        self.idx = 0

    @property
    def full(self) -> bool:
        return self.idx >= self.n_steps

    def add(self, obs_enc, action, logp, reward, done) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        i = self.idx
        self.obs[i] = obs_enc
        self.actions[i] = int(action)
        self.logp[i] = logp
        self.rewards[i] = reward
        self.dones[i] = done
        self.idx += 1

    def finalize(self, values, bootstrap_value: float, discount: float, gae_lambda: float) -> None:
        """Advantages and returns from the state value of each stored step and of the step after."""
        if not self.full:
            raise RuntimeError("cannot finalize a partially filled buffer")
        self.advantages, self.returns = compute_gae(
            self.rewards, values, self.dones, bootstrap_value, discount, gae_lambda
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
    """PPO loss with analytic gradients for every parameter of both networks.

    The gradients are ``ac.gradients``, views into ``ac.flat_grads`` that the
    next call overwrites.
    """
    n = len(actions)
    logits, p_acts = ac.policy.forward_cached(obs_enc)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    lp = logp_all[np.arange(n), actions]
    ratio = np.exp(lp - logp_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.add.reduce(surrogate)) / n
    entropy_rows = -np.sum(probs * logp_all, axis=1)
    entropy = float(np.add.reduce(entropy_rows)) / n

    v_out, v_acts = ac.value.forward_cached(obs_enc)
    v = v_out[:, 0]
    diff = v - returns
    value_loss = float(np.add.reduce(diff * diff)) / n

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
    ac.policy.backward(p_acts, d_logits)

    d_v = (value_coef * 2.0 / n) * diff
    ac.value.backward(v_acts, d_v[:, None])

    stats = {
        "total": total,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": int(np.count_nonzero(np.abs(ratio - 1.0) > clip_eps)) / n,
    }
    return stats, ac.gradients


class Adam:
    """Adaptive-moment optimizer over one flat parameter vector.

    ``step`` updates ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= lr*(m/b1c) / (sqrt(v/b2c) + eps)`` elementwise, in the operand
    order of the per-array form, so the result is the same to the bit.
    """

    def __init__(self, size: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._step, self._denom = np.empty(size), np.empty(size)  # scratch

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat vector ``params`` in place from its gradient vector ``grads``."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=step)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grads, out=step)
        v += np.multiply(step, grads, out=step)
        np.divide(m, b1c, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params -= step


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
            stats, _ = ppo_loss_and_grads(
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
            adam.step(ac.flat_params, ac.flat_grads)
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
    adam = Adam(ac.flat_params.size, lr=cfg.learning_rate)
    buffer = RolloutBuffer(cfg.n_steps, env.cfg.j * OBS_FEATURES_PER_ROW)

    def fresh_episode() -> None:
        offset = rng.uniform(-cfg.init_offset_deg, cfg.init_offset_deg) if cfg.init_offset_deg > 0 else 0.0
        env.reset(rng=rng, init_theta="align", align_offset_deg=offset)

    fresh_episode()
    curve: list[dict] = []
    steps_done = 0
    update_idx = 0
    ep_return = 0.0
    while steps_done < cfg.total_steps:
        buffer.reset()
        episode_returns: list[float] = []
        while not buffer.full:
            # a step writes the row above this view, so it still holds the observation acted on
            x = env.encoded_observation
            action, logp = sample_action(_policy_probs(ac, x), rng)
            _, reward, done = env.step(action)
            buffer.add(x, action, logp, reward, done)
            ep_return += reward
            if done:
                episode_returns.append(ep_return)
                ep_return = 0.0
                fresh_episode()
        values = ac.value.forward_rows(buffer.obs, cfg.batch_size)[:, 0]
        bootstrap = float(ac.value.forward(env.encoded_observation[None])[0, 0])
        buffer.finalize(values, bootstrap, cfg.discount, cfg.gae_lambda)
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
    code); stochastic mode samples and needs ``rng``. Only the policy network
    runs. Never mutates the networks.
    """
    if mode not in ("greedy", "stochastic"):
        raise ValueError(f"mode must be 'greedy' or 'stochastic', got {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic evaluation needs an rng")
    env.reset(start_cycle=start_cycle, init_theta=init_theta, align_offset_deg=align_offset_deg, rng=rng)
    limit = env.cfg.episode_len if n_steps is None else n_steps
    greedy = mode == "greedy"
    for _ in range(limit):
        probs = _policy_probs(ac, env.encoded_observation)
        action = int(np.argmax(probs)) if greedy else sample_action(probs, rng)[0]
        if env.step(action)[2]:
            break
    return env.trace()


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


def _load_network(path: Path, payload: dict, name: str, in_dim: int, out_dim: int) -> tuple[tuple, list]:
    """The layer sizes and the parameters (in ``parameters`` order) of the
    ``name`` network, checked to chain in_dim -> out_dim with finite weights."""
    try:
        weights = [np.array(w, dtype=np.float64) for w in payload[name]["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in payload[name]["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name}: unreadable network: {exc}") from exc
    width = in_dim
    if not weights or len(weights) != len(biases):
        raise ValueError(f"{path}: {name}: {len(weights)} weight and {len(biases)} bias arrays")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or w.shape[0] != width:
            raise ValueError(f"{path}: {name}.weights[{i}] has shape {w.shape}, expected ({width}, n)")
        if b.shape != (w.shape[1],):
            raise ValueError(f"{path}: {name}.biases[{i}] has shape {b.shape}, expected ({w.shape[1]},)")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: {name}: layer {i} holds non-finite weights")
        width = w.shape[1]
    if width != out_dim:
        raise ValueError(f"{path}: {name}: {width} outputs, expected {out_dim}")
    return (in_dim, *(w.shape[1] for w in weights)), [x for pair in zip(weights, biases) for x in pair]


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
    policy_sizes, policy = _load_network(path, payload, "policy", in_dim, 3)
    value_sizes, value = _load_network(path, payload, "value", in_dim, 1)
    ac = ActorCritic(policy_sizes, value_sizes, lag_depth)
    for dst, src in zip(ac.parameters, policy + value):
        dst[...] = src
    return ac, env_cfg, ppo_cfg
