"""Actor-critic PPO on a hand-rolled dense network stack.

Two separate tanh MLPs (two hidden layers of 64 by default) map the flattened
lagged state to action logits and to a state value. Updates use the clipped
surrogate objective over shuffled minibatches with advantages from generalized
advantage estimation, driven by an adaptive-moment first-order optimizer.

The networks and Adam run in float32, as the usual PPO stacks do (weights are
drawn in float64 and rounded, so a seed consumes the same random stream); the
env, rewards, GAE and the sampler stay float64. A fixed seed reproduces
training bit for bit. The networks take ``env.encode_batch``'s five features
per lagged row and are small, so a call costs numpy overhead, not arithmetic.
The rollout and greedy evaluation pass one float32 row, 1-D, to
``Mlp.forward``, whose ``dot`` makes the vector-matrix BLAS call of a
``(1, k)`` row: the batched forward's row, bit for bit. Scalar work (softmax
max and sum, sampler, greedy pick, GAE) runs on Python floats, which round as
float64 does; the softmax keeps ``np.exp``, as ``math.exp`` differs in the
last bit. Each fast path keeps the per-call form's operations in order, and so its bits.

``Mlp.forward_rows`` takes the state values GAE needs after the rollout with
the same per-row call. Both networks' parameters live in one flat vector and
their gradients in another, as reshaped views; the backward pass writes into
the gradient views and Adam updates the parameter vector in one pass. Loss
reductions are ``np.mean``'s arithmetic (a sum, then a division by the count)
without its call overhead; three-column sums follow ``np.sum``'s order.

A version-5 checkpoint is one JSON object: ``format``, ``version``, the ``env``
and ``ppo`` config records, and ``params``, the base64 of ``flat_params`` as
``<f4`` bytes. No network shape is stored; ``env.j`` and ``ppo.hidden`` decide them.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .env import OBS_FEATURES_PER_ROW, Action, CycleTrace, EnvConfig, YawEnv, encode_batch
from .power import from_fields, real_number, whole_number

CHECKPOINT_FORMAT = "yawbench-checkpoint"
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 0.003
    n_steps: int = 2048        # transitions collected per update
    batch_size: int = 64
    epochs: int = 10           # passes over the rollout per update
    discount: float = 0.99
    gae_lambda: float = 0.95
    total_steps: int = 200_000
    clip_eps: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    init_offset_deg: float = 0.0  # training episodes start misaligned by U(-x, x)

    def __post_init__(self):
        for name in ("n_steps", "batch_size", "epochs", "total_steps"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if isinstance(self.seed, (bool, np.bool_)) or not (0 <= self.seed < math.inf and self.seed % 1 == 0):
            raise ValueError(f"seed must be a non-negative whole number, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if not self.hidden:
            raise ValueError("hidden layer widths must be positive, got ()")
        object.__setattr__(self, "hidden", tuple(whole_number("hidden layer width", h) for h in self.hidden))
        for name in ("learning_rate", "discount", "gae_lambda", "clip_eps", "value_coef", "entropy_coef",
                     "init_offset_deg"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if not (0.0 < self.discount <= 1.0):
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        for name in ("learning_rate", "clip_eps", "value_coef", "entropy_coef", "init_offset_deg"):
            x, positive = getattr(self, name), name in ("learning_rate", "clip_eps")
            if x < 0 or (positive and x == 0):
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
        self._hidden = list(zip(self.weights[:-1], self.biases[:-1]))  # (weight, bias) of each tanh layer

    @staticmethod
    def param_count(sizes: tuple[int, ...]) -> int:
        """The number of parameters of a network of layer ``sizes``."""
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``forward_cached(x)[0]`` of a row (1-D) or a 2-D batch, bit for bit, keeping no activations:
        ``ndarray.dot`` makes the BLAS call of ``@`` with less overhead (not on a 3-D stack)."""
        h = x
        for w, b in self._hidden:
            h = h.dot(w)
            h += b
            np.tanh(h, out=h)
        return h.dot(self.weights[-1]) + self.biases[-1]

    def forward_rows(self, x: np.ndarray, chunk: int) -> np.ndarray:
        """The output for each row of ``x``, bit-identical to ``forward`` of that row alone: a
        ``(n, 1, k) @ (k, m)`` stack makes each row's vector-matrix BLAS call, where a flat ``(n, k)``
        batch calls another routine. ``chunk`` rows at a time bound the memory."""
        out = np.empty((len(x), self.sizes[-1]), dtype=self.weights[-1].dtype)
        for lo in range(0, len(x), chunk):
            out[lo : lo + chunk] = self.forward_cached(x[lo : lo + chunk, None, :])[0][:, 0]
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [x]
        h = x
        for w, b in self._hidden:
            h = h @ w
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        return h @ self.weights[-1] + self.biases[-1], acts

    def backward(self, acts: list[np.ndarray], d_out: np.ndarray) -> None:
        """Write the gradients w.r.t. every parameter into ``gradients``."""
        d_h = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, d_h, out=self.gradients[2 * layer])
            np.add.reduce(d_h, axis=0, out=self.gradients[2 * layer + 1])
            if layer > 0:
                slope = acts[layer] * acts[layer]  # tanh' = 1 - a^2, in place
                d_h = np.multiply(d_h @ self.weights[layer].T, np.subtract(1.0, slope, out=slope), out=slope)


class ActorCritic:
    """Policy network (3 logits) and value network (scalar) over ``j`` lagged rows, hidden widths ``hidden``.

    Every parameter of both networks lives in one float32 vector,
    ``flat_params``, in ``parameters`` order (policy first); their gradients
    live in ``flat_grads``, laid out alike.
    """

    def __init__(self, j: int, hidden: tuple[int, ...]):
        policy_sizes, value_sizes = self.layer_sizes(j, hidden)
        n_policy = Mlp.param_count(policy_sizes)
        self.flat_params = np.zeros(n_policy + Mlp.param_count(value_sizes), dtype=np.float32)
        self.flat_grads = np.zeros_like(self.flat_params)
        self.policy = Mlp(policy_sizes, self.flat_params[:n_policy], self.flat_grads[:n_policy])
        self.value = Mlp(value_sizes, self.flat_params[n_policy:], self.flat_grads[n_policy:])
        self.parameters = self.policy.parameters + self.value.parameters
        self.gradients = self.policy.gradients + self.value.gradients

    @staticmethod
    def layer_sizes(j: int, hidden: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The layer sizes of the policy and of the value network."""
        in_dim = j * OBS_FEATURES_PER_ROW
        return (in_dim, *hidden, 3), (in_dim, *hidden, 1)

    @classmethod
    def create(cls, j: int, hidden: tuple[int, ...], rng: np.random.Generator) -> "ActorCritic":
        """Both networks with N(0, 1/fan_in) weights, drawn in float64, policy first, and zero biases."""
        ac = cls(j, hidden)
        for w in ac.policy.weights + ac.value.weights:
            w[...] = rng.standard_normal(w.shape) / math.sqrt(w.shape[0])
        return ac


def encode_observation(obs: np.ndarray) -> np.ndarray:
    """Flatten one j x 4 observation into the network input vector."""
    return encode_batch(obs[None])[0]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=1)`` of an (n, 3) array; numpy's ``((0 + c0) + c1) + c2``
    differs only for a row of three -0.0, which no row summed here holds."""
    return (x[:, 0] + x[:, 1]) + x[:, 2]


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.maximum(np.maximum(z[:, 0], z[:, 1]), z[:, 2])[:, None]
    return shifted - np.log(_row_sums(np.exp(shifted)))[:, None]


def _policy_probs(ac: ActorCritic, x: np.ndarray) -> np.ndarray:
    """Action probabilities, normalized in float64, for one float32 row ``x`` passed 1-D to ``Mlp.forward``."""
    logits = ac.policy.forward(x)
    # exp maps either zero of a +-0.0 tie for the max to 1.0, and e holds no -0.0
    e = np.exp(np.subtract(logits, max(logits.tolist()), dtype=np.float64))
    e0, e1, e2 = e.tolist()
    return e / ((e0 + e1) + e2)


def policy_forward(ac: ActorCritic, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Action probabilities and state value for one raw j x 4 observation."""
    x = encode_observation(np.asarray(obs, dtype=np.float64)).astype(np.float32)
    return _policy_probs(ac, x), float(ac.value.forward(x)[0])


_ACTIONS = tuple(Action)
_ONE_HOT = np.eye(len(_ACTIONS), dtype=np.float32)


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


def _greedy_action(probs: np.ndarray) -> int:
    """``np.argmax`` of three finite probabilities, ties to the lowest index."""
    p0, p1, p2 = probs.tolist()
    if not math.isfinite(p0 + p1 + p2):
        raise ValueError(f"degenerate action distribution: {probs!r}")
    return 0 if p0 >= p1 and p0 >= p2 else 1 if p1 >= p2 else 2


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
    advantages + values. The loop runs on Python floats through memoryviews.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=bool)
    if not (r.shape == v.shape == d.shape) or r.ndim != 1:
        raise ValueError(f"mismatched rollout lengths: {r.shape}, {v.shape}, {d.shape}")
    adv = np.empty(len(r))
    out, last, v_next = memoryview(adv), 0.0, bootstrap_value
    backwards = range(len(r) - 1, -1, -1)
    for t, r_t, v_t, done in zip(backwards, memoryview(r)[::-1], memoryview(v)[::-1], memoryview(d)[::-1]):
        nonterminal = 0.0 if done else 1.0
        delta = r_t + discount * v_next * nonterminal - v_t
        last = delta + discount * gae_lambda * nonterminal * last
        out[t] = last
        v_next = v_t
    return adv, adv + v


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
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip_eps), 1.0 + clip_eps) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.add.reduce(surrogate) / n)
    entropy_rows = -_row_sums(probs * logp_all)
    entropy = float(np.add.reduce(entropy_rows) / n)

    v_out, v_acts = ac.value.forward_cached(obs_enc)
    v = v_out[:, 0]
    diff = v - returns
    value_loss = float(np.add.reduce(diff * diff) / n)

    total = policy_loss + value_coef * value_loss - entropy_coef * entropy
    if not math.isfinite(total):
        raise FloatingPointError(
            f"non-finite PPO loss: policy={policy_loss}, value={value_loss}, entropy={entropy}"
        )

    # d(policy_loss)/d(logp_new): only where the unclipped branch is active.
    active = (unclipped <= clipped).astype(np.float32)
    d_lp = -(advantages * ratio * active) / n
    d_logits = d_lp[:, None] * (_ONE_HOT[actions] - probs)
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
    ``p -= lr*(m/b1c) / (sqrt(v/b2c) + eps)`` elementwise with the fixed
    ``b1, b2, eps = BETA1, BETA2, EPS``, in the operand order of the
    per-array form, so the result is the same to the bit. An ``m`` below ``TINY``
    is set to 0, as long spells of exactly zero gradient leave it in the slow subnormals.
    """

    BETA1, BETA2, EPS, TINY = 0.9, 0.999, 1e-8, 2.0**-126  # TINY: float32's smallest normal

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros(size, dtype=np.float32), np.zeros(size, dtype=np.float32)
        self._step, self._denom = np.empty_like(self.m), np.empty_like(self.m)  # scratch

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat vector ``params`` in place from its gradient vector ``grads``."""
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, grads, out=step)
        m[np.abs(m, out=denom) < self.TINY] = 0.0
        v *= self.BETA2
        np.multiply(1.0 - self.BETA2, grads, out=step)
        v += np.multiply(step, grads, out=step)
        np.divide(m, b1c, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        step /= denom
        params -= step


def ppo_update(
    ac: ActorCritic,
    obs_enc: np.ndarray,
    actions: np.ndarray,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
    adam: Adam,
    rng: np.random.Generator,
) -> dict:
    """One PPO update: ``epochs`` passes over shuffled minibatches of one rollout.

    Row ``t`` of each array belongs to step ``t`` of the rollout; an array
    that does not hold ``cfg.n_steps`` rows raises ValueError naming it.
    Advantages are normalized to mean 0 / std 1 in float64, and every array but
    ``actions`` rounded to float32, once per update. Raises FloatingPointError
    (leaving parameters at their last finite state) if a minibatch loss turns non-finite.
    """
    n = cfg.n_steps
    names = ("obs_enc", "actions", "logp_old", "advantages", "returns")
    for name, a in zip(names, (obs_enc, actions, logp_old, advantages, returns)):
        if np.shape(a)[:1] != (n,):
            raise ValueError(f"{name} must hold n_steps={n} rows, got shape {np.shape(a)}")
    adv = ((advantages - advantages.mean()) / (advantages.std() + 1e-8)).astype(np.float32)
    obs_enc, logp_old, returns = (np.asarray(a, dtype=np.float32) for a in (obs_enc, logp_old, returns))
    agg = {"total": 0.0, "policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_fraction": 0.0}
    batches = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            stats, _ = ppo_loss_and_grads(
                ac, obs_enc[idx], actions[idx], logp_old[idx], adv[idx], returns[idx],
                cfg.clip_eps, cfg.value_coef, cfg.entropy_coef,
            )
            adam.step(ac.flat_params, ac.flat_grads)
            for key in agg:
                agg[key] += stats[key]
            batches += 1
    return {key: val / batches for key, val in agg.items()}


def train(env: YawEnv, cfg: PpoConfig) -> tuple[ActorCritic, list[dict]]:
    """Train on ``env``, alternating n-step rollouts and clipped updates.

    A rollout is five preallocated arrays, written a row per step. Whenever
    an episode finishes mid-rollout, the trainer's generator draws a heading
    offset of at most ``init_offset_deg`` and then a start cycle, and the env
    restarts there with the nacelle that far off the start cycle's wind.
    Returns the trained networks and the learning-curve records, one per
    update: update_idx, steps, mean_return, policy_loss, value_loss, entropy.
    """
    rng = np.random.default_rng(cfg.seed)
    ac = ActorCritic.create(env.cfg.j, cfg.hidden, rng)
    adam = Adam(ac.flat_params.size, lr=cfg.learning_rate)
    n = cfg.n_steps
    obs, actions = np.empty((n, env.cfg.j * OBS_FEATURES_PER_ROW), dtype=np.float32), np.empty(n, dtype=np.int64)
    logp, rewards, dones = np.empty(n), np.empty(n), np.empty(n, dtype=bool)

    def fresh_episode() -> None:
        offset = rng.uniform(-cfg.init_offset_deg, cfg.init_offset_deg) if cfg.init_offset_deg > 0 else 0.0
        start = int(rng.integers(0, env.max_start_cycle + 1))
        env.reset(start, env.cycle_direction(start) + offset)

    fresh_episode()
    curve: list[dict] = []
    ep_return = 0.0
    for update_idx in range(1, -(-cfg.total_steps // n) + 1):  # ceil: a partial last rollout runs in full
        episode_returns: list[float] = []
        for t in range(n):
            obs[t] = env.encoded_observation
            action, logp[t] = sample_action(_policy_probs(ac, obs[t]), rng)
            reward, done = env.step(action)
            actions[t], rewards[t], dones[t] = action, reward, done
            ep_return += reward
            if done:
                episode_returns.append(ep_return)
                ep_return = 0.0
                fresh_episode()
        values = ac.value.forward_rows(obs, cfg.batch_size)[:, 0]
        bootstrap = float(ac.value.forward(env.encoded_observation.astype(np.float32))[0])
        advantages, returns = compute_gae(rewards, values, dones, bootstrap, cfg.discount, cfg.gae_lambda)
        stats = ppo_update(ac, obs, actions, logp, advantages, returns, cfg, adam, rng)
        curve.append(
            {
                "update_idx": update_idx,
                "steps": update_idx * n,
                "mean_return": float(np.mean(episode_returns)) if episode_returns else float("nan"),
                "policy_loss": stats["policy_loss"],
                "value_loss": stats["value_loss"],
                "entropy": stats["entropy"],
            }
        )
    return ac, curve


def evaluate(ac: ActorCritic, env: YawEnv) -> CycleTrace:
    """Roll the greedy policy over one episode of ``env`` and return its trace.

    The episode starts at cycle 0 with the nacelle aligned. Each step takes
    the argmax action (ties resolve to the lowest action code; a non-finite
    probability raises). Only the policy network runs. Never mutates the networks.
    """
    env.reset(0)
    for _ in range(env.cfg.episode_len):  # the last step ends the episode
        env.step(_greedy_action(_policy_probs(ac, env.encoded_observation.astype(np.float32))))
    return env.trace()


def _check_finite(path, params: np.ndarray) -> None:
    if not (finite := np.isfinite(params)).all():
        raise ValueError(f"{path}: params[{int(np.argmin(finite))}] is {params[~finite][0]}, not finite")


def save_checkpoint(path, ac: ActorCritic, env_cfg: EnvConfig, ppo_cfg: PpoConfig) -> None:
    """Checkpoint carrying the networks, as exact float32 bytes, and the environment settings
    they were trained with, so evaluation is self-contained. Raises ValueError, writing nothing,
    unless ``env_cfg.j`` and ``ppo_cfg.hidden`` give ``ac``'s layer sizes and every parameter is finite."""
    sizes = (ac.policy.sizes, ac.value.sizes)
    if sizes != ActorCritic.layer_sizes(env_cfg.j, ppo_cfg.hidden):
        raise ValueError(f"layer sizes {sizes} do not match j={env_cfg.j}, hidden={ppo_cfg.hidden}")
    path = Path(path)
    _check_finite(path, ac.flat_params)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "env": env_cfg.to_dict(),
        "ppo": ppo_cfg.to_dict(),
        "params": base64.b64encode(ac.flat_params.astype("<f4", copy=False).tobytes()).decode("ascii"),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _load_config(path: Path, payload: dict, name: str, cls):
    """The ``name`` config section; a missing, unknown or bad key raises ValueError naming the file."""
    try:
        return cls.from_dict(payload[name])
    except KeyError as exc:
        raise ValueError(f"{path}: {name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name}: {exc}") from exc


def load_checkpoint(path) -> tuple[ActorCritic, EnvConfig, PpoConfig]:
    """Read a ``save_checkpoint`` file; raises ValueError naming the file and the
    field unless it is a version-5 JSON object with every key present and known
    and ``params`` is the base64 of as many finite float32s as the configs' networks have."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    head = (payload.get("format"), payload.get("version")) if isinstance(payload, dict) else None
    if head != (CHECKPOINT_FORMAT, CHECKPOINT_VERSION):
        raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} file")
    key = min(payload.keys() ^ {"format", "version", "env", "ppo", "params"}, default=None)
    if key is not None:
        raise ValueError(f"{path}: {'unknown' if key in payload else 'missing'} key {key!r}")
    env_cfg = _load_config(path, payload, "env", EnvConfig)
    ppo_cfg = _load_config(path, payload, "ppo", PpoConfig)
    # counted before the networks are allocated, so a tampered hidden cannot request a huge array
    n = sum(map(Mlp.param_count, ActorCritic.layer_sizes(env_cfg.j, ppo_cfg.hidden)))
    text, chars = payload["params"], 4 * -(-4 * n // 3)
    got = len(text) if isinstance(text, str) else type(text).__name__
    if got != chars:
        raise ValueError(f"{path}: params: expected {chars} base64 characters ({n} float32s) for "
                         f"j={env_cfg.j} and hidden={ppo_cfg.hidden}, got {got}")
    try:  # that many characters decode to 4n - 2 to 4n + 2 bytes, of which only 4n fill whole floats
        params = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f4")
    except ValueError as exc:  # a binascii.Error, a non-ASCII character or a partial float
        raise ValueError(f"{path}: params: {exc}") from exc
    _check_finite(path, params)
    ac = ActorCritic(env_cfg.j, ppo_cfg.hidden)
    ac.flat_params[...] = params
    return ac, env_cfg, ppo_cfg
