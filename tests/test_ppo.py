import base64
import io
import json
import math
import re
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from yawbench import (
    Action,
    ActorCritic,
    Adam,
    EnvConfig,
    Mlp,
    PpoConfig,
    Standardizer,
    YawEnv,
    compute_gae,
    encode_observation,
    evaluate,
    generate_synthetic,
    load_checkpoint,
    policy_forward,
    ppo_loss_and_grads,
    ppo_update,
    sample_action,
    save_checkpoint,
    steady_preset,
    train,
)
from yawbench.ppo import OBS_FEATURES_PER_ROW, log_softmax

from ppo_reference import create_parameters, ppo_loss, softmax
from ppo_reference import ppo_loss_and_grads as reference_loss_and_grads


def tiny_ac(seed=0, j=2, hidden=(8, 8)):
    return ActorCritic.create(j, hidden, np.random.default_rng(seed))


def float64_twin(ac):
    """``ac``'s two networks on a float64 copy of its parameters, the same values exactly:
    the reference loss runs at the network's dtype, so on this twin it runs in float64."""
    params = ac.flat_params.astype(np.float64)
    grads, n = np.zeros_like(params), Mlp.param_count(ac.policy.sizes)
    policy, value = Mlp(ac.policy.sizes, params[:n], grads[:n]), Mlp(ac.value.sizes, params[n:], grads[n:])
    return SimpleNamespace(policy=policy, value=value, parameters=policy.parameters + value.parameters)


def to_float64(arrays) -> list:
    return [a.astype(np.float64) if a.dtype == np.float32 else a for a in arrays]


def random_batch(seed, ac, n=16, near_old=False):
    """Random minibatch, at the networks' dtype, with old log-probs detached from the current policy."""
    rng = np.random.default_rng(seed)
    d, dtype = ac.policy.sizes[0], ac.policy.weights[0].dtype
    obs = rng.normal(size=(n, d)).astype(dtype)
    actions = rng.integers(0, 3, size=n)
    lp_now = log_softmax(ac.policy.forward(obs))[np.arange(n), actions]
    jitter = 0.0 if near_old else rng.normal(scale=0.3, size=n)
    logp_old = (lp_now + jitter).astype(dtype)
    advantages = rng.normal(size=n).astype(dtype)
    returns = rng.normal(size=n).astype(dtype)
    return obs, actions, logp_old, advantages, returns


def random_rollout(seed, ac, n):
    """The five ``ppo_update`` arrays of ``n`` random transitions for ``ac``'s input width."""
    obs, actions, logp_old, _, _ = random_batch(seed, ac, n=n)
    rng = np.random.default_rng(seed)
    rewards, dones = zip(*[(rng.normal(), rng.random() < 0.1) for _ in range(n)])
    advantages, returns = compute_gae(rewards, rng.normal(size=n), dones, rng.normal(), 0.99, 0.95)
    return obs, actions, logp_old, advantages, returns


def hexes(ac) -> list[str]:
    return [x.hex() for x in ac.flat_params.tolist()]


def decode_params(text: str) -> np.ndarray:
    """The float32 values of a checkpoint's base64 ``params``."""
    return np.frombuffer(base64.b64decode(text), dtype="<f4").copy()


def encode_params(values, dtype="<f4") -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def set_param(i, x):
    """A checkpoint payload edit that writes ``x`` into parameter ``i``."""

    def edit(payload):
        params = decode_params(payload["params"])
        params[i] = x
        payload["params"] = encode_params(params)

    return edit


F32 = np.finfo(np.float32)
FINITE_FLOAT32S = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, float(F32.smallest_subnormal), -3 * float(F32.smallest_subnormal),
                     float(F32.smallest_normal), float(F32.max), -float(F32.max)]),
)


class TestPolicyForward:
    def test_zero_params_uniform(self):
        ac = tiny_ac()
        for w in ac.policy.weights:
            w[:] = 0.0
        for b in ac.policy.biases:
            b[:] = 0.0
        for w in ac.value.weights:
            w[:] = 0.0
        obs = np.zeros((2, 4))
        obs[:, 2] = 90.0
        probs, value = policy_forward(ac, obs)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)
        assert value == 0.0

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        ac = tiny_ac(3)
        for _ in range(50):
            obs = rng.normal(size=(2, 4))
            obs[:, 2] = rng.uniform(0, 360, size=2)
            probs, _ = policy_forward(ac, obs)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(10, 3))
        p1 = softmax(z)
        p2 = softmax(z + 7.0)
        assert np.allclose(p1, p2, atol=1e-12)
        sampler = np.random.default_rng(5)
        a1 = [sample_action(p, np.random.default_rng(i))[0] for i, p in enumerate(p1)]
        a2 = [sample_action(p, np.random.default_rng(i))[0] for i, p in enumerate(p2)]
        assert a1 == a2

    def test_non_finite_obs_rejected(self):
        ac = tiny_ac()
        for bad in (np.nan, np.inf):
            obs = np.zeros((2, 4))
            obs[0, 1] = bad
            with pytest.raises(ValueError):
                policy_forward(ac, obs)

    def test_encoding_shape_and_seam_continuity(self):
        obs = np.zeros((3, 4))
        obs[:, 2] = (359.9, 0.1, 180.0)
        x = encode_observation(obs)
        assert x.shape == (3 * OBS_FEATURES_PER_ROW,)
        row0 = x[:5]
        row1 = x[5:10]
        # directions on either side of the seam encode to nearby features
        assert abs(row0[2] - row1[2]) < 0.01 and abs(row0[3] - row1[3]) < 0.01


class TestSampling:
    def test_deterministic_point_mass(self):
        a, logp = sample_action(np.array([1.0, 0.0, 0.0]), np.random.default_rng(0))
        assert a == Action.CLOCKWISE and logp == 0.0

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(6)
        probs = np.array([1 / 3, 1 / 3, 1 / 3])
        draws = np.array([int(sample_action(probs, rng)[0]) for _ in range(30000)])
        for a in range(3):
            assert abs(np.mean(draws == a) - 1 / 3) < 0.01

    def test_seeded_reproducibility(self):
        probs = np.array([0.2, 0.5, 0.3])
        s1 = [sample_action(probs, np.random.default_rng(42))[0] for _ in range(5)]
        s2 = [sample_action(probs, np.random.default_rng(42))[0] for _ in range(5)]
        assert s1 == s2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            sample_action(np.array([0.5, 0.2, 0.2]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_action(np.array([np.nan, 0.5, 0.5]), np.random.default_rng(0))
        for probs in ([1.2, -0.1, -0.1], [np.inf, 0.0, 0.0], [0.5, 0.5], [[0.5, 0.25, 0.25]]):
            with pytest.raises(ValueError, match="degenerate"):
                sample_action(np.array(probs), np.random.default_rng(0))

    def test_logp_matches_choice(self):
        rng = np.random.default_rng(7)
        probs = np.array([0.1, 0.6, 0.3])
        for _ in range(100):
            a, logp = sample_action(probs, rng)
            assert logp == pytest.approx(float(np.log(probs[int(a)])), abs=1e-15)


def gae_bruteforce(rewards, values, dones, bootstrap, discount, lam):
    """Direct double-loop evaluation of the exponentially weighted advantage sum."""
    n = len(rewards)
    v = list(values) + [bootstrap]
    deltas = [
        rewards[t] + discount * v[t + 1] * (0.0 if dones[t] else 1.0) - v[t] for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        weight = 1.0
        for l in range(t, n):
            acc += weight * deltas[l]
            if dones[l]:
                break
            weight *= discount * lam
        adv[t] = acc
    return adv


def mc_advantage(rewards, values, dones, bootstrap, discount):
    """Discounted Monte-Carlo advantage: full reward sum plus bootstrap minus value."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        acc = 0.0
        disc = 1.0
        terminated = False
        for l in range(t, n):
            acc += disc * rewards[l]
            disc *= discount
            if dones[l]:
                terminated = True
                break
        if not terminated:
            acc += disc * bootstrap
        adv[t] = acc - values[t]
    return adv


class TestGae:
    def test_single_terminal_step(self):
        adv, ret = compute_gae([1.0], [0.5], [True], bootstrap_value=99.0, discount=0.9, gae_lambda=0.95)
        assert adv[0] == pytest.approx(0.5, abs=1e-15)
        assert ret[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_step_telescoping(self):
        adv, _ = compute_gae([0.0, 1.0], [0.0, 0.0], [False, False], 0.0, 1.0, 1.0)
        assert np.allclose(adv, [1.0, 1.0], atol=1e-15)

    def test_lambda_zero_is_one_step_delta(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=20)
        v = rng.normal(size=20)
        d = rng.random(20) < 0.2
        boot = float(rng.normal())
        adv, _ = compute_gae(r, v, d, boot, 0.97, 0.0)
        v_next = np.append(v[1:], boot)
        deltas = r + 0.97 * v_next * (~d) - v
        assert np.allclose(adv, deltas, atol=1e-12)

    def test_matches_bruteforce_all_lengths(self):
        rng = np.random.default_rng(9)
        for case in range(100):
            n = int(rng.integers(1, 11))
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            d = rng.random(n) < 0.25
            boot = float(rng.normal())
            g = float(rng.uniform(0.9, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(r, v, d, boot, g, lam)
            expected = gae_bruteforce(r, v, d, boot, g, lam)
            assert np.allclose(adv, expected, atol=1e-10)
            assert np.allclose(ret, expected + v, atol=1e-10)

    def test_lambda_one_is_monte_carlo(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            d = rng.random(n) < 0.25
            boot = float(rng.normal())
            g = float(rng.uniform(0.9, 1.0))
            adv, _ = compute_gae(r, v, d, boot, g, 1.0)
            assert np.allclose(adv, mc_advantage(r, v, d, boot, g), atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0], [False, False], 0.0, 0.99, 0.95)


class TestLossArithmetic:
    # the loss arithmetic, pinned to 1e-12, is checked on float64 twins of the networks
    def test_identity_ratio_gives_mean_advantage(self):
        ac = float64_twin(tiny_ac(11))
        obs, actions, _, adv, rets = random_batch(12, ac, near_old=True)
        lp_now = log_softmax(ac.policy.forward(obs))[np.arange(len(actions)), actions]
        stats = ppo_loss(ac, obs, actions, lp_now, adv, rets, 0.2, 0.5, 0.0)
        assert stats["policy_loss"] == pytest.approx(-float(np.mean(adv)), abs=1e-12)

    def test_clip_rule_arithmetic(self):
        ac = float64_twin(tiny_ac(13))
        n = 4
        rng = np.random.default_rng(14)
        obs = rng.normal(size=(n, ac.policy.sizes[0]))
        actions = rng.integers(0, 3, size=n)
        lp_now = log_softmax(ac.policy.forward(obs))[np.arange(n), actions]
        # force ratio exactly 1.5 on every sample
        logp_old = lp_now - np.log(1.5)
        adv = np.ones(n)
        stats = ppo_loss(ac, obs, actions, logp_old, adv, np.zeros(n), 0.2, 0.0, 0.0)
        assert stats["policy_loss"] == pytest.approx(-1.2, abs=1e-12)
        # with a huge clip range the unclipped surrogate is recovered
        stats_wide = ppo_loss(ac, obs, actions, logp_old, adv, np.zeros(n), 1e9, 0.0, 0.0)
        assert stats_wide["policy_loss"] == pytest.approx(-1.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("j, hidden, n", [(2, (8, 8), 16), (12, (64, 64), 64)])
    def test_float32_loss_within_float32_rounding_of_float64(self, seed, j, hidden, n):
        # the same parameter and input values through the float64 twin: the float32 loss and
        # gradients may differ only by float32 rounding, bounded from its epsilon
        ac = tiny_ac(seed, j, hidden)
        batch = random_batch(seed, ac, n=n)
        stats, grads = ppo_loss_and_grads(ac, *batch, 0.2, 0.5, 0.01)
        stats64, grads64 = reference_loss_and_grads(float64_twin(ac), *to_float64(batch), 0.2, 0.5, 0.01)
        tol = 1000 * float(np.finfo(np.float32).eps)
        for key in ("policy_loss", "value_loss", "entropy"):
            assert stats[key] == pytest.approx(stats64[key], rel=tol, abs=tol)
        for g, g64 in zip(grads, grads64):
            assert np.max(np.abs(g - g64)) <= tol * max(1.0, float(np.max(np.abs(g64))))

    def test_surrogate_never_exceeds_branches(self):
        ac = tiny_ac(15)
        obs, actions, logp_old, adv, rets = random_batch(16, ac)
        n = len(actions)
        lp = log_softmax(ac.policy.forward(obs))[np.arange(n), actions]
        ratio = np.exp(lp - logp_old)
        clipped = np.clip(ratio, 0.8, 1.2) * adv
        unclipped = ratio * adv
        surr = np.minimum(unclipped, clipped)
        assert np.all(surr <= np.maximum(unclipped, clipped) + 1e-15)

    def test_gradients_match_finite_differences(self):
        # 20 random instances of a small network and minibatch, central differences of the
        # reference loss on the float64 twin, at the same parameter and input values
        h = 1e-5
        for case in range(20):
            ac = tiny_ac(seed=100 + case)
            twin = float64_twin(ac)
            batch = random_batch(200 + case, ac)
            _, grads = ppo_loss_and_grads(ac, *batch, 0.2, 0.7, 0.05)
            args = (*to_float64(batch), 0.2, 0.7, 0.05)
            params = twin.parameters
            assert len(grads) == len(params)
            for p, g in zip(params, grads):
                flat_p = p.ravel()
                flat_g = g.ravel()
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    f_plus = ppo_loss(twin, *args)["total"]
                    flat_p[i] = orig - h
                    f_minus = ppo_loss(twin, *args)["total"]
                    flat_p[i] = orig
                    fd = (f_plus - f_minus) / (2 * h)
                    assert np.isclose(flat_g[i], fd, rtol=1e-4, atol=1e-7), (
                        f"case {case}: grad {flat_g[i]:.8g} vs fd {fd:.8g}"
                    )


class TestFlatStorage:
    @staticmethod
    def assert_views(ac):
        """Every parameter and gradient is a view into its flat vector, laid out in ``parameters`` order."""
        assert len(ac.parameters) == len(ac.gradients) == 2 * (len(ac.policy.weights) + len(ac.value.weights))
        offset = 0
        for p, g in zip(ac.parameters, ac.gradients):
            assert p.base is ac.flat_params and g.base is ac.flat_grads and p.shape == g.shape
            assert p.dtype == g.dtype == np.float32
            assert p.ctypes.data == ac.flat_params.ctypes.data + 4 * offset
            assert g.ctypes.data == ac.flat_grads.ctypes.data + 4 * offset
            offset += p.size
        assert offset == ac.flat_params.size == ac.flat_grads.size

    def test_created_network_is_views_with_the_draws_of_separate_arrays(self):
        ac = ActorCritic.create(3, (5, 4), np.random.default_rng(8))
        self.assert_views(ac)
        expected = create_parameters(3, (5, 4), np.random.default_rng(8))
        assert [p.tobytes() for p in ac.parameters] == [p.tobytes() for p in expected]

    def test_loaded_network_is_views(self, tmp_path):
        env = make_env()
        cfg = small_cfg(total_steps=128, hidden=(6, 5))
        ac = ActorCritic.create(env.cfg.j, cfg.hidden, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck.json", ac, env.cfg, cfg)
        back, _, _ = load_checkpoint(tmp_path / "ck.json")
        self.assert_views(back)
        assert hexes(back) == hexes(ac)

    def test_update_moves_views_and_flat_vector_together(self):
        ac = tiny_ac(4)
        before = ac.flat_params.copy()
        views_before = [p.copy() for p in ac.parameters]
        cfg = small_cfg(n_steps=32, batch_size=16, epochs=1, total_steps=32)
        ppo_update(ac, *random_rollout(5, ac, 32), cfg, Adam(ac.flat_params.size, 0.01), np.random.default_rng(6))
        self.assert_views(ac)
        assert not np.array_equal(ac.flat_params, before)
        assert np.concatenate([p.ravel() for p in ac.parameters]).tobytes() == ac.flat_params.tobytes()
        assert any(not np.array_equal(b, p) for b, p in zip(views_before, ac.parameters))
        ac.flat_params[0] += 1.0
        assert ac.policy.weights[0][0, 0] == ac.flat_params[0]


def make_env(length=3000, episode_len=16, j=2, seed=40):
    series = generate_synthetic(steady_preset(length_s=length), seed=seed)
    cfg = EnvConfig(
        standardizer=Standardizer(8.2),
        k=2, j=j, w=40.0, episode_len=episode_len,
    )
    return YawEnv(series, cfg)


def small_cfg(**kw):
    defaults = dict(
        learning_rate=0.003, n_steps=128, batch_size=32, epochs=3,
        total_steps=256, seed=0, hidden=(16, 16), init_offset_deg=10.0,
    )
    defaults.update(kw)
    return PpoConfig(**defaults)


class TestUpdateAndTrain:
    def test_update_is_deterministic(self):
        results = []
        for _ in range(2):
            env = make_env()
            cfg = small_cfg(total_steps=128)
            ac, _ = train(env, cfg)
            results.append(ac)
        for p1, p2 in zip(results[0].parameters, results[1].parameters):
            assert np.array_equal(p1, p2)

    def test_one_rollout_one_update(self):
        env = make_env()
        cfg = small_cfg(total_steps=128, n_steps=128)
        _, curve = train(env, cfg)
        assert len(curve) == 1
        assert curve[0]["update_idx"] == 1 and curve[0]["steps"] == 128

    def test_update_moves_parameters(self):
        env = make_env()
        rng = np.random.default_rng(0)
        ac = ActorCritic.create(env.cfg.j, (16, 16), rng)
        before = [p.copy() for p in ac.parameters]
        cfg = small_cfg()

        def fresh_episode():
            return env.reset(int(rng.integers(0, env.max_start_cycle + 1)))

        obs = fresh_episode()
        rows = []
        for _ in range(cfg.n_steps):
            probs, value = policy_forward(ac, obs)
            a, logp = sample_action(probs, rng)
            r, done = env.step(a)
            rows.append((encode_observation(obs), int(a), logp, r, done, value))
            obs = fresh_episode() if done else env.observation
        obs_enc, actions, logp_old, rewards, dones, values = map(np.array, zip(*rows))
        advantages, returns = compute_gae(rewards, values, dones, 0.0, cfg.discount, cfg.gae_lambda)
        adam = Adam(ac.flat_params.size, lr=cfg.learning_rate)
        stats = ppo_update(ac, obs_enc, actions, logp_old, advantages, returns, cfg, adam, rng)
        assert any(not np.array_equal(b, p) for b, p in zip(before, ac.parameters))
        assert np.isfinite(stats["total"])

    @pytest.mark.parametrize("which, name", enumerate(["obs_enc", "actions", "logp_old", "advantages", "returns"]))
    @pytest.mark.parametrize("rows", [31, 33, 0])
    def test_update_rejects_an_array_not_n_steps_long(self, which, name, rows):
        cfg = small_cfg(n_steps=32, batch_size=16, epochs=1, total_steps=32)
        ac = tiny_ac()
        before = hexes(ac)
        arrays = list(random_rollout(1, ac, 32))
        arrays[which] = np.resize(arrays[which], (rows, *arrays[which].shape[1:]))
        with pytest.raises(ValueError, match=rf"^{name} must hold n_steps=32 rows, got shape \({rows},"):
            ppo_update(ac, *arrays, cfg, Adam(ac.flat_params.size, lr=0.001), np.random.default_rng(0))
        assert hexes(ac) == before

    def test_advantage_normalization_in_update(self):
        env = make_env()
        cfg = small_cfg()
        _, curve = train(env, cfg)
        assert all(np.isfinite(rec["policy_loss"]) for rec in curve)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PpoConfig(n_steps=100, batch_size=64)
        with pytest.raises(ValueError):
            PpoConfig(discount=0.0)
        with pytest.raises(ValueError):
            PpoConfig(clip_eps=0.0)
        with pytest.raises(ValueError):
            PpoConfig(gae_lambda=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),  # was a ZeroDivisionError from n_steps % batch_size
            ("batch_size", -64),
            ("n_steps", 0),
            ("epochs", 0),  # was accepted, then train died in ppo_update
            ("epochs", -1),
            ("hidden", (0, 8)),  # was accepted and trained a zero-width network
            ("hidden", (8, -2)),
            ("hidden", ()),
            ("hidden", (True,)),  # a bool was a width of 1
            ("hidden", (8, np.True_)),
            ("hidden", (10**400,)),  # was a bare OverflowError naming no field
            ("batch_size", True),
            ("epochs", 2**63),  # beyond int64
        ],
    )
    def test_config_rejects_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PpoConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),  # was accepted, then train died mid-update
            ("clip_eps", float("nan")),
            ("init_offset_deg", float("nan")),
            ("value_coef", float("nan")),  # was not checked at all
            ("entropy_coef", float("nan")),
            ("learning_rate", float("inf")),
            ("value_coef", -0.5),
            ("entropy_coef", -0.01),
            ("entropy_coef", float("inf")),
        ],
    )
    def test_config_rejects_non_finite_or_negative_coefficient(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be finite"):
            PpoConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, given",
        [
            ("total_steps", float("nan"), {}),  # train returned untrained networks and an empty curve
            ("total_steps", float("inf"), {}),  # train looped forever
            ("total_steps", 4096.5, {}),
            ("epochs", float("nan"), {}),
            ("epochs", 2.5, {}),
            ("seed", 1.5, {}),
            ("seed", -1, {}),
            ("seed", float("nan"), {}),
            ("seed", float("inf"), {}),
            ("seed", np.float64("inf"), {}),  # inf % 1 warns on a numpy float
            ("total_steps", np.float64("inf"), {}),
            ("seed", True, {}),  # was stored as 1
            ("seed", np.False_, {}),
            ("total_steps", 10**400, {}),  # was a bare OverflowError naming no field
            ("batch_size", 32.5, {"n_steps": 65}),  # 65 % 32.5 == 0, so it passed the divisibility check
            ("n_steps", 64.5, {}),
        ],
    )
    def test_fractional_or_non_finite_count_named(self, field, value, given):
        with pytest.raises(ValueError, match=rf"^{field} must be a (positive|non-negative) whole number, got {value}"):
            PpoConfig(**{field: value, **given})

    @pytest.mark.parametrize("seed", [2**63, 10**400])
    def test_any_seed_the_generator_takes_is_kept(self, seed):
        # 10**400 was a bare OverflowError
        assert PpoConfig(seed=seed).seed == seed
        np.random.default_rng(seed)

    def test_whole_float_counts_stored_as_int(self):
        cfg = PpoConfig(n_steps=64.0, batch_size=32.0, epochs=2.0, total_steps=128.0, seed=3.0)
        assert [type(x) for x in (cfg.n_steps, cfg.batch_size, cfg.epochs, cfg.total_steps, cfg.seed)] == [int] * 5

    @pytest.mark.parametrize("hidden", [(8.7,), (16, 4.5), (float("nan"),), (float("inf"), 8)])
    def test_fractional_hidden_width_rejected(self, hidden):
        # (8.7,) was truncated to (8,) without a word
        with pytest.raises(ValueError, match="^hidden layer width must be a positive whole number"):
            PpoConfig(hidden=hidden)

    def test_whole_float_hidden_width_stored_as_int(self):
        assert PpoConfig(hidden=(8.0, 4)).hidden == (8, 4)

    def test_zero_coefficients_allowed(self):
        cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0, init_offset_deg=0.0)
        assert (cfg.value_coef, cfg.entropy_coef) == (0.0, 0.0)

    def test_train_encodes_each_observation_once(self, monkeypatch):
        import yawbench.ppo as ppo_module

        calls = []
        real = ppo_module.encode_observation

        def counting(obs):
            calls.append(1)
            return real(obs)

        monkeypatch.setattr(ppo_module, "encode_observation", counting)
        cfg = small_cfg(n_steps=64, batch_size=32, total_steps=128)
        train(make_env(), cfg)
        # the rollout and each update's bootstrap value read the env's encoded observation
        assert len(calls) == 0


class TestFloat32:
    """The networks, their gradients, Adam's moments and every activation are float32, and the
    rollout, the bootstrap value and greedy evaluation give the networks float32 rows."""

    def test_update_keeps_everything_float32(self, monkeypatch):
        outputs = []
        real = Mlp.forward_cached

        def recording(net, x):
            out, acts = real(net, x)
            outputs.extend([out, *acts])
            return out, acts

        monkeypatch.setattr(Mlp, "forward_cached", recording)
        ac = tiny_ac(4)
        adam = Adam(ac.flat_params.size, 0.01)
        cfg = small_cfg(n_steps=32, batch_size=16, epochs=1, total_steps=32)
        ppo_update(ac, *random_rollout(5, ac, 32), cfg, adam, np.random.default_rng(6))
        arrays = [ac.flat_params, ac.flat_grads, adam.m, adam.v, *outputs]
        assert len(outputs) == 2 * 2 * 4  # two minibatches, two networks: the output, the input, two hidden layers
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)

    def test_rollout_and_evaluation_give_float32_rows(self, monkeypatch):
        rows = []
        real = Mlp.forward

        def recording(net, x):
            rows.append(x.dtype)
            out = real(net, x)
            assert out.dtype == np.float32
            return out

        monkeypatch.setattr(Mlp, "forward", recording)
        env = make_env()
        ac, _ = train(env, small_cfg(n_steps=32, batch_size=16, epochs=1, total_steps=32))
        assert len(rows) == 32 + 1  # one policy forward per step, and the bootstrap value
        evaluate(ac, env)
        assert len(rows) == 33 + env.cfg.episode_len
        assert rows == [np.float32] * len(rows)


class TestEvaluate:
    def test_greedy_tie_breaks_to_lowest_code(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(0))
        for w in ac.policy.weights:
            w[:] = 0.0
        for b in ac.policy.biases:
            b[:] = 0.0
        trace = evaluate(ac, env)
        assert np.all(trace.action_issued == int(Action.CLOCKWISE))

    def test_one_aligned_episode_from_cycle_zero_reproducible(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(1))
        t1 = evaluate(ac, env)
        assert t1.equals(evaluate(ac, env))
        assert t1.cycle.tolist() == list(range(1, env.cfg.episode_len + 1))
        # the first applied action is the warm-up Stay, so the nacelle is still aligned
        assert t1.action_applied[0] == Action.STAY and t1.theta[0] == env.cycle_direction(0)

    def test_evaluation_does_not_mutate_params(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(2))
        before = [p.copy() for p in ac.parameters]
        evaluate(ac, env)
        assert all(np.array_equal(b, p) for b, p in zip(before, ac.parameters))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        env = make_env()
        cfg = small_cfg(total_steps=128)
        ac, _ = train(env, cfg)
        p = tmp_path / "ck.json"
        save_checkpoint(p, ac, env.cfg, cfg)
        ac2, env_cfg2, ppo_cfg2 = load_checkpoint(p)
        assert env_cfg2 == env.cfg
        assert ppo_cfg2 == cfg
        for a, b in zip(ac.parameters, ac2.parameters):
            assert np.array_equal(a, b)

    @settings(max_examples=10)
    @given(
        seed=st.integers(0, 2**16),
        j=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
        entropy_coef=st.sampled_from([0.0, 0.05]),
    )
    def test_trained_network_round_trip_then_update_bit_equal(self, tmp_path_factory, seed, j, hidden, entropy_coef):
        env = make_env(j=j)
        cfg = small_cfg(
            n_steps=32, batch_size=16, epochs=2, total_steps=64, hidden=hidden, seed=seed, entropy_coef=entropy_coef
        )
        ac, _ = train(env, cfg)
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        save_checkpoint(path, ac, env.cfg, cfg)
        back, _, _ = load_checkpoint(path)
        assert hexes(back) == hexes(ac)
        rollout = random_rollout(seed, ac, 32)
        for net in (ac, back):
            ppo_update(net, *rollout, cfg, Adam(net.flat_params.size, cfg.learning_rate), np.random.default_rng(seed))
        assert hexes(back) == hexes(ac)

    @settings(max_examples=50)
    @given(
        j=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
        data=st.data(),
    )
    def test_any_finite_parameters_round_trip_bit_equal(self, j, hidden, data):
        # any finite float32 bits: -0.0, subnormals and +-finfo(float32).max among them
        ac = ActorCritic(j, hidden)
        ac.flat_params[...] = data.draw(hnp.arrays(np.float32, ac.flat_params.size, elements=FINITE_FLOAT32S))
        env_cfg = EnvConfig(standardizer=Standardizer(8.2), j=j)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/ck.json"
            save_checkpoint(path, ac, env_cfg, small_cfg(hidden=hidden))
            back, _, _ = load_checkpoint(path)
        assert back.flat_params.tobytes() == ac.flat_params.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="checkpoint not found"):
            load_checkpoint(tmp_path / "none.json")

    def test_version_check(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "other", "version": 9}')
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_file_is_json_dump_output(self, tmp_path):
        env = make_env()
        cfg = small_cfg(total_steps=128)
        ac, _ = train(env, cfg)
        p = tmp_path / "ck.json"
        save_checkpoint(p, ac, env.cfg, cfg)
        text = p.read_text()
        expected = io.StringIO()
        json.dump(json.loads(text), expected, sort_keys=True)
        expected.write("\n")
        assert text == expected.getvalue()

    def _tampered(self, tmp_path, edit, j=2):
        """Save a checkpoint, apply ``edit`` to its payload and write it back."""
        env = make_env(j=j)
        cfg = small_cfg(total_steps=128, hidden=(4, 3))
        ac = ActorCritic.create(env.cfg.j, cfg.hidden, np.random.default_rng(0))
        p = tmp_path / "ck.json"
        save_checkpoint(p, ac, env.cfg, cfg)
        payload = json.loads(p.read_text())
        edit(payload)
        p.write_text(json.dumps(payload))
        return p

    # j=2 and hidden=(4, 3) give 134 parameters: 536 bytes, 716 base64 characters
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda payload: payload.update(params=decode_params(payload["params"]).tolist()),
             r"params: expected 716 base64 characters \(134 float32s\) for j=2 and hidden=\(4, 3\), got list$"),
            (lambda payload: payload.update(params=0.5), r"params: expected 716 base64 characters .* got float$"),
            (lambda payload: payload.update(params=None), r"params: expected 716 base64 characters .* got NoneType$"),
            (lambda payload: payload.update(params="!" + payload["params"][1:]), r"params: Only base64 data is allowed"),
            (lambda payload: payload.update(params=payload["params"][:8] + "=" + payload["params"][9:]),
             r"params: Discontinuous padding not allowed"),
            (lambda payload: payload.update(params="\u00e9" + payload["params"][1:]), r"params: .*only ASCII characters"),
            (lambda payload: payload.update(params=encode_params(decode_params(payload["params"])[:-1])),
             r"params: expected 716 base64 characters \(134 float32s\) .* got 712$"),
            (lambda payload: payload.update(params=encode_params([*decode_params(payload["params"]), 0.0])),
             r"params: expected 716 base64 characters .* got 720$"),
            # the right length, but 537 bytes: no padding where the encoder wrote one
            (lambda payload: payload.update(params=payload["params"][:-4] + "AAAA"),
             r"params: buffer size must be a multiple of element size"),
            # the float64 bytes of 89 values: 712 bytes, the length of 178 float32s, none of 134
            (lambda payload: payload.update(params=encode_params(decode_params(payload["params"])[:89], "<f8")),
             r"params: expected 716 base64 characters .* got 952$"),
            (lambda payload: payload["ppo"].update(hidden=[4, 4]), r"params: expected 792 base64 characters \(148 float32s\)"),
            (lambda payload: payload["ppo"].update(hidden=[10**9]), r"params: expected \d+ base64 characters \(26000000004 "),
            (lambda payload: payload["env"].update(j=3), r"params: expected 928 base64 characters \(174 float32s\) for j=3"),
            (set_param(5, float("nan")), r"params\[5\] is nan, not finite"),
            (set_param(7, float("inf")), r"params\[7\] is inf, not finite"),
            (set_param(0, -float("inf")), r"params\[0\] is -inf, not finite"),
            # a NaN with a payload, as raw bytes: 0x7f800001 little-endian
            (set_param(133, np.frombuffer(bytes.fromhex("0100807f"), "<f4")[0]), r"params\[133\] is nan"),
        ],
    )
    def test_bad_params_rejected_naming_file_and_field(self, tmp_path, edit, field):
        p = self._tampered(tmp_path, edit)
        with pytest.raises(ValueError, match=field) as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("key", ["env", "ppo", "params"])
    def test_missing_top_level_key_named(self, tmp_path, key):
        p = self._tampered(tmp_path, lambda payload: payload.pop(key))  # was a bare KeyError
        with pytest.raises(ValueError, match=rf"missing key '{key}'") as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("key", ["lag_depth", "policy", "bogus"])
    def test_unknown_top_level_key_named(self, tmp_path, key):
        p = self._tampered(tmp_path, lambda payload: payload.update({key: 2}))
        with pytest.raises(ValueError, match=rf"unknown key '{key}'") as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            lambda payload: "[]\n",  # was AttributeError: 'list' object has no attribute 'get'
            lambda payload: "3\n",
            lambda payload: json.dumps(
                {"format": "yawbench-checkpoint", "version": 1, "lag_depth": 2, "policy": {}, "value": {}}
            ),
            # a valid version-2 file: the same configs, params as a list of numbers
            lambda payload: json.dumps(
                payload | {"version": 2, "params": decode_params(payload["params"]).tolist()}, sort_keys=True
            ) + "\n",
            # a valid version-3 file: the same configs, params as float64 bytes
            lambda payload: json.dumps(
                payload | {"version": 3, "params": encode_params(decode_params(payload["params"]), "<f8")},
                sort_keys=True,
            ) + "\n",
            # a valid version-4 file: the env record also holds the cycle period and the delay
            lambda payload: json.dumps(
                payload | {"version": 4, "env": payload["env"] | {"cycle_period": 10.0, "comm_delay": 10.0}},
                sort_keys=True,
            ) + "\n",
        ],
        ids=["list", "number", "version-1", "version-2", "version-3", "version-4"],
    )
    def test_not_a_version_5_checkpoint_named(self, tmp_path, text):
        p = self._tampered(tmp_path, lambda payload: None)
        p.write_text(text(json.loads(p.read_text())))
        with pytest.raises(ValueError, match=r"not a version-5 yawbench-checkpoint file") as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("data", [b'{"format": "yawbench-checkpoint", ', b"\xff\xfe{}"])
    def test_invalid_json_named(self, tmp_path, data):
        p = tmp_path / "ck.json"
        p.write_bytes(data)  # was a bare JSONDecodeError or UnicodeDecodeError
        with pytest.raises(ValueError, match=r"not JSON") as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize(
        "j, hidden, match",
        [
            (3, (4, 3), r"\(10, 4, 3, 3\), \(10, 4, 3, 1\)\) do not match j=3, hidden=\(4, 3\)$"),
            (2, (4, 4), r"^layer sizes \(\(10, 4, 3, 3\), \(10, 4, 3, 1\)\) do not match"),
            (2, (4,), r"hidden=\(4,\)"),
            (2, (4, 3, 2), r"hidden=\(4, 3, 2\)"),
        ],
    )
    def test_save_rejects_networks_that_do_not_match_the_configs(self, tmp_path, j, hidden, match):
        ac = ActorCritic.create(2, (4, 3), np.random.default_rng(0))
        env_cfg = make_env(j=j).cfg
        p = tmp_path / "ck.json"
        with pytest.raises(ValueError, match=match):
            save_checkpoint(p, ac, env_cfg, small_cfg(total_steps=128, hidden=hidden))
        assert not p.exists()

    @pytest.mark.parametrize(
        "bad, first, shown",
        [
            ({5: math.nan}, 5, "nan"),
            ({7: math.inf}, 7, "inf"),
            ({0: -math.inf}, 0, "-inf"),
            ({9: math.nan, 4: -math.inf}, 4, "-inf"),
        ],
    )
    def test_save_rejects_non_finite_parameters_writing_nothing(self, tmp_path, bad, first, shown):
        ac = ActorCritic.create(2, (4, 3), np.random.default_rng(0))
        for i, x in bad.items():
            ac.flat_params[i] = x
        p = tmp_path / "new" / "ck.json"  # was written holding NaN, which load_checkpoint then refused
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: params\[{first}\] is {shown}, not finite$"):
            save_checkpoint(p, ac, make_env(j=2).cfg, small_cfg(total_steps=128, hidden=(4, 3)))
        assert not p.parent.exists()

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda payload: payload["ppo"].update(bogus=1), r"ppo: .*'bogus'"),  # was a bare TypeError
            (lambda payload: payload["env"].update(bogus=1), r"env: .*'bogus'"),
            (lambda payload: payload["env"]["turbine"].update(bogus=1), r"env: .*'bogus'"),
            (lambda payload: payload["env"].pop("standardizer_scale"), r"env: missing key 'standardizer_scale'"),
            (lambda payload: payload["env"].pop("turbine"), r"env: missing key 'turbine'"),
            (lambda payload: payload["ppo"].update(learning_rate=float("nan")), r"ppo: learning_rate must be finite"),
            (lambda payload: payload["ppo"].update(hidden=[]), r"ppo: hidden layer widths must be positive"),
        ],
    )
    def test_bad_config_key_named(self, tmp_path, edit, match):
        p = self._tampered(tmp_path, edit)
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    def test_training_checkpoints_reproducible(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            env = make_env()
            cfg = small_cfg(total_steps=128)
            ac, _ = train(env, cfg)
            p = tmp_path / f"{name}.json"
            save_checkpoint(p, ac, env.cfg, cfg)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
