import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yawbench import (
    Action,
    ActorCritic,
    Adam,
    EnvConfig,
    Mlp,
    PpoConfig,
    RolloutBuffer,
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
from yawbench.ppo import OBS_FEATURES_PER_ROW, encode_batch, log_softmax

from ppo_reference import create_parameters, ppo_loss, softmax


def tiny_ac(seed=0, j=2, hidden=(8, 8)):
    return ActorCritic.create(j, hidden, np.random.default_rng(seed))


def random_batch(seed, ac, n=16, near_old=False):
    """Random minibatch with old log-probs detached from the current policy."""
    rng = np.random.default_rng(seed)
    d = ac.policy.sizes[0]
    obs = rng.normal(size=(n, d))
    actions = rng.integers(0, 3, size=n)
    lp_now = log_softmax(ac.policy.forward(obs))[np.arange(n), actions]
    jitter = 0.0 if near_old else rng.normal(scale=0.3, size=n)
    logp_old = lp_now + jitter
    advantages = rng.normal(size=n)
    returns = rng.normal(size=n)
    return obs, actions, logp_old, advantages, returns


def filled_buffer(seed, ac, n):
    """A finalized buffer of ``n`` random transitions for ``ac``'s input width."""
    obs, actions, logp_old, _, _ = random_batch(seed, ac, n=n)
    rng = np.random.default_rng(seed)
    buffer = RolloutBuffer(n, obs.shape[1])
    for row, a, lp in zip(obs, actions, logp_old):
        buffer.add(row, a, lp, rng.normal(), rng.random() < 0.1)
    buffer.finalize(rng.normal(size=n), rng.normal(), 0.99, 0.95)
    return buffer


def hexes(ac) -> list[str]:
    return [x.hex() for x in ac.flat_params.tolist()]


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
    def test_identity_ratio_gives_mean_advantage(self):
        ac = tiny_ac(11)
        obs, actions, _, adv, rets = random_batch(12, ac, near_old=True)
        lp_now = log_softmax(ac.policy.forward(obs))[np.arange(len(actions)), actions]
        stats = ppo_loss(ac, obs, actions, lp_now, adv, rets, 0.2, 0.5, 0.0)
        assert stats["policy_loss"] == pytest.approx(-float(np.mean(adv)), abs=1e-12)

    def test_clip_rule_arithmetic(self):
        ac = tiny_ac(13)
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
        # 20 random instances of a small network and buffer, central differences
        h = 1e-5
        for case in range(20):
            ac = tiny_ac(seed=100 + case)
            obs, actions, logp_old, adv, rets = random_batch(200 + case, ac)
            args = (obs, actions, logp_old, adv, rets, 0.2, 0.7, 0.05)
            _, grads = ppo_loss_and_grads(ac, *args)
            params = ac.parameters
            assert len(grads) == len(params)
            for p, g in zip(params, grads):
                flat_p = p.ravel()
                flat_g = g.ravel()
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    f_plus = ppo_loss(ac, *args)["total"]
                    flat_p[i] = orig - h
                    f_minus = ppo_loss(ac, *args)["total"]
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
            assert p.ctypes.data == ac.flat_params.ctypes.data + 8 * offset
            assert g.ctypes.data == ac.flat_grads.ctypes.data + 8 * offset
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
        ppo_update(ac, filled_buffer(5, ac, 32), cfg, Adam(ac.flat_params.size, 0.01), np.random.default_rng(6))
        self.assert_views(ac)
        assert not np.array_equal(ac.flat_params, before)
        assert np.concatenate([p.ravel() for p in ac.parameters]).tobytes() == ac.flat_params.tobytes()
        assert any(not np.array_equal(b, p) for b, p in zip(views_before, ac.parameters))
        ac.flat_params[0] += 1.0
        assert ac.policy.weights[0][0, 0] == ac.flat_params[0]


def make_env(length=3000, episode_len=16, j=2, seed=40):
    series = generate_synthetic(steady_preset(length_s=length), seed=seed)
    cfg = EnvConfig(
        standardizer=Standardizer(8.2), cycle_period=10.0, comm_delay=10.0,
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
        buffer = RolloutBuffer(cfg.n_steps, env.cfg.j * OBS_FEATURES_PER_ROW)
        obs = env.reset(rng=rng)
        values = []
        while not buffer.full:
            probs, value = policy_forward(ac, obs)
            values.append(value)
            a, logp = sample_action(probs, rng)
            obs2, r, done = env.step(a)
            buffer.add(encode_observation(obs), a, logp, r, done)
            obs = env.reset(rng=rng) if done else obs2
        buffer.finalize(values, 0.0, cfg.discount, cfg.gae_lambda)
        adam = Adam(ac.flat_params.size, lr=cfg.learning_rate)
        stats = ppo_update(ac, buffer, cfg, adam, rng)
        assert any(not np.array_equal(b, p) for b, p in zip(before, ac.parameters))
        assert np.isfinite(stats["total"])

    def test_unfinalized_buffer_rejected(self):
        env = make_env()
        cfg = small_cfg()
        buffer = RolloutBuffer(cfg.n_steps, env.cfg.j * OBS_FEATURES_PER_ROW)
        ac = tiny_ac()
        adam = Adam(ac.flat_params.size, lr=0.001)
        with pytest.raises(RuntimeError):
            ppo_update(ac, buffer, cfg, adam, np.random.default_rng(0))

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
            ("batch_size", 32.5, {"n_steps": 65}),  # 65 % 32.5 == 0, so it passed the divisibility check
            ("n_steps", 64.5, {}),
        ],
    )
    def test_fractional_or_non_finite_count_named(self, field, value, given):
        with pytest.raises(ValueError, match=rf"^{field} must be a (positive|non-negative) whole number, got {value}"):
            PpoConfig(**{field: value, **given})

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


class TestEvaluate:
    def test_greedy_tie_breaks_to_lowest_code(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(0))
        for w in ac.policy.weights:
            w[:] = 0.0
        for b in ac.policy.biases:
            b[:] = 0.0
        trace = evaluate(ac, env, mode="greedy", start_cycle=0)
        assert np.all(trace.action_issued == int(Action.CLOCKWISE))

    def test_stochastic_reproducible(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(1))
        t1 = evaluate(ac, env, mode="stochastic", rng=np.random.default_rng(3), start_cycle=0)
        t2 = evaluate(ac, env, mode="stochastic", rng=np.random.default_rng(3), start_cycle=0)
        assert t1.equals(t2)

    def test_evaluation_does_not_mutate_params(self):
        env = make_env()
        ac = ActorCritic.create(env.cfg.j, (8, 8), np.random.default_rng(2))
        before = [p.copy() for p in ac.parameters]
        evaluate(ac, env, mode="greedy", start_cycle=0)
        assert all(np.array_equal(b, p) for b, p in zip(before, ac.parameters))

    def test_mode_validation(self):
        env = make_env()
        ac = tiny_ac()
        with pytest.raises(ValueError):
            evaluate(ac, env, mode="argmax")
        with pytest.raises(ValueError):
            evaluate(ac, env, mode="stochastic")


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
        hidden=st.tuples(st.integers(1, 8), st.integers(1, 8)),
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
        buffer = filled_buffer(seed, ac, 32)
        for net in (ac, back):
            ppo_update(net, buffer, cfg, Adam(net.flat_params.size, cfg.learning_rate), np.random.default_rng(seed))
        assert hexes(back) == hexes(ac)

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

    @staticmethod
    def _set(payload, keys, value):
        *outer, last = keys
        for k in outer:
            payload = payload[k]
        payload[last] = value

    @pytest.mark.parametrize(
        "edits, field",
        [
            ([(("lag_depth",), 5)], "lag_depth"),  # was accepted beside a 10-wide input layer
            ([(("env", "j"), 3)], "lag_depth"),
            ([(("policy", "weights", 1), [[0.0] * 3] * 5)], r"policy\.weights\[1\]"),
            ([(("value", "biases", 0), [0.0] * 5)], r"value\.biases\[0\]"),
            ([(("value", "weights", 0), [[0.0] * 4] * 12)], r"value\.weights\[0\]"),
            (
                [(("policy", "weights", 2), [[0.0] * 2] * 3), (("policy", "biases", 2), [0.0] * 2)],
                "policy: 2 outputs, expected 3",
            ),
            (
                [(("value", "weights", 2), [[0.0] * 3] * 3), (("value", "biases", 2), [0.0] * 3)],
                "value: 3 outputs, expected 1",
            ),
            ([(("policy", "weights", 0, 3, 1), float("nan"))], "policy: layer 0 holds non-finite"),  # was accepted
            ([(("value", "biases", 2, 0), float("inf"))], "value: layer 2 holds non-finite"),
            ([(("policy", "weights"), [])], "policy: 0 weight"),
            ([(("policy", "weights", 1), [[0.0, 1.0], [0.0]])], "policy: unreadable"),
        ],
    )
    def test_bad_checkpoint_rejected_naming_file_and_field(self, tmp_path, edits, field):
        def edit(payload):
            for keys, value in edits:
                self._set(payload, keys, value)

        p = self._tampered(tmp_path, edit)
        with pytest.raises(ValueError, match=field) as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("key", ["env", "lag_depth", "ppo", "policy", "value"])
    def test_missing_top_level_key_named(self, tmp_path, key):
        p = self._tampered(tmp_path, lambda payload: payload.pop(key))  # was a bare KeyError
        with pytest.raises(ValueError, match=rf"missing key '{key}'") as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda payload: payload["ppo"].update(bogus=1), r"ppo: .*'bogus'"),  # was a bare TypeError
            (lambda payload: payload["env"].update(bogus=1), r"env: .*'bogus'"),
            (lambda payload: payload["env"]["turbine"].update(bogus=1), r"env: .*'bogus'"),
            (lambda payload: payload["env"].pop("standardizer_scale"), r"env: missing key 'standardizer_scale'"),
            (lambda payload: payload["env"].pop("turbine"), r"env: missing key 'turbine'"),
            (lambda payload: payload.update(lag_depth=None), r"lag_depth: int\(\) argument"),  # was a bare TypeError
            (lambda payload: payload.update(lag_depth="x"), r"lag_depth: invalid literal"),
            (lambda payload: payload["ppo"].update(learning_rate=float("nan")), r"ppo: learning_rate must be finite"),
        ],
    )
    def test_bad_config_key_named(self, tmp_path, edit, match):
        p = self._tampered(tmp_path, edit)
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(p)
        assert str(p) in str(err.value)

    def test_input_width_must_be_lag_depth_times_five(self, tmp_path):
        def widen(payload):
            payload["lag_depth"] = payload["env"]["j"] = 3  # inputs stay 10 wide
        with pytest.raises(ValueError, match=r"policy\.weights\[0\] has shape \(10, 4\), expected \(15, n\)"):
            load_checkpoint(self._tampered(tmp_path, widen))

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
