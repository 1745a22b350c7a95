"""Differential property tests: the PPO hot loop against the reference it replaced.

Training (one encode per step, flat-moment Adam, the lean batch-of-one
softmax and sampler), evaluation, the encoder and the sampler must reproduce
``ppo_reference`` bit for bit, not merely to a tolerance.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppo_reference as ref
from yawbench import (
    ActorCritic,
    Adam,
    EnvConfig,
    PpoConfig,
    Standardizer,
    YawEnv,
    evaluate,
    generate_synthetic,
    sample_action,
    steady_preset,
    train,
)
from yawbench.ppo import encode_batch, encode_observation, policy_forward


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_traces(t1, t2) -> bool:
    return all(same_bits(a, b) for a, b in zip(vars(t1).values(), vars(t2).values()))


def make_env(seed, j, episode_len=24):
    series = generate_synthetic(steady_preset(length_s=3000), seed=seed)
    cfg = EnvConfig(standardizer=Standardizer(8.2), k=2, j=j, w=40.0, episode_len=episode_len)
    return YawEnv(series, cfg)


widths = st.integers(1, 12)


class TestTrain:
    @settings(max_examples=25)
    @given(
        hidden=st.tuples(widths, widths),
        batch_size=st.sampled_from([4, 16, 64]),
        epochs=st.integers(1, 3),
        entropy_coef=st.sampled_from([0.0, 0.01, 0.5]),
        init_offset_deg=st.sampled_from([0.0, 3.0, 170.0]),
        seed=st.integers(0, 2**16),
        j=st.integers(1, 4),
    )
    @example(hidden=(16, 16), batch_size=16, epochs=2, entropy_coef=0.05, init_offset_deg=20.0, seed=0, j=12)
    def test_learning_curve_and_weights_match_reference(
        self, hidden, batch_size, epochs, entropy_coef, init_offset_deg, seed, j
    ):
        cfg = PpoConfig(
            learning_rate=0.01, n_steps=64, batch_size=batch_size, epochs=epochs, total_steps=128,
            hidden=hidden, entropy_coef=entropy_coef, init_offset_deg=init_offset_deg, seed=seed,
        )
        ac, curve = train(make_env(seed % 5, j), cfg)
        ac_ref, curve_ref = ref.train(make_env(seed % 5, j), cfg)
        assert repr(curve) == repr(curve_ref)  # repr: a rollout with no finished episode has a nan mean_return
        assert all(same_bits(a, b) for a, b in zip(ac.parameters, ac_ref.parameters))


class TestEvaluate:
    @given(
        hidden=st.tuples(widths, widths),
        scale=st.sampled_from([0.0, 1.0, 40.0]),  # ties, ordinary, near-deterministic policies
        seed=st.integers(0, 2**16),
        j=st.integers(1, 4),
        start_cycle=st.integers(0, 200),
    )
    def test_greedy_and_stochastic_traces_match_reference(self, hidden, scale, seed, j, start_cycle):
        ac = ActorCritic.create(j, hidden, np.random.default_rng(seed))
        for w in ac.policy.weights:
            w *= scale
        env = make_env(seed % 5, j, episode_len=40)
        greedy = evaluate(ac, env, start_cycle=start_cycle)
        assert same_traces(greedy, ref.evaluate(ac, env, start_cycle=start_cycle))
        with np.errstate(divide="ignore"):  # a zero-probability action has log-probability -inf
            stochastic = evaluate(ac, env, "stochastic", rng=np.random.default_rng(seed), start_cycle=start_cycle)
            expected = ref.evaluate(ac, env, "stochastic", rng=np.random.default_rng(seed), start_cycle=start_cycle)
        assert same_traces(stochastic, expected)

    def test_policy_forward_matches_reference(self):
        rng = np.random.default_rng(5)
        ac = ActorCritic.create(12, (64, 64), rng)
        for _ in range(500):
            obs = np.column_stack(
                [rng.integers(0, 3, 12), rng.uniform(-180, 180, 12), rng.uniform(0, 360, 12), rng.normal(size=12)]
            )
            probs, value = policy_forward(ac, obs)
            probs_ref, value_ref = ref.policy_forward(ac, obs)
            assert same_bits(probs, probs_ref) and same_bits(value, value_ref)


def grads_for(rng, shapes):
    """Gradients of either sign from 1e-8 to 1e3 in magnitude, about a fifth of them exactly zero."""
    out = []
    for s in shapes:
        g = rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-8, 3, size=s)
        g[rng.random(s) < 0.2] = 0.0
        out.append(g)
    return out


class TestAdam:
    @given(
        shapes=st.lists(
            st.one_of(st.tuples(st.integers(1, 7), st.integers(1, 7)), st.tuples(st.integers(1, 9))),
            min_size=1,
            max_size=6,
        ),
        lr=st.sampled_from([1e-4, 0.003, 0.7]),
        steps=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parameters_match_per_array_reference(self, shapes, lr, steps, seed):
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=s) for s in shapes]
        params_ref = [p.copy() for p in params]
        opt, opt_ref = Adam(shapes, lr), ref.Adam(shapes, lr)
        for _ in range(steps):
            grads = grads_for(rng, shapes)
            opt.step(params, grads)
            opt_ref.step(params_ref, grads)
        assert all(same_bits(a, b) for a, b in zip(params, params_ref))
        assert same_bits(opt.m, np.concatenate([m.ravel() for m in opt_ref.m]))
        assert same_bits(opt.v, np.concatenate([v.ravel() for v in opt_ref.v]))

    def test_network_shapes_over_many_steps(self):
        rng = np.random.default_rng(11)
        ac = ActorCritic.create(12, (64, 64), rng)
        shapes = [p.shape for p in ac.parameters]
        params, params_ref = ac.parameters, [p.copy() for p in ac.parameters]
        opt, opt_ref = Adam(shapes, 0.003), ref.Adam(shapes, 0.003)
        for _ in range(300):
            grads = grads_for(rng, shapes)
            opt.step(params, grads)
            opt_ref.step(params_ref, grads)
        assert all(same_bits(a, b) for a, b in zip(params, params_ref))


# Directions at and next to the 0/360 seam, and anywhere on the circle.
seam_deg = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 359.99999999999994, 360.0 - 1e-9, 180.0, 90.0]),
    st.floats(0.0, 1e-6),
    st.floats(360.0 - 1e-6, 360.0, exclude_max=True),
    st.floats(0.0, 360.0, exclude_max=True),
)


@st.composite
def observations(draw):
    n, j = draw(st.integers(1, 6)), draw(st.integers(1, 13))
    phi = draw(st.lists(seam_deg, min_size=n * j, max_size=n * j))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack(
        [
            rng.integers(0, 3, (n, j)).astype(float),
            rng.uniform(-180.0, 180.0, (n, j)),
            np.reshape(phi, (n, j)),
            rng.normal(scale=2.0, size=(n, j)),
        ],
        axis=2,
    )


class TestEncode:
    @given(obs=observations())
    def test_rows_across_the_seam_match_reference(self, obs):
        assert same_bits(encode_batch(obs), ref.encode_batch(obs))
        for row in obs:
            assert same_bits(encode_observation(row), ref.encode_observation(row))

    def test_many_random_rows(self):
        rng = np.random.default_rng(3)
        obs = np.stack(
            [
                rng.integers(0, 3, (4096, 12)).astype(float),
                rng.uniform(-180.0, 180.0, (4096, 12)),
                rng.uniform(0.0, 360.0, (4096, 12)),
                rng.normal(size=(4096, 12)),
            ],
            axis=2,
        )
        assert same_bits(encode_batch(obs), ref.encode_batch(obs))


class FixedDraw:
    """Stands in for the generator: ``random()`` returns one chosen value."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


class TestSampleAction:
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
        where=st.sampled_from(["p0", "p0+p1", "below p0", "below p0+p1", "above p0", "zero", "top"]),
    )
    @example(weights=[0.25, 0.5, 0.25], where="p0")
    @example(weights=[0.25, 0.5, 0.25], where="p0+p1")
    @example(weights=[1.0, 1.0, 1.0], where="p0+p1")
    @example(weights=[0.5, 0.5, 0.0], where="p0+p1")
    @example(weights=[0.0, 1.0, 0.0], where="zero")
    @example(weights=[0.0, 0.0, 1.0], where="p0+p1")
    def test_draws_on_cumulative_boundaries_match_reference(self, weights, where):
        p = np.asarray(weights) / sum(weights)
        p0, p1 = float(p[0]), float(p[1])
        u = {
            "p0": p0,
            "p0+p1": p0 + p1,
            "below p0": np.nextafter(p0, 0.0),
            "below p0+p1": np.nextafter(p0 + p1, 0.0),
            "above p0": np.nextafter(p0, 1.0),
            "zero": 0.0,
            "top": np.nextafter(1.0, 0.0),
        }[where]
        u = min(u, np.nextafter(1.0, 0.0))  # a draw from [0, 1)
        with np.errstate(divide="ignore"):
            action, logp = sample_action(p, FixedDraw(u))
            action_ref, logp_ref = ref.sample_action(p, FixedDraw(u))
        assert action is action_ref and same_bits(logp, logp_ref)
