"""Differential property tests: the PPO hot loop against the reference it replaced.

Training (one encode per step, values in one stacked forward after the
rollout, Adam on one flat vector, the 1-D inference forward, the lean
batch-of-one softmax and sampler, GAE on Python floats), the loss and its
gradients (three-column sums, no ``np.clip``, in-place bias and tanh, ufunc
reductions, on 1- to 3-layer networks), evaluation (greedy by Python comparisons of the logits), the
encoder and the sampler must reproduce ``ppo_reference`` bit for bit, not
merely to a tolerance. The networks are float32, so their inputs here are
float32 rows, and the references run at that dtype.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppo_reference as ref
from yawbench.env import EnvConfig, YawEnv
from yawbench.ppo import (
    ActorCritic,
    Adam,
    PpoConfig,
    _greedy_action,
    compute_gae,
    encode_observation,
    evaluate,
    log_softmax,
    policy_forward,
    ppo_loss_and_grads,
    sample_action,
    train,
)
from yawbench.wind import Standardizer, generate_synthetic, steady_preset


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


def greedy_or_error(rule, z):
    try:
        return rule(z)
    except ValueError:
        return ValueError


tiny, huge = float(np.float32(1e-30)), float(np.float32(3e38))
float32s = st.one_of(
    st.floats(width=32),
    st.floats(tiny, huge, width=32),
    st.floats(-huge, -tiny, width=32),
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, math.inf, -math.inf, math.nan]),
)
# three free logits, or three picked from two values to make ties
logit_triples = st.tuples(float32s, float32s, float32s) | st.tuples(float32s, float32s).flatmap(
    lambda pair: st.tuples(*[st.sampled_from(pair)] * 3)
)


class TestEvaluate:
    @given(
        hidden=st.tuples(widths, widths),
        scale=st.sampled_from([0.0, 1.0, 40.0]),  # ties, ordinary, near-deterministic policies
        seed=st.integers(0, 2**16),
        j=st.integers(1, 4),
        episode_len=st.integers(1, 240),
    )
    def test_greedy_traces_match_reference(self, hidden, scale, seed, j, episode_len):
        ac = ActorCritic.create(j, hidden, np.random.default_rng(seed))
        for w in ac.policy.weights:
            w *= scale
        env = make_env(seed % 5, j, episode_len=episode_len)
        assert same_traces(evaluate(ac, env), ref.evaluate(ac, env))

    @pytest.mark.parametrize(
        "logits, action",
        [
            ([0.0, 0.0, 0.0], 0),
            ([2.5, 2.5, 2.5], 0),
            ([1.0, 1.0, -3.0], 0),
            ([1.0, -3.0, 1.0], 0),
            ([-3.0, 1.0, 1.0], 1),
            ([-3.0, 1.0, 2.0], 2),
            ([-3.0, 2.0, 1.0], 1),
        ],
    )
    def test_greedy_ties_go_to_the_lowest_action(self, logits, action):
        # zero weights make the logits the output biases
        ac = ActorCritic.create(2, (4, 4), np.random.default_rng(0))
        for w in ac.policy.weights:
            w[...] = 0.0
        ac.policy.biases[-1][...] = logits
        env = make_env(1, 2, episode_len=5)
        trace = evaluate(ac, env)
        assert trace.action_issued.tolist() == [action] * 5
        assert same_traces(trace, ref.evaluate(ac, env))

    @given(z=st.lists(st.one_of(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                st.sampled_from([0.0, -0.0, 1.0])), min_size=3, max_size=3))
    def test_greedy_action_is_argmax(self, z):
        z = np.array(z, dtype=np.float32)
        assert _greedy_action(z) == int(np.argmax(z))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_greedy_rejects_a_nan_or_infinite_logit(self, bad, at):
        z = np.array([0.2, 0.3, 0.5], dtype=np.float32)
        z[at] = bad
        with pytest.raises(ValueError, match="degenerate action distribution"):
            _greedy_action(z)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_greedy_takes_a_minus_infinite_logit_unless_all_are(self, at):
        # exp(-inf) is a finite probability 0; three -inf leave the softmax 0/0
        z = np.array([0.2, 0.5, 0.3], dtype=np.float32)
        z[at] = -math.inf
        assert _greedy_action(z) == ref.greedy_action(z) == (2 if at == 1 else 1)
        with pytest.raises(ValueError, match="degenerate action distribution"):
            _greedy_action(np.full(3, -math.inf, dtype=np.float32))

    @settings(max_examples=500)
    @given(z=logit_triples)
    @example(z=(0.0, -1.0, 1e-45))
    @example(z=(math.nan, math.inf, 1.0))
    @example(z=(-0.0, 0.0, -1.0))
    def test_greedy_action_follows_the_softmax_rule(self, z):
        z = np.array(z, dtype=np.float32)
        got, want = (greedy_or_error(rule, z) for rule in (_greedy_action, ref.greedy_action))
        top_two = sorted(z.astype(np.float64).tolist())[-2:]
        if got != want:
            # the float64 softmax rounds two logits this close to one probability and takes the lower index
            assert ValueError not in (got, want) and top_two[1] - top_two[0] < 1e-15
            assert got == int(np.argmax(z)) and want < got

    def test_greedy_action_of_a_near_tie_takes_the_larger_logit(self):
        # exp(-1e-45) rounds to 1.0, so the softmax called this a tie of actions 0 and 2
        z = np.array([0.0, -1.0, 1e-45], dtype=np.float32)
        assert (_greedy_action(z), ref.greedy_action(z)) == (2, 0)

    def test_greedy_evaluation_of_nan_weights_raises(self):
        ac = ActorCritic.create(2, (4, 4), np.random.default_rng(0))
        ac.policy.weights[-1][0, 0] = math.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="degenerate action distribution"):
            evaluate(ac, make_env(1, 2, episode_len=5))

    def test_policy_forward_matches_reference(self):
        # the probabilities of a raw observation, encoded and rounded to float32 as the env holds it
        rng = np.random.default_rng(5)
        ac = ActorCritic.create(12, (64, 64), rng)
        for _ in range(500):
            obs = np.column_stack(
                [rng.integers(0, 3, 12), rng.uniform(-180, 180, 12), rng.uniform(0, 360, 12), rng.normal(size=12)]
            )
            probs = policy_forward(ac, encode_observation(obs).astype(np.float32))
            assert same_bits(probs, ref.policy_forward(ac, obs)[0])


def grads_for(rng, shapes):
    """float32 gradients of either sign from 1e-8 to 1e3 in magnitude, about a fifth of them exactly zero."""
    out = []
    for s in shapes:
        g = rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-8, 3, size=s)
        g[rng.random(s) < 0.2] = 0.0
        out.append(g.astype(np.float32))
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
        size = sum(math.prod(s) for s in shapes)
        params = rng.normal(size=size).astype(np.float32)
        params_ref = params.copy()
        opt, opt_ref = Adam(size, lr), ref.Adam(shapes, lr)
        for _ in range(steps):
            grads = np.concatenate([g.ravel() for g in grads_for(rng, shapes)])
            given_grads = grads.copy()
            opt.step(params, grads)
            opt_ref.step(params_ref, grads)
            assert same_bits(grads, given_grads)  # the gradients are read, never overwritten
        assert same_bits(params, params_ref)
        assert same_bits(opt.m, np.concatenate([m.ravel() for m in opt_ref.m]))
        assert same_bits(opt.v, np.concatenate([v.ravel() for v in opt_ref.v]))

    def test_first_moment_decaying_below_the_float32_normals_is_zeroed(self):
        # gradients that stay exactly zero take m through the subnormals (0.9**t from about 0.1
        # crosses 2**-126 near t = 810), where it would stick at four times the smallest one
        rng = np.random.default_rng(4)
        shapes = [(5, 3), (3,)]
        params = rng.normal(size=18).astype(np.float32)
        params_ref = params.copy()
        opt, opt_ref = Adam(18, 0.003), ref.Adam(shapes, 0.003)
        grads = rng.normal(size=18).astype(np.float32)
        for t in range(1200):
            opt.step(params, grads)
            opt_ref.step(params_ref, grads)
            grads[:9] = 0.0
        assert same_bits(params, params_ref)
        assert same_bits(opt.m, np.concatenate([m.ravel() for m in opt_ref.m]))
        assert np.all(opt.m[:9] == 0.0) and np.all(opt.m[9:] != 0.0)

    def test_network_shapes_over_many_steps(self):
        rng = np.random.default_rng(11)
        ac = ActorCritic.create(12, (64, 64), rng)
        shapes = [p.shape for p in ac.parameters]
        params_ref = ac.flat_params.copy()
        opt, opt_ref = Adam(ac.flat_params.size, 0.003), ref.Adam(shapes, 0.003)
        for _ in range(300):
            for g, new in zip(ac.gradients, grads_for(rng, shapes)):
                g[...] = new
            opt.step(ac.flat_params, ac.flat_grads)
            opt_ref.step(params_ref, ac.flat_grads)
        assert same_bits(ac.flat_params, params_ref)


class TestStackedValues:
    @given(
        j=st.sampled_from([1, 2, 3, 12, 20]),
        hidden=st.lists(st.integers(1, 80), min_size=1, max_size=3).map(tuple),
        n=st.integers(1, 130),
        chunk=st.integers(1, 140),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(j=12, hidden=(64, 64), n=2048, chunk=64, seed=0)  # the shape of a default rollout
    def test_each_row_matches_a_batch_of_one_forward(self, j, hidden, n, chunk, seed):
        rng = np.random.default_rng(seed)
        ac = ActorCritic.create(j, hidden, rng)
        x = rng.normal(size=(n, j * 5)).astype(np.float32)
        for net in (ac.policy, ac.value):
            rows = np.concatenate([net.forward(row[None]) for row in x])
            assert same_bits(net.forward_rows(x, chunk), rows)


class TestInferenceForward:
    """``Mlp.forward`` takes a 1-D row and keeps no activations; it must give the bits of the
    ``(1, k)`` row through ``forward_cached`` and of that row in ``forward_rows``."""

    @given(
        j=st.sampled_from([1, 2, 3, 7, 12, 20]),
        hidden=st.lists(st.integers(1, 80), min_size=1, max_size=3).map(tuple),
        n=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(j=12, hidden=(64, 64), n=64, scale=1.0, seed=0)  # the default networks
    def test_row_equals_batch_of_one_and_stacked_rows(self, j, hidden, n, scale, seed):
        rng = np.random.default_rng(seed)
        ac = ActorCritic.create(j, hidden, rng)
        x = rng.normal(scale=scale, size=(n, j * 5)).astype(np.float32)
        for net in (ac.policy, ac.value):
            rows = np.stack([net.forward(row) for row in x])
            cached = np.concatenate([net.forward_cached(row[None])[0] for row in x])
            assert same_bits(rows, cached)
            assert same_bits(rows, net.forward_rows(x, 16))
            assert same_bits(net.forward(x), net.forward_cached(x)[0])  # a 2-D batch
        for row in x:
            assert same_bits(policy_forward(ac, row), ref.policy_probs(ac, row))

    def test_read_only_row_of_the_env(self):
        # the env's float32 view, passed as is, at an offset of the table that is not 16-byte aligned
        env = make_env(3, 12)
        env.reset(start_cycle=0)
        env.step(1)
        ac = ActorCritic.create(12, (64, 64), np.random.default_rng(3))
        x = env.encoded_observation
        assert not x.flags.writeable and x.dtype == np.float32
        assert same_bits(ac.value.forward(x), ac.value.forward_cached(x[None])[0][0])
        assert same_bits(policy_forward(ac, x), ref.policy_probs(ac, np.array(x)))


class TestGae:
    @given(
        n=st.integers(0, 300),
        discount=st.sampled_from([0.9, 0.99, 1.0]),
        gae_lambda=st.sampled_from([0.0, 0.95, 1.0]),
        done_rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        bootstrap=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0])),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2048, discount=0.99, gae_lambda=0.95, done_rate=0.004, bootstrap=-3e4, seed=0)  # a default rollout
    def test_equals_numpy_scalar_loop(self, n, discount, gae_lambda, done_rate, bootstrap, seed):
        rng = np.random.default_rng(seed)
        rewards = rng.normal(scale=1e4, size=n) * 10.0 ** rng.integers(-3, 3, n)
        values, dones = rng.normal(scale=1e4, size=n), rng.random(n) < done_rate
        adv, ret = compute_gae(rewards, values, dones, bootstrap, discount, gae_lambda)
        adv_ref, ret_ref = ref.compute_gae(rewards, values, dones, bootstrap, discount, gae_lambda)
        assert same_bits(adv, adv_ref) and same_bits(ret, ret_ref)
        strided = np.repeat(values, 2)[::2]  # a non-contiguous view of the same values
        assert same_bits(compute_gae(rewards.tolist(), strided, dones, bootstrap, discount, gae_lambda)[0], adv_ref)


class TestLogSoftmax:
    """The row max taken column by column must give the bits of ``np.max``'s ``keepdims`` reduction."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        n=st.integers(1, 80),
        scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 800.0]),  # ties, ordinary, exp underflow
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_keepdims_reference(self, dtype, n, scale, seed):
        z = np.random.default_rng(seed).normal(scale=scale, size=(n, 3)).astype(dtype)
        assert same_bits(log_softmax(z), ref.log_softmax(z))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, -200.0, 3e4]), st.floats(-60.0, 60.0)),
                     min_size=3, max_size=3),
            min_size=1,
            max_size=80,
        )
    )
    @example(rows=[[0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, -200.0], [-0.0, 0.0, -200.0], [1.5, 1.5, 1.5]])
    def test_ties_and_signed_zeros_equal_keepdims_reference(self, dtype, rows):
        # rows with a +-0.0 tie or a repeated value for the max, and maxima far apart
        z = np.array(rows, dtype=dtype)
        assert same_bits(log_softmax(z), ref.log_softmax(z))

    def test_signed_zeros_and_a_huge_gap(self):
        z = np.array([[0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], [0.0, -800.0, -900.0],
                      [-0.0, -1e308, -1e308], [5.0, 5.0, -1e308]])
        out = log_softmax(z)
        assert same_bits(out, ref.log_softmax(z))
        probs = np.exp(out)
        assert same_bits(-((probs * out)[:, 0] + (probs * out)[:, 1] + (probs * out)[:, 2]),
                         -np.sum(probs * out, axis=1))


class TestLossAndGrads:
    @given(
        hidden=st.lists(widths, min_size=1, max_size=3).map(tuple),
        n=st.integers(1, 80),
        j=st.integers(1, 4),
        clip_eps=st.sampled_from([0.05, 0.2]),
        value_coef=st.sampled_from([0.0, 0.5, 2.0]),
        entropy_coef=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(hidden=(5,), n=7, j=2, clip_eps=0.2, value_coef=0.5, entropy_coef=0.05, seed=0)
    @example(hidden=(3, 8, 5), n=64, j=3, clip_eps=0.2, value_coef=0.5, entropy_coef=0.05, seed=1)
    @example(hidden=(64, 64), n=64, j=12, clip_eps=0.2, value_coef=0.5, entropy_coef=0.0, seed=2)  # the default
    def test_stats_and_gradients_match_reference(self, hidden, n, j, clip_eps, value_coef, entropy_coef, seed):
        rng = np.random.default_rng(seed)
        ac = ActorCritic.create(j, hidden, rng)
        args = (
            rng.normal(size=(n, j * 5)).astype(np.float32),
            rng.integers(0, 3, n),
            rng.normal(-1.1, 0.3, n).astype(np.float32),
            rng.normal(size=n).astype(np.float32),
            rng.normal(size=n).astype(np.float32),
            clip_eps,
            value_coef,
            entropy_coef,
        )
        stats, grads = ppo_loss_and_grads(ac, *args)
        stats_ref, grads_ref = ref.ppo_loss_and_grads(ac, *args)
        assert repr(stats) == repr(stats_ref)
        assert len(grads) == len(grads_ref) and all(same_bits(g, r) for g, r in zip(grads, grads_ref))
        assert all(np.shares_memory(g, ac.flat_grads) for g in grads)


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
        for row in obs:
            assert same_bits(encode_observation(row), ref.encode_observation(row))

    @pytest.mark.parametrize("shape", [(12,), (12, 3), (12, 5), (1, 12, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^expected a finite observation shaped \(j, 4\)"):
            encode_observation(np.zeros(shape))


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

    @pytest.mark.parametrize(
        "probs, valid",
        [
            ([-0.2, 0.6, 0.6], False),
            ([0.6, -0.2, 0.6], False),
            ([0.6, 0.6, -0.2], False),
            ([np.nan, 0.5, 0.5], False),
            ([0.5, np.nan, 0.5], False),
            ([0.5, 0.5, np.nan], False),
            ([np.inf, 0.0, 0.0], False),
            ([0.0, np.inf, 0.0], False),
            ([0.0, 0.0, np.inf], False),
            ([0.5, 0.25, 0.25 + 2e-8], False),
            ([0.5, 0.25, 0.25 - 2e-8], False),
            ([0.5, 0.25, 0.25 + 5e-9], True),
            ([-0.0, 0.0, 1.0], True),
        ],
    )
    def test_each_validity_check_matches_reference(self, probs, valid):
        def outcome(fn):
            try:
                with np.errstate(divide="ignore"):
                    return fn(np.array(probs), FixedDraw(0.3))
            except ValueError as exc:
                return str(exc)

        got = outcome(sample_action)
        assert got == outcome(ref.sample_action)
        assert isinstance(got, tuple) is valid
