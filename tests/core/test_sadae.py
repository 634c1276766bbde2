"""Tests for SADAE: posterior form, ELBO training, embedding quality."""

import numpy as np
import pytest

from repro import nn
from repro.core import SADAE, SADAEConfig, train_sadae


def gaussian_sets(num_sets=24, n=60, dim=2, seed=0, mean_range=(-3, 3)):
    """Synthetic corpus: each X is drawn from N(m, 1) with a set-specific m."""
    rng = np.random.default_rng(seed)
    sets, means = [], []
    for _ in range(num_sets):
        mean = rng.uniform(*mean_range, size=dim)
        states = rng.normal(mean, 1.0, size=(n, dim))
        actions = rng.normal(0.0, 1.0, size=(n, 1))
        sets.append((states, actions))
        means.append(mean)
    return sets, np.array(means)


def make_sadae(state_dim=2, action_dim=1, state_only=False, seed=0, latent=4):
    config = SADAEConfig(
        latent_dim=latent,
        encoder_hidden=(32, 32),
        decoder_hidden=(32, 32),
        learning_rate=3e-3,
        weight_decay=1e-5,
        state_only=state_only,
        seed=seed,
    )
    return SADAE(state_dim, action_dim, config)


class TestPosterior:
    def test_posterior_is_diag_gaussian(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        posterior = sadae.posterior(*sets[0])
        assert isinstance(posterior, nn.DiagGaussian)
        assert posterior.mean.shape == (4,)

    def test_more_samples_tighter_posterior(self):
        """The Eq. (6) product sharpens with set size."""
        sadae = make_sadae()
        rng = np.random.default_rng(0)
        big = (rng.normal(1.0, 1.0, (200, 2)), rng.normal(0, 1, (200, 1)))
        small = (big[0][:10], big[1][:10])
        sadae.fit_normalizer([big])
        var_small = np.exp(2 * sadae.posterior(*small).log_std.data).mean()
        var_big = np.exp(2 * sadae.posterior(*big).log_std.data).mean()
        assert var_big < var_small

    def test_embed_is_posterior_mean(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        embedding = sadae.embed(*sets[0])
        np.testing.assert_allclose(embedding, sadae.posterior(*sets[0]).mean.data)

    def test_embed_tensor_gradient_flows_to_encoder(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        upsilon = sadae.embed_tensor(sets[0][0], sets[0][1], np.random.default_rng(0))
        upsilon.sum().backward()
        assert sadae.encoder.layers[0].weight.grad is not None

    def test_state_only_mode_ignores_actions(self):
        sadae = make_sadae(state_only=True)
        sets, _ = gaussian_sets(num_sets=1)
        e1 = sadae.embed(sets[0][0], None)
        e2 = sadae.embed(sets[0][0], sets[0][1])
        np.testing.assert_array_equal(e1, e2)


class TestStackedEmbedding:
    """``embed_tensor`` on a ``[T, N, d]`` stack of T per-step sets equals
    T per-step calls: rows bit-equal, the rng in the same end state, and
    gradients within 1e-10 relative (only their summation order moves)."""

    @staticmethod
    def step_sets(steps=6, n=10, seed=4):
        rng = np.random.default_rng(seed)
        states = rng.normal(rng.uniform(-2, 2, 2), 1.0, size=(steps, n, 2))
        actions = rng.normal(0.0, 1.0, size=(steps, n, 1))
        return states, actions

    def per_step(self, sadae, states, actions, rng):
        rows = [
            sadae.embed_tensor(states[t], None if actions is None else actions[t], rng)
            for t in range(states.shape[0])
        ]
        return nn.stack(rows, axis=0)

    @pytest.mark.parametrize("state_only", [False, True])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_bit_equal_to_per_step_calls(self, state_only, sampled):
        sadae = make_sadae(state_only=state_only)
        states, actions = self.step_sets()
        if state_only:
            actions = None
        sadae.fit_normalizer([(states[0], None if actions is None else actions[0])])
        rng_steps = np.random.default_rng(9) if sampled else None
        rng_stack = np.random.default_rng(9) if sampled else None
        reference = self.per_step(sadae, states, actions, rng_steps)
        stacked = sadae.embed_tensor(states, actions, rng_stack)
        assert stacked.shape == (states.shape[0], 4)
        np.testing.assert_array_equal(stacked.data, reference.data)
        if sampled:
            assert rng_stack.bit_generator.state == rng_steps.bit_generator.state

    @pytest.mark.parametrize("state_only", [False, True])
    def test_gradients_match_per_step_calls(self, state_only):
        sadae = make_sadae(state_only=state_only)
        states, actions = self.step_sets(steps=5, n=7)
        if state_only:
            actions = None
        cotangent = nn.Tensor(np.random.default_rng(2).standard_normal((5, 4)))
        grads = []
        for embed in (
            lambda rng: self.per_step(sadae, states, actions, rng),
            lambda rng: sadae.embed_tensor(states, actions, rng),
        ):
            sadae.zero_grad()
            (embed(np.random.default_rng(3)) * cotangent).sum().backward()
            grads.append([p.grad.copy() for p in sadae.encoder.parameters()])
        for expected, actual in zip(*grads):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(actual - expected)) <= 1e-10 * scale

    def test_stacked_posterior_rows_match_single_sets(self):
        sadae = make_sadae()
        states, actions = self.step_sets(steps=3, n=1)
        stacked = sadae.posterior(states, actions)
        for t in range(3):
            single = sadae.posterior(states[t], actions[t])
            np.testing.assert_array_equal(stacked.mean.data[t], single.mean.data)
            np.testing.assert_array_equal(stacked.log_std.data[t], single.log_std.data)


class TestELBO:
    def test_elbo_is_scalar(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        sadae.fit_normalizer(sets)
        value = sadae.elbo(sets[0][0], sets[0][1], np.random.default_rng(0))
        assert value.data.shape == () or value.data.size == 1

    def test_elbo_requires_actions_unless_state_only(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        sadae.fit_normalizer(sets)
        with pytest.raises(ValueError):
            sadae.elbo(sets[0][0], None, np.random.default_rng(0))

    def test_training_decreases_loss(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets()
        losses = train_sadae(sadae, sets, epochs=25, rng=np.random.default_rng(0))
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_training_state_only(self):
        sadae = make_sadae(state_only=True)
        sets, _ = gaussian_sets()
        state_sets = [(s, None) for s, _ in sets]
        losses = train_sadae(sadae, state_sets, epochs=20, rng=np.random.default_rng(0))
        assert losses[-1] < losses[0]

    def test_gradients_reach_decoders(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=1)
        sadae.fit_normalizer(sets)
        (-sadae.elbo(sets[0][0], sets[0][1], np.random.default_rng(0))).backward()
        assert sadae.state_decoder.layers[0].weight.grad is not None
        assert sadae.action_decoder.layers[0].weight.grad is not None

    def test_callback_invoked(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=4)
        calls = []
        train_sadae(sadae, sets, epochs=3, rng=np.random.default_rng(0), callback=calls.append)
        assert calls == [0, 1, 2]


    def test_non_finite_loss_raises_before_the_step(self):
        from repro.rl import TrainingDiverged

        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=4)
        sadae.fit_normalizer(sets)
        states, actions = sets[2]
        states = states.copy()
        states[5, 1] = np.nan
        sets[2] = (states, actions)
        before = [p.data.copy() for p in sadae.parameters()]
        with pytest.raises(TrainingDiverged, match="SADAE loss is nan in epoch 0"):
            train_sadae(
                sadae, sets, epochs=1, rng=np.random.default_rng(0),
                sets_per_step=4, fit_normalizer=False,
            )
        for param, data in zip(sadae.parameters(), before):
            np.testing.assert_array_equal(param.data, data)


class TestEmbeddingQuality:
    def test_embedding_separates_distributions(self):
        """Sets from distant distributions must embed further apart than
        fresh draws from the same distribution (RQ1 at unit scale)."""
        sadae = make_sadae(latent=4)
        sets, means = gaussian_sets(num_sets=30, n=80)
        train_sadae(sadae, sets, epochs=40, rng=np.random.default_rng(0))
        rng = np.random.default_rng(123)
        mean_a, mean_b = np.array([-2.0, -2.0]), np.array([2.0, 2.0])

        def embed_from(mean):
            states = rng.normal(mean, 1.0, (80, 2))
            actions = rng.normal(0, 1.0, (80, 1))
            return sadae.embed(states, actions)

        same = np.linalg.norm(embed_from(mean_a) - embed_from(mean_a))
        different = np.linalg.norm(embed_from(mean_a) - embed_from(mean_b))
        assert different > 2.0 * same

    def test_embedding_correlates_with_generating_mean(self):
        sadae = make_sadae(latent=4)
        sets, means = gaussian_sets(num_sets=40, n=60, dim=2)
        train_sadae(sadae, sets, epochs=40, rng=np.random.default_rng(0))
        embeddings = np.stack([sadae.embed(s, a) for s, a in sets])
        # Some latent dimension must track the generating mean's first coord.
        correlations = [
            abs(np.corrcoef(embeddings[:, d], means[:, 0])[0, 1])
            for d in range(embeddings.shape[1])
        ]
        assert max(correlations) > 0.7

    def test_reconstruction_matches_distribution(self):
        """Decoded samples should approximate the source distribution."""
        sadae = make_sadae(latent=4)
        sets, means = gaussian_sets(num_sets=30, n=100)
        train_sadae(sadae, sets, epochs=60, rng=np.random.default_rng(0))
        states, actions = sets[0]
        recon_states, recon_actions = sadae.sample_reconstruction(
            states, actions, np.random.default_rng(0), num_samples=2000
        )
        assert recon_actions is not None
        np.testing.assert_allclose(recon_states.mean(axis=0), states.mean(axis=0), atol=0.7)

    def test_decode_state_distribution_raw_scale(self):
        sadae = make_sadae()
        sets, _ = gaussian_sets(num_sets=2)
        sadae.fit_normalizer(sets)
        mean, std = sadae.decode_state_distribution(np.zeros(4))
        assert mean.shape == (2,)
        assert np.all(std > 0)
