"""Micro-benchmarks of the substrate (repeated-round timings).

These are conventional pytest-benchmark measurements (many rounds) of the
hot paths every experiment depends on: autodiff forward/backward, LSTM
BPTT, PPO updates, SADAE ELBO steps and the KDE metric. They quantify the
cost of the from-scratch numpy engine that replaces the paper's
TensorFlow stack (a substitution documented in DESIGN.md).
"""

import numpy as np

from repro import nn
from repro.core import SADAE, SADAEConfig
from repro.envs import LTSConfig, LTSEnv
from repro.eval import GaussianKDE
from repro.rl import MLPActorCritic, PPO, PPOConfig, RolloutBuffer, collect_segment

RNG = np.random.default_rng(0)


def test_mlp_forward_backward(benchmark):
    mlp = nn.MLP([64, 128, 128, 1], np.random.default_rng(0))
    inputs = RNG.standard_normal((256, 64))

    def step():
        mlp.zero_grad()
        out = mlp(nn.Tensor(inputs)).sum()
        out.backward()
        return out.item()

    benchmark(step)


def test_lstm_bptt_30_steps(benchmark):
    """The learner's BPTT: one fused ``LSTMCell.unroll`` over 30 steps."""
    cell = nn.LSTMCell(16, 32, np.random.default_rng(0))
    seq = RNG.standard_normal((30, 32, 16))

    def step():
        cell.zero_grad()
        cell.unroll(nn.Tensor(seq)).sum().backward()

    benchmark(step)


def test_sadae_elbo_step(benchmark):
    sadae = SADAE(
        13,
        2,
        SADAEConfig(latent_dim=8, encoder_hidden=(64, 64), decoder_hidden=(64, 64), seed=0),
    )
    states = RNG.standard_normal((100, 13))
    actions = RNG.uniform(0, 1, (100, 2))
    sadae.fit_normalizer([(states, actions)])
    rng = np.random.default_rng(1)

    def step():
        sadae.zero_grad()
        (-sadae.elbo(states, actions, rng)).backward()

    benchmark(step)


def test_ppo_iteration_lts(benchmark):
    env = LTSEnv(LTSConfig(num_users=30, horizon=20, seed=0))
    policy = MLPActorCritic(2, 1, np.random.default_rng(0), hidden_sizes=(32, 32))
    ppo = PPO(policy, PPOConfig(update_epochs=2, minibatches_per_segment=2))
    rng = np.random.default_rng(0)

    def step():
        buffer = RolloutBuffer()
        buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        return ppo.update(buffer)["policy_loss"]

    benchmark(step)


def test_kde_logpdf(benchmark):
    data = RNG.standard_normal((500, 3))
    kde = GaussianKDE(data)
    queries = RNG.standard_normal((200, 3))

    benchmark(lambda: kde.logpdf(queries))


def test_product_of_gaussians(benchmark):
    means = nn.Tensor(RNG.standard_normal((200, 8)), requires_grad=True)
    log_stds = nn.Tensor(RNG.standard_normal((200, 8)) * 0.1, requires_grad=True)

    def step():
        means.zero_grad()
        log_stds.zero_grad()
        product = nn.product_of_gaussians(means, log_stds, axis=0)
        (product.mean.sum() + product.log_std.sum()).backward()

    benchmark(step)
