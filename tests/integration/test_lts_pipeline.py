"""End-to-end integration: the LTS transfer story at miniature scale.

Reproduces the core Fig. 6 mechanism inside the test suite: a Sim2Rec
policy trained only on gapped simulators must transfer to the unseen
target environment better than a DIRECT policy trained on one wrong
simulator.
"""

import numpy as np
import pytest

from repro.baselines import lts_single_sampler, make_direct_trainer
from repro.core import lts_small_config
from repro.envs import make_lts_task, oracle_constant_policy_return
from repro.rl import evaluate
from repro.scenarios import trainer_from_config

TASK_PARAMS = dict(
    num_users=30,
    horizon=25,
    seed=0,
    observation_noise_std=6.0,
    sensitivity_range=(0.25, 0.4),
    memory_discount_range=(0.7, 0.8),
)


@pytest.fixture(scope="module")
def task():
    return make_lts_task("LTS3", **TASK_PARAMS)


@pytest.fixture(scope="module")
def trained(task):
    config = lts_small_config(seed=0)
    trainer = trainer_from_config(config, {"family": "lts", "task": "LTS3", **TASK_PARAMS})
    trainer.pretrain_sadae(epochs=15)
    trainer.train(20)

    direct = make_direct_trainer(2, 1, lts_single_sampler(task, 0), config)
    direct.train(30)
    return trainer.sim2rec_policy, direct.policy, trainer


def target_reward(task, policy, seed=0):
    env = task.make_target_env(seed_offset=500 + seed)
    act_fn = policy.as_act_fn(np.random.default_rng(seed), deterministic=True)
    return evaluate(act_fn, env, episodes=2)


class TestLTSPipeline:
    def test_sim2rec_beats_direct_on_transfer(self, task, trained):
        sim2rec_policy, direct_policy, _ = trained
        sim2rec_reward = target_reward(task, sim2rec_policy)
        direct_reward = target_reward(task, direct_policy)
        assert sim2rec_reward > direct_reward, (
            f"Sim2Rec ({sim2rec_reward:.1f}) must beat DIRECT ({direct_reward:.1f})"
        )

    def test_sim2rec_near_constant_oracle(self, task, trained):
        sim2rec_policy, _, _ = trained
        target = task.make_target_env(seed_offset=501)
        grid = np.linspace(0, 1, 21)
        oracle = max(oracle_constant_policy_return(target, a) for a in grid)
        reward = target_reward(task, sim2rec_policy, seed=1)
        assert reward > 0.8 * oracle

    def test_training_reward_reported(self, trained):
        _, _, trainer = trained
        rewards = trainer.logger.series("reward")
        assert len(rewards) == 20
        assert all(np.isfinite(r) for r in rewards)

    def test_direct_locked_to_wrong_group_action(self, task, trained):
        """DIRECT (trained on μ_c = 6) should act near that group's optimum,
        which is far below the target group's optimal clickbaitiness."""
        _, direct_policy, _ = trained
        env = task.make_target_env(seed_offset=502)
        states = env.reset()
        actions, _, _ = direct_policy.act(
            states, np.zeros((30, 1)), np.random.default_rng(0), deterministic=True
        )
        # target-group optimum is ~0.5; the μ_c=6 optimum is ~0.0
        assert actions.mean() < 0.4
