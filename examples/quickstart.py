"""Quickstart: train a Sim2Rec policy on LTS and transfer it zero-shot.

Builds the LTS3 task as an ``lts`` scenario (training simulators whose
group parameter is at least 4 away from the deployment environment),
pretrains SADAE on the simulator set, runs a short Algorithm 1 loop, and
evaluates the policy in the unseen target environment ω* = [0, 0].

Run:  python examples/quickstart.py
"""

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import lts_small_config
from repro.rl import evaluate
from repro.scenarios import trainer_from_config


def main():
    # 1. The transfer task: a set of gapped training simulators + the
    #    unseen target environment (the "real world").
    spec = {
        "family": "lts",
        "task": "LTS3",
        "num_users": 40,
        "horizon": 30,
        "seed": 0,
        "observation_noise_std": 6.0,
        "sensitivity_range": (0.25, 0.4),   # time-compressed SAT dynamics
        "memory_discount_range": (0.7, 0.8),
    }

    # 2. Assemble SADAE + extractor + context-aware policy from the config,
    #    sized by the scenario, and wire it to the simulator set.
    config = lts_small_config(seed=0)
    trainer = trainer_from_config(config, spec)
    envs = trainer.scenario.make_train_envs()
    print(f"task {spec['task']}: {len(envs)} training simulators, "
          f"group gaps {[int(env.group_id) for env in envs]}")

    # 3. Algorithm 1: pretrain SADAE, then joint PPO + ELBO training.
    losses = trainer.pretrain_sadae(epochs=20)
    print(f"SADAE pretraining loss: {losses[0]:.2f} -> {losses[-1]:.2f}")

    for iteration in range(25):
        metrics = trainer.train_iteration()
        if iteration % 5 == 0:
            print(f"iter {iteration:3d}  simulator reward {metrics['reward']:7.1f}")
    trainer.close()

    # 4. Zero-shot deployment to the unseen environment.
    policy = trainer.sim2rec_policy
    target = trainer.scenario.make_target_env()
    act_fn = policy.as_act_fn(np.random.default_rng(0), deterministic=True)
    reward = evaluate(act_fn, target, episodes=2)
    print(f"\nzero-shot reward in the unseen target environment: {reward:.1f}")

    # Reference points: the best and worst constant policies.
    from repro.envs import oracle_constant_policy_return

    grid = np.linspace(0, 1, 21)
    oracle = [oracle_constant_policy_return(target, a) for a in grid]
    print(f"best constant policy:  {max(oracle):.1f} (a={grid[int(np.argmax(oracle))]:.2f})")
    print(f"worst constant policy: {min(oracle):.1f}")


if __name__ == "__main__":
    main()
