"""Zero-shot transfer comparison on LTS (a miniature of the paper's Fig. 6).

Trains DIRECT, DR-UNI, DR-OSI and Sim2Rec on the LTS2 simulator set and
compares their rewards in the unseen deployment environment, illustrating
the reality-gap problem and how much each transfer technique recovers.

Run:  python examples/lts_transfer.py
"""

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import (
    lts_single_sampler,
    lts_task_sampler,
    make_direct_trainer,
    make_dr_osi_trainer,
    make_dr_uni_trainer,
)
from repro.core import lts_small_config
from repro.envs import make_lts_task
from repro.rl import evaluate
from repro.scenarios import trainer_from_config

MLP_ITERS = 40
RECURRENT_ITERS = 25
TASK_PARAMS = dict(
    num_users=40,
    horizon=30,
    seed=1,
    observation_noise_std=6.0,
    sensitivity_range=(0.25, 0.4),
    memory_discount_range=(0.7, 0.8),
)


def target_reward(task, policy) -> float:
    env = task.make_target_env(seed_offset=99)
    act_fn = policy.as_act_fn(np.random.default_rng(0), deterministic=True)
    return evaluate(act_fn, env, episodes=2)


def main():
    task = make_lts_task("LTS2", **TASK_PARAMS)
    config = lts_small_config(seed=1)
    results = {}

    print("training DIRECT (one wrong simulator, no gap handling) ...")
    direct = make_direct_trainer(2, 1, lts_single_sampler(task, 0), config)
    direct.train(MLP_ITERS)
    results["DIRECT"] = target_reward(task, direct.policy)

    print("training DR-UNI (domain randomization, unified policy) ...")
    dr_uni = make_dr_uni_trainer(2, 1, lts_task_sampler(task), config)
    dr_uni.train(MLP_ITERS)
    results["DR-UNI"] = target_reward(task, dr_uni.policy)

    print("training DR-OSI (LSTM extractor, per-user identification) ...")
    dr_osi = make_dr_osi_trainer(2, 1, lts_task_sampler(task), config)
    dr_osi.train(RECURRENT_ITERS)
    results["DR-OSI"] = target_reward(task, dr_osi.policy)

    print("training Sim2Rec (SADAE group embedding + LSTM extractor) ...")
    sim2rec = trainer_from_config(config, {"family": "lts", "task": "LTS2", **TASK_PARAMS})
    sim2rec.pretrain_sadae(epochs=20)
    sim2rec.train(RECURRENT_ITERS)
    results["Sim2Rec"] = target_reward(task, sim2rec.sim2rec_policy)

    print("\nzero-shot rewards in the unseen environment (higher is better):")
    for name in ("Sim2Rec", "DR-OSI", "DR-UNI", "DIRECT"):
        print(f"  {name:8s} {results[name]:8.1f}")
    degradation = 100 * (results["Sim2Rec"] - results["DIRECT"]) / results["Sim2Rec"]
    print(f"\nDIRECT loses {degradation:.0f}% of Sim2Rec's reward to the reality gap.")


if __name__ == "__main__":
    main()
