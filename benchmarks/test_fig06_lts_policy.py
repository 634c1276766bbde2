"""Fig. 6 — zero-shot transfer on LTS1 / LTS2 / LTS3.

Paper claims (shape, not absolute numbers):

- **DIRECT** suffers severe degradation when deployed to the unseen
  ω* = [0, 0] environment — training on one wrong simulator without
  considering the reality gap produces unpredictable behaviour;
- methods that train across the simulator set (DR-UNI, DR-OSI, Sim2Rec)
  are more robust;
- representation-based methods (Sim2Rec, DR-OSI) beat the conservative
  unified policy (DR-UNI);
- **Sim2Rec** approaches the Upper Bound (a policy trained directly in the
  target domain) and beats DR-OSI on the harder tasks.

Bench scale: 40 users / horizon 30 / tens of PPO iterations instead of
750 users / horizon 140 / 2·10⁹ steps. Two faithful time-compressions keep
the paper's mechanism alive at this scale: (1) the SAT dynamics are
accelerated (higher sensitivity, lower memory discount) so group-dependent
optima diverge within the horizon, and (2) the group observation noise is
raised to σ=6 so identification genuinely requires aggregation — over
users for SADAE, over time for DR-OSI.
"""

import numpy as np

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

from .conftest import print_table

NUM_USERS = 40
HORIZON = 30
OBS_NOISE = 6.0
MLP_ITERATIONS = 50
RECURRENT_ITERATIONS = 30
EVAL_EPISODES = 3
TASKS = ("LTS1", "LTS2", "LTS3")
TASK_PARAMS = dict(
    num_users=NUM_USERS,
    horizon=HORIZON,
    seed=0,
    observation_noise_std=OBS_NOISE,
    sensitivity_range=(0.25, 0.4),
    memory_discount_range=(0.7, 0.8),
)


def evaluate_on_target(task, policy) -> float:
    returns = []
    for episode_seed in range(EVAL_EPISODES):
        env = task.make_target_env(seed_offset=1000 + episode_seed)
        act_fn = policy.as_act_fn(np.random.default_rng(episode_seed), deterministic=True)
        returns.append(evaluate(act_fn, env, episodes=1))
    return float(np.mean(returns))


def run_task(task_name: str) -> dict:
    task = make_lts_task(task_name, **TASK_PARAMS)
    config = lts_small_config(seed=0)
    results = {}

    # Upper Bound: PPO directly in the target domain.
    ub_trainer = make_dr_uni_trainer(
        2, 1, lambda rng: task.make_target_env(), config
    )
    ub_trainer.train(MLP_ITERATIONS)
    results["UpperBound"] = evaluate_on_target(task, ub_trainer.policy)

    direct_trainer = make_direct_trainer(2, 1, lts_single_sampler(task, 0), config)
    direct_trainer.train(MLP_ITERATIONS)
    results["DIRECT"] = evaluate_on_target(task, direct_trainer.policy)

    dr_uni_trainer = make_dr_uni_trainer(2, 1, lts_task_sampler(task), config)
    dr_uni_trainer.train(MLP_ITERATIONS)
    results["DR-UNI"] = evaluate_on_target(task, dr_uni_trainer.policy)

    dr_osi_trainer = make_dr_osi_trainer(2, 1, lts_task_sampler(task), config)
    dr_osi_trainer.train(RECURRENT_ITERATIONS)
    results["DR-OSI"] = evaluate_on_target(task, dr_osi_trainer.policy)

    sim2rec_trainer = trainer_from_config(
        config, {"family": "lts", "task": task_name, **TASK_PARAMS}
    )
    sim2rec_trainer.pretrain_sadae(epochs=20)
    sim2rec_trainer.train(RECURRENT_ITERATIONS)
    results["Sim2Rec"] = evaluate_on_target(task, sim2rec_trainer.sim2rec_policy)

    return results


def run_experiment():
    return {task_name: run_task(task_name) for task_name in TASKS}


def test_fig06_lts_policy(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    methods = ["Sim2Rec", "DR-OSI", "DR-UNI", "DIRECT", "UpperBound"]
    rows = [
        [task] + [f"{results[task][m]:.1f}" for m in methods] for task in TASKS
    ]
    print_table(
        "Fig. 6: target-environment rewards after zero-shot transfer",
        ["task"] + methods,
        rows,
    )

    for task in TASKS:
        r = results[task]
        print(
            f"shape check [{task}]: Sim2Rec={r['Sim2Rec']:.0f} vs DIRECT={r['DIRECT']:.0f}, "
            f"DR-UNI={r['DR-UNI']:.0f}, DR-OSI={r['DR-OSI']:.0f}, UB={r['UpperBound']:.0f}"
        )
        # DIRECT degrades hardest; Sim2Rec must clearly beat it.
        assert r["Sim2Rec"] > r["DIRECT"], f"{task}: Sim2Rec must beat DIRECT"
        # Representation-based Sim2Rec beats the conservative unified policy.
        assert r["Sim2Rec"] > r["DR-UNI"] * 0.98, f"{task}: Sim2Rec must match/beat DR-UNI"
        # Near-optimality relative to in-domain training.
        assert r["Sim2Rec"] > 0.8 * r["UpperBound"], f"{task}: Sim2Rec near Upper Bound"

    # Averaged over tasks, Sim2Rec should not lose to DR-OSI (the paper has
    # it strictly better on the harder tasks).
    sim2rec_mean = np.mean([results[t]["Sim2Rec"] for t in TASKS])
    dr_osi_mean = np.mean([results[t]["DR-OSI"] for t in TASKS])
    print(f"shape check [avg]: Sim2Rec={sim2rec_mean:.1f} DR-OSI={dr_osi_mean:.1f}")
    assert sim2rec_mean > dr_osi_mean * 0.95
