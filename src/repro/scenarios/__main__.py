"""CLI for the scenario subsystem.

    python -m repro.scenarios list
    python -m repro.scenarios spec slate
    python -m repro.scenarios train --scenario '{"family": "slate", "num_envs": 4}' \
        --iterations 5 --pretrain-epochs 10

``list`` prints every registered family, ``spec`` the fully-resolved
default spec of one family (a valid ``--scenario`` starting point), and
``train`` runs a short Algorithm-1 loop on any registered scenario and
evaluates the policy zero-shot in the scenario's target environment.
``train --checkpoint run.ckpt`` snapshots the run after every iteration
(``--checkpoint-every`` to thin); ``train --checkpoint run.ckpt
--resume`` restores the snapshot and continues on the unbroken run's
exact trajectory (see :mod:`repro.core.checkpoint`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..core.config import scenario_small_config
from ..rl.evaluate import evaluate
from .registry import (
    list_scenarios,
    make_scenario,
    normalize_spec,
    scenario_description,
)
from .train import trainer_from_config


def _cmd_list() -> int:
    for name in list_scenarios():
        print(f"{name:10s} {scenario_description(name)}")
    return 0


def _cmd_spec(family: str) -> int:
    print(json.dumps(normalize_spec(family).to_dict(), indent=2))
    return 0


def _parse_scenario(raw: str):
    raw = raw.strip()
    if raw.startswith("{"):
        return json.loads(raw)
    return raw  # a bare family name


def _cmd_train(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        raise ValueError("--resume needs --checkpoint pointing at a snapshot")
    config = scenario_small_config(seed=args.seed)
    config.scenario = normalize_spec(_parse_scenario(args.scenario)).to_dict()
    config.checkpoint_path = args.checkpoint
    config.checkpoint_every = args.checkpoint_every if args.checkpoint else 0
    config.metrics_path = args.metrics
    scenario = make_scenario(config.scenario)
    print(
        f"scenario {scenario.spec.family!r}: {scenario.num_train_envs} training "
        f"simulators, state_dim={scenario.state_dim}, action_dim={scenario.action_dim}"
    )
    with trainer_from_config(config, scenario) as trainer:
        if args.resume:
            # The snapshot carries the post-pretraining SADAE weights and
            # RNG streams, so pretraining is not repeated: the run picks
            # up the unbroken trajectory at the checkpointed iteration.
            start = trainer.load_checkpoint(args.checkpoint)
            print(f"resumed {args.checkpoint} at iteration {start}")
        else:
            losses = trainer.pretrain_sadae(epochs=args.pretrain_epochs)
            if losses:
                print(f"SADAE pretraining loss: {losses[0]:.3f} -> {losses[-1]:.3f}")
        while trainer.iteration < args.iterations:
            metrics = trainer.train_iteration()
            print(f"iter {trainer.iteration - 1:3d}  reward {metrics['reward']:9.3f}")
        policy = trainer.sim2rec_policy
    target = scenario.make_target_env()
    reward = evaluate(
        policy.as_act_fn(np.random.default_rng(args.seed), deterministic=True), target
    )
    print(f"target-env return (zero-shot): {reward:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.scenarios", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="registered scenario families")
    spec_parser = sub.add_parser("spec", help="print a family's resolved default spec")
    spec_parser.add_argument("family")
    train_parser = sub.add_parser("train", help="short Algorithm-1 run on a scenario")
    train_parser.add_argument(
        "--scenario",
        required=True,
        help="family name or JSON config dict (see 'spec' for the schema)",
    )
    train_parser.add_argument("--iterations", type=int, default=5)
    train_parser.add_argument("--pretrain-epochs", type=int, default=10)
    train_parser.add_argument("--seed", type=int, default=0)
    train_parser.add_argument(
        "--checkpoint",
        default=None,
        help="snapshot path; written every --checkpoint-every iterations",
    )
    train_parser.add_argument("--checkpoint-every", type=int, default=1)
    train_parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="append one CRC-framed JSONL metrics snapshot per iteration "
        "(phase timings, rollout-pool counters; see docs/observability.md)",
    )
    train_parser.add_argument(
        "--resume",
        action="store_true",
        help="restore --checkpoint and continue to --iterations "
        "(skips SADAE pretraining; the snapshot carries it)",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "spec":
            return _cmd_spec(args.family)
        return _cmd_train(args)
    except (ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
