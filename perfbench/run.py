"""End-to-end benchmark of the Sim2Rec reproduction.

    python3 perfbench/run.py --workload train_slate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Workloads (see ``perfbench/README.md``):

- ``train_slate``  — scenario training, learner-bound;
- ``rollout_eval`` — sharded rollout evaluation, learner-free;
- ``gateway_act``  — closed-loop serving through a gateway process.

With ``--trace 0`` a run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer ledger (spans around each layer's
public calls) instead. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record, stamped with the environment. A failed
correctness gate prints no numbers and exits 1.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    Result,
    environment_stamp,
    peak_rss_mb,
    pin_blas,
    require_src,
    stop_helper_processes,
)

WORKLOADS = ("train_slate", "rollout_eval", "gateway_act")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "user_steps_per_s": "1/s",
    "op_p50_ms": "ms",
    "mean_return": "return",
}

PER_LAYER = {
    # train_slate
    "trainer.collect_s": "s",
    "envs.step_s": "s",
    "envs.step_calls": "count",
    "policy.act_s": "s",
    "policy.act_calls": "count",
    "sadae.embed_s": "s",
    "ppo.update_s": "s",
    "ppo.forward_s": "s",
    "sadae.context_s": "s",
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "nn.optim_step_s": "s",
    "sadae.update_s": "s",
    "checkpoint.save_s": "s",
    "train.remainder_s": "s",
    "setup.sadae_pretrain_s": "s",
    # rollout_eval
    "workers.sync_policy_s": "s",
    "workers.broadcasts": "count",
    "workers.load_envs_s": "s",
    "workers.evaluate_s": "s",
    "workers.replica_bytes": "bytes",
    "workers.env_bytes": "bytes",
    "workers.respawns": "count",
    "eval.remainder_s": "s",
    # gateway_act
    "client.encode_s": "s",
    "client.decode_s": "s",
    "client.roundtrip_s": "s",
    "gateway.decode_s": "s",
    "sessions.get_s": "s",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.compute_s": "s",
    "serve.batch_rows_mean": "rows",
    "gateway.request_s": "s",
    "gateway.encode_s": "s",
    "gateway.write_s": "s",
    "gateway.unattributed_s": "s",
    "gateway.busy": "count",
    "gateway.timeouts": "count",
    # every workload
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.ops": "count",
}


def _import_library() -> float:
    """Import every library layer the workloads use; returns seconds since start."""
    require_src()
    import numpy  # noqa: F401
    import repro.core  # noqa: F401
    import repro.rl  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.serve  # noqa: F401

    return time.perf_counter() - _STARTED


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> Result:
    if name == "train_slate":
        from perfbench import train_slate as module
    elif name == "rollout_eval":
        from perfbench import rollout_eval as module
    elif name == "gateway_act":
        from perfbench import gateway_act as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    if size is None:
        return module.run(seed, seconds, trace)
    return module.run(seed, seconds, trace, size)


def finish(result: Result, import_s: float) -> dict:
    """The metrics this run reports (end-to-end or per-layer), with their units."""
    if result.trace:
        names = PER_LAYER
        values = {name: 0.0 for name in PER_LAYER}
        values.update(result.metrics)
    else:
        names = END_TO_END
        values = dict(result.metrics)
        values["setup_s"] = import_s + values["setup_s"]
        values["peak_rss_mb"] = peak_rss_mb()
        values["success_rate"] = 1.0 - result.failed / max(result.attempted, 1)
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"workload {result.workload} did not measure {sorted(missing)}")
    return {name: {"value": values[name], "unit": names[name]} for name in names}


def _run_all(args) -> int:
    """Each workload in its own process; prints each record and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        final = json.loads(lines[-1]) if lines else {"correct": False}
        summary["correct"] = summary["correct"] and out.returncode == 0 and final["correct"]
        summary["attempted"] += final.get("attempted", 0)
        summary["failed"] += final.get("failed", 0)
        summary["metrics"][name] = final.get("metrics", {})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas()
    try:
        import_s = _import_library()
    except (FileNotFoundError, ImportError) as error:
        print(f"error: cannot load the library: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()
    if not result.correct:
        for message in result.gate_errors:
            print(f"correctness gate failed: {message}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result.attempted,
                          "failed": result.failed, "metrics": {}}))
        return 1
    metrics = finish(result, import_s)
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:26s} {metric['value']:.6g} {metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "env": environment_stamp(args.seed),
        "import_s": import_s,
        "notes": result.notes,
        "spans_file": result.spans_file,
        "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
