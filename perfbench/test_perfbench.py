"""Tests of the benchmark itself (not run by the default suite).

    PYTHONPATH=src python -m pytest perfbench -q

Each workload runs at a tiny size and must emit every named metric; the
traced runs' layer self times plus remainder must add up to the traced
wall-clock.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import run
from perfbench.common import OUT, ROOT, pin_blas, require_src, stop_helper_processes, tail_ms
from perfbench.gateway_act import GatewaySize
from perfbench.rollout_eval import RolloutSize
from perfbench.tracer import SpanRecorder, summarize
from perfbench.train_slate import TrainSize

pin_blas()
require_src()

TINY = {
    "train_slate": TrainSize(
        num_envs=2, num_users=3, iterations=2, pretrain_epochs=1, target_envs=2
    ),
    "rollout_eval": RolloutSize(num_envs=4, num_users=3, setups=1, min_calls=2),
    "gateway_act": GatewaySize(
        num_users=3, session_requests=30, setups=1, envs=4, return_sessions=1
    ),
}


def _run(workload: str, trace: bool):
    result = run.run_workload(workload, 7, 0.3, trace, TINY[workload])
    assert result.correct, result.gate_errors
    return result, run.finish(result, import_s=0.1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, metrics = _run(workload, trace=False)
    assert set(metrics) == set(run.END_TO_END)
    for name, metric in metrics.items():
        assert metric["unit"] == run.END_TO_END[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    assert result.attempted >= 1 and result.failed == 0
    assert metrics["success_rate"]["value"] == 1.0


def _ledger(spans_file: str):
    dump = json.loads((ROOT / spans_file).read_text())
    table = summarize(dump["spans"], root=dump["root"])
    return dump, table


@pytest.mark.parametrize("workload", ["train_slate", "rollout_eval"])
def test_traced_layers_and_remainder_add_up_to_the_traced_wall(workload):
    result, metrics = _run(workload, trace=True)
    assert set(metrics) == set(run.PER_LAYER)
    dump, table = _ledger(result.spans_file)
    wall = dump["wall_s"]
    self_total = sum(row["self_s"] for row in table.values())
    assert self_total == pytest.approx(wall, rel=1e-9)
    remainder = "train.remainder_s" if workload == "train_slate" else "eval.remainder_s"
    assert metrics[remainder]["value"] == pytest.approx(table[dump["root"]]["self_s"])
    assert metrics["trace.wall_s"]["value"] == pytest.approx(wall)
    assert all(row["self_s"] >= -1e-9 for row in table.values())


def test_traced_training_reports_every_training_layer():
    result, metrics = _run("train_slate", trace=True)
    for name in ("trainer.collect_s", "envs.step_s", "policy.act_s", "sadae.embed_s",
                 "ppo.update_s", "ppo.forward_s", "sadae.context_s", "nn.backward_s",
                 "nn.optim_step_s", "sadae.update_s", "checkpoint.save_s",
                 "setup.sadae_pretrain_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["nn.backward_calls"]["value"] >= 1


def test_traced_gateway_layers_and_unattributed_add_up_to_the_round_trips():
    result, metrics = _run("gateway_act", trace=True)
    value = {name: metric["value"] for name, metric in metrics.items()}
    layers = ("client.encode_s", "client.decode_s", "gateway.decode_s",
              "gateway.request_s", "gateway.encode_s", "gateway.write_s",
              "gateway.unattributed_s")
    assert sum(value[name] for name in layers) == pytest.approx(value["client.roundtrip_s"])
    for name in layers[:-1] + ("sessions.get_s", "serve.submit_s", "serve.queue_wait_s",
                               "serve.compute_s"):
        assert value[name] > 0, name
    assert value["serve.batch_rows_mean"] >= TINY["gateway_act"].num_users
    assert value["trace.ops"] >= 30


def test_self_time_excludes_children_and_reentrant_calls_are_not_recounted():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self, depth):
            return self.inner() + (self.outer(depth - 1) if depth else 0)

        def inner(self):
            return 1

    with recorder.instrument([(Layer, "outer", "outer"), (Layer, "inner", "inner")]):
        assert Layer().outer(2) == 3
    assert not hasattr(Layer.outer, "__wrapped__")  # restored on exit
    table = recorder.summary()
    # outer recursion records once; its three inner calls are children.
    assert table["outer"]["calls"] == 1
    assert table["inner"]["calls"] == 3
    assert table["outer"]["self_s"] + table["inner"]["self_s"] == table["outer"]["total_s"]


def test_skip_predicate_suppresses_the_call_and_everything_under_it():
    recorder = SpanRecorder()

    class Layer:
        def top(self, op):
            return self.leaf()

        def leaf(self):
            return op_seen.append(1)

    op_seen = []
    targets = [(Layer, "top", "top", lambda self, op: op == "stats"), (Layer, "leaf", "leaf")]
    with recorder.instrument(targets):
        Layer().top("stats")
        Layer().top("act")
    table = recorder.summary()
    assert table["top"]["calls"] == 1 and table["leaf"]["calls"] == 1
    assert len(op_seen) == 2


def test_spans_from_threads_keep_their_own_parents():
    recorder = SpanRecorder()

    def work():
        with recorder.span("root"):
            with recorder.span("child"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    table = recorder.summary(root="root")
    assert table["root"]["calls"] == 4 and table["child"]["calls"] == 4


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail_ms([0.001] * 19) == pytest.approx(1.0)
    samples = [i / 1000.0 for i in range(1, 2001)]
    assert tail_ms(samples) == pytest.approx(1980.01, rel=1e-6)  # capped at p99
    assert tail_ms(samples[:50]) == pytest.approx(40.2, rel=1e-6)  # p80: ten beyond


def test_no_process_outlives_a_rollout_run():
    """The shared-memory pool starts the resource tracker; stopping it reaps it."""
    from multiprocessing import resource_tracker

    _run("rollout_eval", trace=False)
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    stop_helper_processes()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_benchmark_json_names_exactly_these_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_fails_without_the_library():
    """A directory holding only the benchmark must fail fast, printing no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train_slate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
