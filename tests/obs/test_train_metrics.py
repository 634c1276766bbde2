"""Trainer observability: JSONL sink output, and proof it is inert.

The load-bearing test here is the bit-parity regression: two seeded
strict runs, one with ``metrics_path`` set and one without, must end
with byte-for-byte identical policy parameters and identical logged
metrics dicts. Timings flow only into the registry/JSONL side channel,
never into anything the optimiser or the determinism witness reads.
"""

import numpy as np

from repro.core.config import scenario_small_config
from repro.nn.serialization import state_to_bytes
from repro.obs import read_metrics_jsonl
from repro.scenarios import trainer_from_config

SPEC = {"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5}


def build_trainer(seed: int = 11, **config_overrides):
    config = scenario_small_config(seed=seed)
    config.scenario = dict(SPEC)
    for key, value in config_overrides.items():
        setattr(config, key, value)
    trainer = trainer_from_config(config, dict(SPEC))
    trainer.pretrain_sadae(epochs=1)
    return trainer


def run(iterations: int = 2, **overrides):
    """Seeded run -> (final policy bytes, per-iteration logged metrics)."""
    with build_trainer(**overrides) as trainer:
        logged = [trainer.train_iteration() for _ in range(iterations)]
        params = state_to_bytes(trainer.policy.replica_state())
    return params, logged


class TestMetricsAreInert:
    def test_metrics_path_does_not_change_training(self, tmp_path):
        """Byte-for-byte parity: sink on vs sink off."""
        baseline_params, baseline_logged = run()
        metrics_params, metrics_logged = run(
            metrics_path=str(tmp_path / "metrics.jsonl")
        )
        assert metrics_params == baseline_params
        assert len(metrics_logged) == len(baseline_logged)
        for with_sink, without in zip(metrics_logged, baseline_logged):
            assert set(with_sink) == set(without)
            for key in without:
                np.testing.assert_array_equal(with_sink[key], without[key])

    def test_logged_metrics_carry_no_timing_keys(self):
        """Wall-clock numbers must never leak into the returned dict."""
        _, logged = run(iterations=1)
        for key in logged[0]:
            assert "seconds" not in key and "duration" not in key


class TestJSONLRecords:
    def test_one_record_per_iteration(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        run(iterations=3, metrics_path=str(path))
        records = read_metrics_jsonl(path, strict=True)
        assert [r["iteration"] for r in records] == [0, 1, 2]

    def test_records_carry_logged_and_registry_snapshot(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        _, logged = run(iterations=2, metrics_path=str(path))
        records = read_metrics_jsonl(path, strict=True)
        final = records[-1]
        # The logged block mirrors train_iteration's returned dict.
        assert set(final["logged"]) == set(logged[-1])
        snapshot = final["metrics"]
        assert snapshot["train_iterations_total"]["series"][0]["value"] == 2
        phases = {
            series["labels"]["phase"]
            for series in snapshot["train_phase_seconds"]["series"]
        }
        assert {"collect", "update", "sadae", "sadae_pretrain"} <= phases
        for series in snapshot["train_phase_seconds"]["series"]:
            assert sum(series["counts"]) == series["count"]

    def test_phases_are_the_documented_synchronous_schedule(self, tmp_path):
        """Every iteration times one collect, update and SADAE step (and
        here a checkpoint); no other phase label appears."""
        path = tmp_path / "metrics.jsonl"
        run(
            iterations=3,
            metrics_path=str(path),
            checkpoint_every=1,
            checkpoint_path=str(tmp_path / "run.npz"),
        )
        snapshot = read_metrics_jsonl(path, strict=True)[-1]["metrics"]
        counts = {
            series["labels"]["phase"]: series["count"]
            for series in snapshot["train_phase_seconds"]["series"]
        }
        assert counts == {
            "sadae_pretrain": 1,
            "collect": 3,
            "update": 3,
            "sadae": 3,
            "checkpoint": 3,
        }

    def test_sink_reopened_after_close_keeps_appending(self, tmp_path):
        """Closing the trainer mid-run closes the sink; the next iteration
        must reopen it in append mode, not truncate."""
        path = tmp_path / "metrics.jsonl"
        with build_trainer(metrics_path=str(path)) as trainer:
            trainer.train_iteration()
            trainer.close()
            trainer.train_iteration()
        records = read_metrics_jsonl(path, strict=True)
        assert [r["iteration"] for r in records] == [0, 1]
