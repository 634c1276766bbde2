"""Run checkpoint / resume: trajectory bit-identity and corruption safety.

The contract (``repro.core.checkpoint``): a trainer that snapshots,
dies and is rebuilt from the same config resumes on the **exact**
trajectory the unbroken run takes — same per-iteration metrics, same
final parameters, bit for bit — and a corrupted snapshot (torn write,
flipped bit) is rejected loudly instead of resuming from garbage.
"""

import os

import numpy as np
import pytest

from repro.core import (
    CHECKPOINT_VERSION,
    checkpoint_iteration,
    lts_small_config,
)
from repro.core.checkpoint import pickle_to_array, unpickle_array
from repro.core.config import scenario_small_config
from repro.nn import StateChecksumError
from repro.rl import TrainingDiverged
from repro.scenarios import trainer_from_config

from ..helpers import flip_byte, truncate_file

SPEC = {"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5}
LTS_SPEC = {"family": "lts", "task": "LTS3", "num_users": 8, "horizon": 6}


def scenario_trainer(seed=3, tweak=None):
    config = scenario_small_config(seed=seed)
    config.scenario = dict(SPEC)
    config.segments_per_iteration = 2
    if tweak is not None:
        tweak(config)
    return trainer_from_config(config, dict(SPEC))


def lts_trainer(seed=5):
    config = lts_small_config(seed=seed)
    config.segments_per_iteration = 2
    return trainer_from_config(config, dict(LTS_SPEC, seed=seed))


def run_iterations(trainer, count):
    return [trainer.train_iteration() for _ in range(count)]


def final_params(trainer):
    return {k: v.copy() for k, v in trainer.policy.replica_state().items()}


class TestResumeTrajectory:
    def test_resume_matches_unbroken_run(self, tmp_path):
        path = tmp_path / "run.npz"
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=2)
            unbroken = run_iterations(trainer, 4)
            expected = final_params(trainer)
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=2)
            head = run_iterations(trainer, 2)
            trainer.save_checkpoint(path)
        with scenario_trainer() as trainer:  # the "new process"
            assert trainer.load_checkpoint(path) == 2
            assert trainer.iteration == 2
            tail = run_iterations(trainer, 2)
            resumed = final_params(trainer)
        assert head + tail == unbroken
        assert set(resumed) == set(expected)
        for key in expected:
            np.testing.assert_array_equal(resumed[key], expected[key], err_msg=key)

    def test_keys_under_unknown_prefixes_are_ignored(self, tmp_path):
        """Keys outside the documented sections, such as the
        ``prefetch.*`` entries of the removed pipelined collection mode,
        are skipped: the checkpoint resumes on the unbroken trajectory."""
        from repro.nn import load_state, save_state

        path = tmp_path / "run.npz"
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=2)
            unbroken = run_iterations(trainer, 4)
            expected = final_params(trainer)
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=2)
            head = run_iterations(trainer, 2)
            trainer.save_checkpoint(path)
        state = load_state(path)
        state["prefetch.envs"] = pickle_to_array([])
        state["prefetch.segments"] = pickle_to_array([])
        save_state(path, state)
        with scenario_trainer() as trainer:
            assert trainer.load_checkpoint(path) == 2
            tail = run_iterations(trainer, 2)
            resumed = final_params(trainer)
        assert head + tail == unbroken
        for key in expected:
            np.testing.assert_array_equal(resumed[key], expected[key], err_msg=key)

    def test_lts_trainer_resumes_exactly(self, tmp_path):
        path = tmp_path / "lts.npz"
        unbroken_trainer = lts_trainer()
        unbroken_trainer.pretrain_sadae(epochs=1)
        unbroken = run_iterations(unbroken_trainer, 4)
        trainer = lts_trainer()
        trainer.pretrain_sadae(epochs=1)
        head = run_iterations(trainer, 2)
        trainer.save_checkpoint(path)
        fresh = lts_trainer()
        fresh.load_checkpoint(path)
        tail = run_iterations(fresh, 2)
        assert head + tail == unbroken

    def test_periodic_checkpointing_through_config(self, tmp_path):
        """checkpoint_every wires automatic snapshots into train_iteration."""
        path = tmp_path / "auto.npz"

        def auto(config):
            config.checkpoint_every = 2
            config.checkpoint_path = str(path)

        with scenario_trainer(tweak=auto) as trainer:
            trainer.pretrain_sadae(epochs=1)
            run_iterations(trainer, 1)
            assert not path.exists()  # iteration 1: not a multiple of 2
            run_iterations(trainer, 1)
            assert path.exists()
            assert checkpoint_iteration(path) == 2
            run_iterations(trainer, 2)
            assert checkpoint_iteration(path) == 4

    def test_periodic_checkpointing_keeps_the_trajectory(self, tmp_path):
        """Writing a checkpoint between iterations touches no rollout
        state: a run that checkpoints every iteration takes the
        trajectory of one that never does."""
        path = tmp_path / "auto.npz"

        def auto(config):
            config.checkpoint_every = 1
            config.checkpoint_path = str(path)

        runs = []
        for tweak in (None, auto):
            with scenario_trainer(tweak=tweak) as trainer:
                trainer.pretrain_sadae(epochs=1)
                runs.append(run_iterations(trainer, 3))
        assert runs[0] == runs[1]
        assert checkpoint_iteration(path) == 3

    def test_archive_holds_only_the_documented_sections(self, tmp_path):
        """A saved run carries the module's documented sections and no
        key a resume would refuse."""
        from repro.nn import load_state

        path = tmp_path / "run.npz"
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=1)
            run_iterations(trainer, 2)
            trainer.save_checkpoint(path)
        sections = {key.split(".", 1)[0] for key in load_state(path)}
        assert {"meta", "rng", "policy", "optimizer", "aux"} <= sections
        assert sections <= {"meta", "rng", "policy", "optimizer", "schedule", "aux"}
        with scenario_trainer() as trainer:
            assert trainer.load_checkpoint(path) == 2


class TestCorruptionSafety:
    def make_checkpoint(self, tmp_path):
        path = tmp_path / "run.npz"
        with scenario_trainer() as trainer:
            trainer.pretrain_sadae(epochs=1)
            run_iterations(trainer, 1)
            trainer.save_checkpoint(path)
        return path

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        truncate_file(path, keep_fraction=0.5)
        with scenario_trainer() as trainer:
            with pytest.raises((StateChecksumError, ValueError, OSError, KeyError)):
                trainer.load_checkpoint(path)

    def test_flipped_bit_is_rejected_by_the_checksum(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        flip_byte(path, offset=-4096)
        with scenario_trainer() as trainer:
            with pytest.raises(StateChecksumError):
                trainer.load_checkpoint(path)

    def test_unreadable_checkpoint_peeks_as_none(self, tmp_path):
        assert checkpoint_iteration(tmp_path / "missing.npz") is None
        path = self.make_checkpoint(tmp_path)
        assert checkpoint_iteration(path) == 1
        truncate_file(path, keep_fraction=0.3)
        assert checkpoint_iteration(path) is None

    def test_npz_checkpoint_is_refused(self, tmp_path):
        """A checkpoint rewritten in the earlier npz layout (a zip with one
        member per array) is refused by the archive reader, before any
        trainer state is overwritten."""
        from repro.nn import load_state

        path = self.make_checkpoint(tmp_path)
        state = load_state(path)
        with open(path, "wb") as handle:
            np.savez(handle, **state)
        assert path.read_bytes()[:2] == b"PK"
        assert checkpoint_iteration(path) is None
        with scenario_trainer() as trainer:
            before = final_params(trainer)
            with pytest.raises(StateChecksumError, match="magic"):
                trainer.load_checkpoint(path)
            after = final_params(trainer)
            assert trainer.iteration == 0
        assert after.keys() == before.keys()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        from repro.nn import load_state, save_state

        state = load_state(path)
        state["meta.version"] = np.array([CHECKPOINT_VERSION + 1], dtype=np.int64)
        save_state(path, state)
        with scenario_trainer() as trainer:
            with pytest.raises(ValueError, match="version"):
                trainer.load_checkpoint(path)

    def test_rejected_load_leaves_the_trainer_untouched(self, tmp_path):
        """The version refusal comes before the env population,
        generators, optimizer or replay window are restored: the trainer
        then runs exactly like one that never tried to load."""
        from repro.nn import load_state, save_state

        path = tmp_path / "lts.npz"
        trainer = lts_trainer()
        trainer.pretrain_sadae(epochs=1)
        run_iterations(trainer, 2)
        trainer.save_checkpoint(path)
        state = load_state(path)
        state["meta.version"] = np.array([CHECKPOINT_VERSION + 1], dtype=np.int64)
        save_state(path, state)
        fresh, refused = lts_trainer(), lts_trainer()
        for each in (fresh, refused):
            each.pretrain_sadae(epochs=1)
        with pytest.raises(ValueError, match="version"):
            refused.load_checkpoint(path)
        assert run_iterations(refused, 2) == run_iterations(fresh, 2)

    def test_config_mismatch_is_rejected(self, tmp_path):
        """A checkpoint from a different architecture must not load."""
        path = self.make_checkpoint(tmp_path)

        def bigger(config):
            config.lstm_hidden = 48

        with scenario_trainer(tweak=bigger) as trainer:
            with pytest.raises((ValueError, KeyError)):
                trainer.load_checkpoint(path)

    def test_save_is_atomic_over_existing_checkpoint(self, tmp_path):
        """A failed re-save leaves the previous checkpoint intact."""
        path = self.make_checkpoint(tmp_path)
        before = path.read_bytes()
        from repro.nn import save_state

        with pytest.raises(ValueError, match="object"):
            save_state(path, {"x": np.array([None], dtype=object)})
        assert path.read_bytes() == before
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestPickleArrays:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        rng.random(13)
        clone = unpickle_array(pickle_to_array(rng))
        np.testing.assert_array_equal(clone.random(5), rng.random(5))

    def test_spawn_counter_survives(self):
        """The SeedSequence spawn counter is outside bit_generator.state;
        whole-generator pickling must preserve it so post-resume
        split_rng draws match."""
        from repro.rl import split_rng

        rng = np.random.default_rng(21)
        split_rng(rng, 3)  # advances the spawn counter
        clone = unpickle_array(pickle_to_array(rng))
        expected = [r.random(3) for r in split_rng(rng, 2)]
        got = [r.random(3) for r in split_rng(clone, 2)]
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a, b)


def poison_rewards_from(trainer, iteration):
    """Make every reward NaN from training iteration ``iteration`` on."""
    post_process = trainer.post_process_segment

    def poisoned(segment, env):
        post_process(segment, env)
        if trainer.iteration >= iteration:
            segment.rewards[:] = np.nan

    trainer.post_process_segment = poisoned


class TestDivergenceNamesTheCheckpoint:
    def test_names_the_last_checkpoint_written(self, tmp_path):
        path = tmp_path / "run.npz"

        def tweak(config):
            config.checkpoint_path = str(path)
            config.checkpoint_every = 1

        with scenario_trainer(tweak=tweak) as trainer:
            run_iterations(trainer, 2)
            before = final_params(trainer)
            poison_rewards_from(trainer, 2)
            with pytest.raises(TrainingDiverged) as caught:
                trainer.train_iteration()
            message = str(caught.value)
            assert str(path) in message
            assert "written after 2 completed iterations" in message
            assert "training diverged in iteration 2" in message
            assert isinstance(caught.value.__cause__, TrainingDiverged)
            for key, value in final_params(trainer).items():
                np.testing.assert_array_equal(value, before[key])
        assert checkpoint_iteration(path) == 2

    def test_says_when_no_checkpoint_was_written(self):
        with scenario_trainer() as trainer:
            poison_rewards_from(trainer, 0)
            with pytest.raises(
                TrainingDiverged, match=r"no checkpoint was written \(checkpoint_path=None\)"
            ):
                trainer.train_iteration()
