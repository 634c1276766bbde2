"""ScenarioTrainer / trainer_from_config: Algorithm 1 on any family."""

import numpy as np
import pytest

from repro.core import lts_small_config, scenario_small_config
from repro.rl import evaluate
from repro.scenarios import (
    collect_scenario_state_sets,
    make_scenario,
    trainer_from_config,
)

TINY = {
    "lts": {"family": "lts", "num_users": 6, "horizon": 5, "seed": 1},
    "dpr": {
        "family": "dpr",
        "num_cities": 3,
        "drivers_per_city": 4,
        "horizon": 4,
        "seed": 1,
    },
    "slate": {
        "family": "slate",
        "num_envs": 3,
        "num_users": 6,
        "horizon": 5,
        "slate_size": 3,
        "seed": 1,
    },
}


def tiny_config(seed=0, **overrides):
    config = scenario_small_config(seed=seed)
    config.sadae_pretrain_epochs = 2
    config.segments_per_iteration = 2
    config.sadae_updates_per_iteration = 1
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestScenarioTrainer:
    @pytest.mark.parametrize("family", sorted(TINY))
    def test_trains_and_evaluates_each_family(self, family):
        config = tiny_config()
        config.scenario = TINY[family]
        with trainer_from_config(config) as trainer:
            losses = trainer.pretrain_sadae(epochs=2, steps_per_env=3)
            assert len(losses) == 2 and np.isfinite(losses).all()
            metrics = trainer.train_iteration()
            assert np.isfinite(metrics["reward"])
            policy = trainer.sim2rec_policy
        target = trainer.scenario.make_target_env()
        reward = evaluate(
            policy.as_act_fn(np.random.default_rng(0), deterministic=True), target
        )
        assert np.isfinite(reward)

    def test_explicit_scenario_overrides_config(self):
        config = tiny_config()
        trainer = trainer_from_config(config, scenario=TINY["slate"])
        assert trainer.scenario.spec.family == "slate"
        trainer.close()

    def test_missing_scenario_raises(self):
        with pytest.raises(ValueError, match="no scenario given"):
            trainer_from_config(tiny_config())

    @pytest.mark.parametrize("family", ["lts", "slate"])
    def test_state_sets_cover_every_simulator(self, family):
        scenario = make_scenario(TINY[family])
        sets = collect_scenario_state_sets(scenario, steps_per_env=4)
        assert len(sets) == scenario.num_train_envs * 4
        states, actions = sets[0]
        assert states.shape == (6, scenario.state_dim)
        assert actions.shape == (6, scenario.action_dim)

    def test_lts_corpus_envs_start_as_the_training_envs(self):
        """The lts corpus comes from fresh copies of the training envs
        (seed offset 0): corpus env i resets to training env i's states."""
        scenario = make_scenario(TINY["lts"])
        sets = collect_scenario_state_sets(scenario, steps_per_env=1)
        train_envs = scenario.make_train_envs()
        assert len(sets) == len(train_envs)
        for (states, _), env in zip(sets, train_envs):
            np.testing.assert_array_equal(states, env.reset())

    def test_slate_corpus_envs_keep_their_own_seed_offset(self):
        scenario = make_scenario(TINY["slate"])
        sets = collect_scenario_state_sets(scenario, steps_per_env=1)
        for index, ((states, _), env) in enumerate(zip(sets, scenario.make_train_envs())):
            assert not np.array_equal(states, env.reset())
            corpus_env = scenario.make_train_env(index, seed_offset=3000)
            np.testing.assert_array_equal(states, corpus_env.reset())


LTS_BETA = {"family": "lts", "beta": 4.0, "num_users": 15, "horizon": 10, "seed": 1}


class TestResampleUsers:
    @staticmethod
    def gaps_after_a_redraw(resample_users):
        """The first sampled env's user gaps before and after the sampler
        draws that same env again."""
        spec = dict(LTS_BETA, resample_users=resample_users)
        trainer = trainer_from_config(lts_small_config(seed=1), spec)
        rng = np.random.default_rng(0)
        first = trainer.env_sampler(rng)
        before = first.mu_k_users.copy()
        for _ in range(200):
            if trainer.env_sampler(rng) is first:
                return before, first.mu_k_users
        pytest.fail("the sampler never drew the first env again")

    def test_a_draw_redraws_the_sampled_envs_gaps(self):
        before, after = self.gaps_after_a_redraw(resample_users=True)
        assert not np.allclose(before, after)

    def test_limited_users_keep_their_gaps(self):
        before, after = self.gaps_after_a_redraw(resample_users=False)
        np.testing.assert_array_equal(before, after)

    def test_unlimited_user_training_is_reproducible(self):
        def run():
            spec = dict(LTS_BETA, resample_users=True)
            config = lts_small_config(seed=1)
            config.segments_per_iteration = 3
            with trainer_from_config(config, spec) as trainer:
                trainer.pretrain_sadae(epochs=1)
                return [trainer.train_iteration() for _ in range(2)]

        first = run()
        assert first == run()
        assert all(np.isfinite(v) for m in first for v in m.values())


class TestCLI:
    def test_list_and_spec(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "slate" in out and "lts" in out and "dpr" in out
        assert main(["spec", "slate"]) == 0
        out = capsys.readouterr().out
        assert '"family": "slate"' in out

    def test_train_smoke(self, capsys):
        import json

        from repro.scenarios.__main__ import main

        spec = json.dumps(TINY["slate"])
        config_args = [
            "train", "--scenario", spec,
            "--iterations", "1", "--pretrain-epochs", "1",
        ]
        assert main(config_args) == 0
        out = capsys.readouterr().out
        assert "target-env return" in out

    def test_resume_continues_from_the_checkpoint(self, capsys, tmp_path):
        import json

        from repro.scenarios.__main__ import main

        path = str(tmp_path / "run.ckpt")
        base = ["train", "--scenario", json.dumps(TINY["slate"]), "--pretrain-epochs", "1",
                "--checkpoint", path]
        assert main([*base, "--iterations", "1"]) == 0
        capsys.readouterr()
        assert main([*base, "--iterations", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert f"resumed {path} at iteration 1" in out
        assert "SADAE pretraining" not in out
        assert "iter   1" in out and "iter   0" not in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--resume"], "--resume needs --checkpoint"),
            (["--scenario", "{not json"], "error:"),
            (["--scenario", "no_such_family"], "no_such_family"),
        ],
        ids=["resume-without-checkpoint", "bad-json", "unknown-family"],
    )
    def test_bad_train_requests_exit_two(self, capsys, argv, message):
        from repro.scenarios.__main__ import main

        if "--scenario" not in argv:
            argv = ["--scenario", "slate", *argv]
        assert main(["train", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "target-env return" not in captured.out

    def test_scenario_argument_is_a_name_or_a_json_dict(self):
        from repro.scenarios.__main__ import _parse_scenario

        assert _parse_scenario("  slate \n") == "slate"
        assert _parse_scenario(' {"family": "lts", "horizon": 3}') == {"family": "lts", "horizon": 3}
