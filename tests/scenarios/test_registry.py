"""The scenario registry: specs, round-tripping, validation, families.

The acceptance contract: ``make_scenario`` builds LTS, DPR and SlateRec
populations from pure config dicts, specs round-trip exactly
(spec → env → spec), and malformed specs — unknown families/parameters,
empty populations — fail with clear ValueErrors at spec time.
"""

import numpy as np
import pytest

from repro.envs import DPRCityEnv, LTSEnv, SlateRecEnv
from repro.scenarios import (
    Scenario,
    ScenarioSpec,
    list_scenarios,
    make_scenario,
    normalize_spec,
    register_scenario,
    scenario_defaults,
    unregister_scenario,
)

SMALL_SPECS = {
    "lts": {"family": "lts", "num_users": 6, "horizon": 5, "seed": 3},
    "dpr": {
        "family": "dpr",
        "num_cities": 3,
        "drivers_per_city": 4,
        "horizon": 5,
        "seed": 3,
    },
    "slate": {
        "family": "slate",
        "num_envs": 4,
        "num_users": 6,
        "horizon": 5,
        "slate_size": 3,
        "seed": 3,
    },
}

FAMILY_ENV_TYPES = {"lts": LTSEnv, "dpr": DPRCityEnv, "slate": SlateRecEnv}


class TestRegistry:
    def test_builtin_families_registered(self):
        assert {"lts", "dpr", "slate"} <= set(list_scenarios())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            make_scenario("no_such_world")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_scenario({"family": "slate", "wibble": 3})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("slate")(lambda spec: None)

    def test_custom_family_registers_and_unregisters(self):
        @register_scenario("tiny_lts_clone", defaults={"num_users": 3, "horizon": 2})
        def build(spec):
            """A throwaway family for this test."""
            from repro.envs import LTSConfig

            def make_train_env(index, seed_offset=0):
                return LTSEnv(
                    LTSConfig(
                        num_users=spec.params["num_users"],
                        horizon=spec.params["horizon"],
                        seed=spec.seed + index + seed_offset,
                    )
                )

            return Scenario(
                spec,
                num_train_envs=2,
                state_dim=2,
                action_dim=1,
                make_train_env=make_train_env,
                make_target_env=lambda seed_offset=0: make_train_env(99, seed_offset),
            )

        try:
            scenario = make_scenario("tiny_lts_clone")
            assert scenario.description  # pulled from the builder docstring
            assert len(scenario.make_train_envs()) == 2
        finally:
            unregister_scenario("tiny_lts_clone")
        assert "tiny_lts_clone" not in list_scenarios()


@pytest.mark.parametrize("family", sorted(SMALL_SPECS))
class TestFamilies:
    def test_builds_population_from_config_dict(self, family):
        scenario = make_scenario(SMALL_SPECS[family])
        envs = scenario.make_train_envs()
        assert len(envs) == scenario.num_train_envs >= 2
        for env in envs:
            assert isinstance(env, FAMILY_ENV_TYPES[family])
            assert env.observation_dim == scenario.state_dim
            assert env.action_dim == scenario.action_dim
        target = scenario.make_target_env()
        assert isinstance(target, FAMILY_ENV_TYPES[family])
        assert target.observation_dim == scenario.state_dim

    def test_spec_round_trips_through_build(self, family):
        """spec → env → spec: rebuilding from the resolved spec yields an
        equal spec and a bit-identical population."""
        scenario = make_scenario(SMALL_SPECS[family])
        rebuilt = make_scenario(scenario.spec.to_dict())
        assert rebuilt.spec == scenario.spec
        assert rebuilt.spec.to_dict() == scenario.spec.to_dict()
        env_a = scenario.make_train_env(0)
        env_b = rebuilt.make_train_env(0)
        np.testing.assert_array_equal(env_a.reset(), env_b.reset())

    def test_spec_dict_is_json_compatible(self, family):
        import json

        data = make_scenario(SMALL_SPECS[family]).spec.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_deterministic_rebuild(self, family):
        a = make_scenario(SMALL_SPECS[family])
        b = make_scenario(SMALL_SPECS[family])
        for index in range(min(2, a.num_train_envs)):
            np.testing.assert_array_equal(
                a.make_train_env(index).reset(), b.make_train_env(index).reset()
            )

    def test_seed_changes_population(self, family):
        spec = dict(SMALL_SPECS[family])
        other = dict(spec, seed=spec["seed"] + 100)
        states_a = make_scenario(spec).make_train_env(0).reset()
        states_b = make_scenario(other).make_train_env(0).reset()
        assert not np.array_equal(states_a, states_b)


class TestPopulationValidation:
    @pytest.mark.parametrize(
        "family,key",
        [
            ("lts", "num_users"),
            ("slate", "num_envs"),
            ("slate", "num_users"),
            ("dpr", "num_cities"),
            ("dpr", "drivers_per_city"),
        ],
    )
    def test_empty_population_rejected_at_spec_time(self, family, key):
        spec = dict(SMALL_SPECS[family])
        spec[key] = 0
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            make_scenario(spec)

    def test_lts_task_rejects_empty_users_directly(self):
        from repro.envs import make_lts_task

        with pytest.raises(ValueError, match="num_users must be >= 1"):
            make_lts_task("LTS3", num_users=0)

    def test_lts_target_env_rejects_empty_users(self):
        from repro.envs import make_lts_task

        task = make_lts_task("LTS3", num_users=5)
        with pytest.raises(ValueError, match="num_users must be >= 1"):
            task.make_target_env(num_users=0)

    def test_numpy_integer_counts_accepted(self):
        spec = dict(SMALL_SPECS["slate"])
        spec["num_envs"] = np.int64(3)
        scenario = make_scenario(spec)
        assert scenario.num_train_envs == 3
        assert scenario.spec.params["num_envs"] == 3
        assert type(scenario.spec.params["num_envs"]) is int  # JSON-clean

    def test_boolean_counts_rejected(self):
        spec = dict(SMALL_SPECS["slate"])
        spec["num_users"] = True  # int subclass, but a sizing bug
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            make_scenario(spec)

    def test_dpr_target_city_held_out_of_training(self):
        scenario = make_scenario(SMALL_SPECS["dpr"])
        target = scenario.make_target_env()
        train_ids = {env.group_id for env in scenario.make_train_envs()}
        assert target.group_id not in train_ids
        assert scenario.num_train_envs == SMALL_SPECS["dpr"]["num_cities"] - 1

    def test_dpr_single_city_rejected(self):
        spec = dict(SMALL_SPECS["dpr"], num_cities=1)
        with pytest.raises(ValueError, match="held out"):
            make_scenario(spec)

    @pytest.mark.parametrize("bad", [2.5, "1", True, -1, 99])
    def test_dpr_invalid_target_city_rejected_at_spec_time(self, bad):
        """A non-integer or out-of-range target_city must fail loudly —
        a fractional value would otherwise silently disable the
        hold-out (no int equals 2.5) and crash later in env build."""
        spec = dict(SMALL_SPECS["dpr"], target_city=bad)
        with pytest.raises(ValueError, match="target_city"):
            make_scenario(spec)

    def test_lts_resample_users_round_trips(self):
        scenario = make_scenario(dict(SMALL_SPECS["lts"], beta=4.0, resample_users=True))
        assert scenario.resample_users is True
        data = scenario.spec.to_dict()
        assert data["resample_users"] is True
        rebuilt = make_scenario(data)
        assert rebuilt.spec == scenario.spec
        assert rebuilt.resample_users is True
        assert make_scenario(SMALL_SPECS["lts"]).resample_users is False
        numpy_bool = dict(SMALL_SPECS["lts"], resample_users=np.True_)
        assert make_scenario(numpy_bool).resample_users is True

    @pytest.mark.parametrize("bad", [1, 0, "true", None, 1.0])
    def test_lts_non_bool_resample_users_rejected(self, bad):
        with pytest.raises(ValueError, match="resample_users"):
            make_scenario(dict(SMALL_SPECS["lts"], resample_users=bad))

    @pytest.mark.parametrize("family", ["dpr", "slate"])
    def test_resample_users_is_an_lts_parameter(self, family):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_scenario(dict(SMALL_SPECS[family], resample_users=True))
        scenario = make_scenario(SMALL_SPECS[family])
        assert scenario.resample_users is False
        assert scenario.corpus_seed_offset == 3000

    def test_spec_defaults_are_copies(self):
        defaults = scenario_defaults("slate")
        defaults["num_envs"] = 999
        assert scenario_defaults("slate")["num_envs"] != 999


class TestNormalization:
    def test_bare_name_resolves_defaults(self):
        spec = normalize_spec("slate")
        assert spec.params == scenario_defaults("slate")
        assert spec.seed == 0

    def test_tuples_normalised_to_lists(self):
        spec = normalize_spec(
            {"family": "lts", "sensitivity_range": (0.1, 0.2), "num_users": 4, "horizon": 3}
        )
        assert spec.params["sensitivity_range"] == [0.1, 0.2]

    def test_numpy_values_become_json_values(self):
        spec = ScenarioSpec(
            family="slate",
            params={"nested": {"gap": np.float32(0.5), "on": np.bool_(True)}, "ids": np.arange(2)},
        )
        data = spec.to_dict()
        assert data == {"family": "slate", "seed": 0, "ids": [0, 1],
                        "nested": {"gap": 0.5, "on": True}}
        assert type(data["nested"]["gap"]) is float and type(data["ids"][0]) is int
        assert type(data["nested"]["on"]) is bool

    @pytest.mark.parametrize("data", [{}, {"family": ""}, {"family": None, "seed": 1}],
                             ids=["missing", "empty", "none"])
    def test_spec_dict_needs_a_family(self, data):
        with pytest.raises(ValueError, match="needs a 'family' key"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ValueError, match="needs a 'family' key"):
            normalize_spec(data)

    @pytest.mark.parametrize("spec", [3, ["slate"], None], ids=["int", "list", "none"])
    def test_other_spec_types_rejected(self, spec):
        with pytest.raises(TypeError, match="expected a family name"):
            normalize_spec(spec)

    def test_spec_object_accepted(self):
        spec = ScenarioSpec(family="slate", params={"num_envs": 3}, seed=5)
        scenario = make_scenario(spec)
        assert scenario.num_train_envs == 3
        assert scenario.spec.seed == 5

    def test_slate_hidden_parameter_distribution_gapped(self):
        """Every drawn ω_g honours the spec's gap around the target."""
        scenario = make_scenario(
            {"family": "slate", "num_envs": 32, "num_users": 2, "horizon": 2,
             "min_gap": 3.0, "seed": 9}
        )
        for index in range(scenario.num_train_envs):
            env = scenario.make_train_env(index)
            assert abs(env.config.omega_g) >= 3.0
        assert make_scenario(scenario.spec.to_dict()).spec == scenario.spec

    def test_slate_impossible_gap_rejected(self):
        with pytest.raises(ValueError, match="no admissible"):
            make_scenario(
                {"family": "slate", "omega_g_low": -1.0, "omega_g_high": 1.0,
                 "min_gap": 2.0}
            )
