"""Cross-mode evaluation parity: replica-side eval equals solo eval.

The evaluation counterpart of ``test_rollout_parity.py``: every sweep
here goes through the one evaluation front door,
:func:`repro.rl.evaluate`, which routes through **policy replicas**
wherever a sharded pool is available
(:meth:`repro.rl.workers.ShardedVecEnvPool.evaluate_policy`). The kernel
draws each env's action noise from that env's own stream and computes
context per env block, so per-env returns must be **bit-identical**
across

- per-env solo evaluation (each env alone in its own pool),
- one in-process pool over all envs,
- sharded pools with {1, 2, 4} workers (replica acting in the workers),

for MLP / LSTM / Sim2Rec policies, deterministic and stochastic
action modes, multi-episode sweeps with discounting, ragged LTS / DPR /
SlateRec layouts and heterogeneous horizons (the pool masks finished
members' rewards to zero, so totals are layout-invariant). Sim2Rec
replicas must also carry the fitted SADAE normaliser, which lives
outside ``state_dict``.

Caveat pinned here too: with heterogeneous horizons the *pool* keeps
drawing from a finished env's stream until the pool ends, so caller-owned
generator **end states** (and hence episode 2+ of a stochastic sweep)
are only layout-invariant for equal horizons.
"""

import numpy as np
import pytest

from repro.core import build_sim2rec_policy, dpr_small_config
from repro.envs import (
    DPRConfig,
    DPRWorld,
    LTSConfig,
    LTSEnv,
    SlateConfig,
    SlateRecEnv,
)
from repro.rl import (
    MLPActorCritic,
    RecurrentActorCritic,
    ShardedVecEnvPool,
    VecEnvPool,
    collect_segments_vec,
    evaluate,
    sharding_available,
)

needs_sharding = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)

WORKER_COUNTS = (1, 2, 4)
EPISODES = 2
GAMMA = 0.97


def make_lts_envs(horizons=(5, 5, 5, 5, 5)):
    sizes = [3, 1, 4, 2, 5]
    return [
        LTSEnv(LTSConfig(num_users=k, horizon=h, omega_g=2.0 * i, seed=20 + i))
        for i, (k, h) in enumerate(zip(sizes, horizons))
    ]


def make_dpr_envs():
    world = DPRWorld(DPRConfig(num_cities=4, drivers_per_city=5, horizon=5, seed=3))
    return world.make_all_city_envs()


def make_hetero_dpr_envs():
    """DPR members that leave the pool at their own horizon (3 / 5 / 4 / 5)."""
    envs = make_dpr_envs()
    envs[0].horizon = 3
    envs[2].horizon = 4
    return envs


def make_slate_envs(horizons=(5, 5, 5, 5), sizes=((4, -4.0), (8, 2.0), (3, 5.0), (6, -2.0))):
    """SlateRec members with ragged user counts and per-env choice models
    (the family the ``rollout_eval`` workload evaluates)."""
    return [
        SlateRecEnv(
            SlateConfig(
                num_users=k,
                horizon=h,
                slate_size=3,
                omega_g=g,
                omega_u_range=2.0,
                temperature=0.4 + 0.1 * i,
                churn_base=0.15,
                seed=30 + i,
            )
        )
        for i, ((k, g), h) in enumerate(zip(sizes, horizons))
    ]


def make_hetero_slate_envs():
    return make_slate_envs(horizons=(3, 5, 2, 4))


def make_repeated_slate_envs():
    """User counts 4, 6, 4, 6, 3: Sim2Rec stacks each repeated size's
    two non-adjacent groups into one context pass, next to a singleton."""
    sizes = ((4, -4.0), (6, 2.0), (4, 5.0), (6, -2.0), (3, 0.5))
    return make_slate_envs(horizons=(5,) * len(sizes), sizes=sizes)


def make_policy(kind, state_dim, action_dim):
    if kind == "mlp":
        return MLPActorCritic(
            state_dim, action_dim, np.random.default_rng(1), hidden_sizes=(8,)
        )
    if kind == "recurrent":
        return RecurrentActorCritic(
            state_dim, action_dim, np.random.default_rng(0),
            lstm_hidden=8, head_hidden=(16,),
        )
    if kind == "sim2rec":
        return build_sim2rec_policy(state_dim, action_dim, dpr_small_config(seed=0))
    raise ValueError(kind)


#: Extra layouts for the stochastic parity checks: (env factory, state dim,
#: action dim). Slate populations (choice models, churn) and members
#: leaving the pool early are where per-env totals could pick up a layout
#: dependence; they sweep one episode so the check stays independent of
#: the hetero-horizon stream caveat above.
LAYOUTS = {
    "slate": (make_slate_envs, 4, 3),
    "hetero_slate": (make_hetero_slate_envs, 4, 3),
    "slate_repeated": (make_repeated_slate_envs, 4, 3),
    "hetero_dpr": (make_hetero_dpr_envs, 13, 2),
}


def setup_case(layout, kind):
    """(env_factory, policy, episodes) for a policy family on a layout.

    ``native`` is the family's own env set (DPR for Sim2Rec, LTS otherwise).
    """
    if layout != "native":
        env_factory, state_dim, action_dim = LAYOUTS[layout]
        return env_factory, make_policy(kind, state_dim, action_dim), 1
    if kind == "sim2rec":
        return make_dpr_envs, make_policy(kind, 13, 2), EPISODES
    return make_lts_envs, make_policy(kind, 2, 1), EPISODES


def env_seeds(num_envs):
    return [5000 + 7 * i for i in range(num_envs)]


def solo_eval(env_factory, policy, deterministic, episodes=EPISODES):
    """The reference: every env evaluated alone with its own stream."""
    envs = env_factory()
    return np.array(
        [
            evaluate(
                policy,
                [env],
                rng=[np.random.default_rng(seed)],
                episodes=episodes,
                gamma=GAMMA,
                deterministic=deterministic,
            )[0]
            for env, seed in zip(envs, env_seeds(len(envs)))
        ]
    )


def pooled_eval(env_factory, policy, deterministic, workers=0, episodes=EPISODES):
    """One pool over all envs: in-process (workers=0) or sharded."""
    envs = env_factory()
    rngs = [np.random.default_rng(seed) for seed in env_seeds(len(envs))]
    if workers == 0:
        totals = evaluate(
            policy, envs, rng=rngs, episodes=episodes, gamma=GAMMA,
            deterministic=deterministic,
        )
    else:
        with ShardedVecEnvPool(envs, num_workers=workers) as pool:
            totals = evaluate(
                policy, pool, rng=rngs, episodes=episodes, gamma=GAMMA,
                deterministic=deterministic,
            )
    return totals, [rng.bit_generator.state for rng in rngs]


LAYOUT_NAMES = ["native", *sorted(LAYOUTS)]


@pytest.mark.parametrize("kind", ["mlp", "recurrent", "sim2rec"])
class TestEvalParity:
    def test_in_process_pool_matches_solo_deterministic(self, kind):
        env_factory, policy, _ = setup_case("native", kind)
        solo = solo_eval(env_factory, policy, deterministic=True)
        pooled, _ = pooled_eval(env_factory, policy, deterministic=True)
        assert np.array_equal(solo, pooled), f"{kind}: pooled eval != solo"

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    def test_in_process_pool_matches_solo_stochastic(self, kind, layout):
        env_factory, policy, episodes = setup_case(layout, kind)
        solo = solo_eval(env_factory, policy, deterministic=False, episodes=episodes)
        pooled, _ = pooled_eval(
            env_factory, policy, deterministic=False, episodes=episodes
        )
        assert np.array_equal(solo, pooled), (
            f"{layout}/{kind}: stochastic pooled != solo"
        )

    @needs_sharding
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    def test_sharded_matches_solo(self, kind, layout, workers):
        """Replica acting inside the workers reproduces solo eval exactly."""
        env_factory, policy, episodes = setup_case(layout, kind)
        solo = solo_eval(env_factory, policy, deterministic=False, episodes=episodes)
        sharded, _ = pooled_eval(
            env_factory, policy, deterministic=False, workers=workers, episodes=episodes
        )
        assert np.array_equal(solo, sharded), (
            f"{layout}/{kind}: sharded eval (w={workers}) != solo"
        )

    @needs_sharding
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sharded_matches_solo_deterministic(self, kind, workers):
        """The deterministic flag reaches the worker-side replicas: a
        worker acting stochastically would miss the solo mean-action
        totals, and the caller's streams end as in-process ones do."""
        env_factory, policy, _ = setup_case("native", kind)
        solo = solo_eval(env_factory, policy, deterministic=True)
        _, states_inproc = pooled_eval(env_factory, policy, deterministic=True)
        sharded, states_sharded = pooled_eval(
            env_factory, policy, deterministic=True, workers=workers
        )
        assert np.array_equal(solo, sharded), (
            f"{kind}: deterministic sharded eval (w={workers}) != solo"
        )
        assert states_sharded == states_inproc

    @needs_sharding
    def test_owner_rng_continuity_across_modes(self, kind):
        """Equal horizons: caller streams end identically in every mode."""
        env_factory, policy, _ = setup_case("native", kind)
        _, states_inproc = pooled_eval(env_factory, policy, deterministic=False)
        _, states_sharded = pooled_eval(
            env_factory, policy, deterministic=False, workers=2
        )
        assert states_inproc == states_sharded, (
            f"{kind}: per-env RNG streams diverged between modes"
        )


def fit_normalizer(policy, seed):
    """Fit a Sim2Rec policy's SADAE normaliser on random DPR-shaped sets.

    The statistics are plain buffers outside ``state_dict``; a refit
    changes them and leaves every weight as it was.
    """
    rng = np.random.default_rng(seed)
    policy.sadae.fit_normalizer(
        [(rng.normal(size=(20, 13)), rng.random((20, 2))) for _ in range(4)]
    )
    return policy


@needs_sharding
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestReplicaBuffers:
    """Sim2Rec replicas carry the fitted normaliser, not just the weights."""

    def test_fitted_normalizer_reaches_the_replicas(self, workers):
        policy = fit_normalizer(make_policy("sim2rec", 13, 2), seed=5)
        solo = solo_eval(make_dpr_envs, policy, deterministic=False)
        sharded, _ = pooled_eval(
            make_dpr_envs, policy, deterministic=False, workers=workers
        )
        assert np.array_equal(solo, sharded), f"w={workers}: replica normaliser stale"

    def test_refit_alone_is_rebroadcast(self, workers):
        """A refit between sweeps changes only buffers: the byte-equality
        skip in ``sync_policy`` must see a new replica state and ship it,
        or the second sweep would run on the old statistics."""
        kwargs = dict(episodes=1, gamma=GAMMA, deterministic=False)
        num_envs = len(make_dpr_envs())

        def streams(seed):
            return [np.random.default_rng(seed + i) for i in range(num_envs)]

        stale_envs, stale = make_dpr_envs(), make_policy("sim2rec", 13, 2)
        fit_normalizer(stale, seed=5)
        evaluate(stale, stale_envs, rng=streams(70), **kwargs)
        stale_second = evaluate(stale, stale_envs, rng=streams(80), **kwargs)

        reference_envs = make_dpr_envs()
        reference = fit_normalizer(make_policy("sim2rec", 13, 2), seed=5)
        ref_first = evaluate(reference, reference_envs, rng=streams(70), **kwargs)
        fit_normalizer(reference, seed=6)
        ref_second = evaluate(reference, reference_envs, rng=streams(80), **kwargs)
        assert not np.array_equal(ref_second, stale_second)

        policy = fit_normalizer(make_policy("sim2rec", 13, 2), seed=5)
        with ShardedVecEnvPool(make_dpr_envs(), num_workers=workers) as pool:
            first = evaluate(policy, pool, rng=streams(70), **kwargs)
            fit_normalizer(policy, seed=6)
            second = evaluate(policy, pool, rng=streams(80), **kwargs)
            assert pool.replica_broadcasts == 2
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(second, ref_second)


class TestHeteroHorizons:
    """Finished members read zero rewards: totals are layout-invariant."""

    def make_envs(self):
        return make_lts_envs(horizons=(3, 5, 2, 5, 4))

    def test_in_process_matches_solo_single_episode(self):
        policy = make_policy("mlp", 2, 1)
        solo = solo_eval(self.make_envs, policy, deterministic=False, episodes=1)
        pooled, _ = pooled_eval(
            self.make_envs, policy, deterministic=False, episodes=1
        )
        assert np.array_equal(solo, pooled)

    def test_multi_episode_deterministic_matches_solo(self):
        """No draws -> stream advance cannot matter even across episodes."""
        policy = make_policy("recurrent", 2, 1)
        solo = solo_eval(self.make_envs, policy, deterministic=True)
        pooled, _ = pooled_eval(self.make_envs, policy, deterministic=True)
        assert np.array_equal(solo, pooled)

    @needs_sharding
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sharded_matches_in_process(self, workers):
        policy = make_policy("mlp", 2, 1)
        pooled, _ = pooled_eval(
            self.make_envs, policy, deterministic=False, episodes=1
        )
        sharded, _ = pooled_eval(
            self.make_envs, policy, deterministic=False, workers=workers, episodes=1
        )
        assert np.array_equal(pooled, sharded)


class TestFrontDoor:
    """`repro.rl.evaluate` input handling, routing and RNG-normalisation semantics."""

    @needs_sharding
    def test_single_generator_split_is_mode_invariant(self):
        """A lone generator splits into the same per-env children everywhere."""
        policy = make_policy("mlp", 2, 1)
        inproc = evaluate(
            policy, make_lts_envs(), rng=np.random.default_rng(11),
            episodes=EPISODES, gamma=GAMMA, deterministic=False,
        )
        with ShardedVecEnvPool(make_lts_envs(), num_workers=2) as pool:
            sharded = evaluate(
                policy, pool, rng=np.random.default_rng(11),
                episodes=EPISODES, gamma=GAMMA, deterministic=False,
            )
        assert np.array_equal(inproc, sharded)

    def test_deterministic_agrees_with_act_fn_path(self):
        """Replica path == the callable-protocol path under `as_act_fn`."""
        policy = make_policy("recurrent", 2, 1)
        replica = evaluate(
            policy, make_lts_envs(), rng=np.random.default_rng(13),
            episodes=EPISODES, gamma=GAMMA, deterministic=True,
        )
        act_fn = evaluate(
            policy.as_act_fn(np.random.default_rng(13), deterministic=True),
            make_lts_envs(),
            episodes=EPISODES,
            gamma=GAMMA,
        )
        assert np.array_equal(replica, act_fn)

    def test_single_env_returns_scalar(self):
        policy = make_policy("mlp", 2, 1)
        result = evaluate(policy, make_lts_envs()[0], episodes=1)
        assert isinstance(result, float)

    def test_act_fn_auto_dispatch(self):
        """Callable + single env -> float; callable + sequence -> per-env."""
        policy = make_policy("mlp", 2, 1)
        solo = evaluate(
            policy.as_act_fn(np.random.default_rng(5)), make_lts_envs()[0]
        )
        assert isinstance(solo, float)
        per_env = evaluate(
            policy.as_act_fn(np.random.default_rng(5)), make_lts_envs()
        )
        assert per_env.shape == (5,)

    def test_max_steps_truncates_a_callable(self):
        """Every input honours ``max_steps``: a callable's episodes stop
        where the policy's own do, short of the full horizon."""
        policy = make_policy("recurrent", 2, 1)
        kwargs = dict(episodes=EPISODES, gamma=GAMMA)
        truncated = evaluate(
            policy.as_act_fn(np.random.default_rng(13)), make_lts_envs(),
            max_steps=2, **kwargs,
        )
        expected = evaluate(
            policy, make_lts_envs(), max_steps=2, deterministic=True, **kwargs
        )
        np.testing.assert_array_equal(truncated, expected)
        full = evaluate(
            policy.as_act_fn(np.random.default_rng(13)), make_lts_envs(), **kwargs
        )
        assert not np.array_equal(truncated, full)

    def test_max_steps_does_not_stick_to_a_pool(self):
        """A budget bounds its own call: the next default call on the same
        pool runs every env's full horizon, and the pool's setting stands."""
        policy = make_policy("mlp", 2, 1)
        pool = VecEnvPool(make_lts_envs()[:2])
        evaluate(policy, pool, max_steps=2)
        assert pool.env_steps.tolist() == [2, 2]
        evaluate(policy, pool)
        assert pool.env_steps.tolist() == [5, 5]
        assert pool.max_steps is None

    def test_collect_max_steps_does_not_stick_to_a_pool(self):
        """The same for collection: a budgeted collect, then full-horizon
        segments from the same pool."""
        policy = make_policy("mlp", 2, 1)
        pool = VecEnvPool(make_lts_envs()[:2])
        short = collect_segments_vec(pool, policy, np.random.default_rng(0), max_steps=2)
        assert [len(segment.rewards) for segment in short] == [2, 2]
        full = collect_segments_vec(pool, policy, np.random.default_rng(0))
        assert [len(segment.rewards) for segment in full] == [5, 5]
        assert pool.max_steps is None

    def test_empty_env_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            evaluate(make_policy("mlp", 2, 1), [])

    @needs_sharding
    def test_eval_before_sync_raises(self):
        """Worker-side eval needs a replica: unsynced pools fail loudly."""
        with ShardedVecEnvPool(make_lts_envs(), num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="sync_policy"):
                pool.evaluate_policy(np.random.default_rng(0))

    def test_rng_count_mismatch_raises(self):
        policy = make_policy("mlp", 2, 1)
        with pytest.raises(ValueError, match="generator"):
            evaluate(policy, make_lts_envs(), rng=[np.random.default_rng(0)])

    @pytest.mark.parametrize("episodes", [0, -1])
    @pytest.mark.parametrize("path", ["policy", "act_fn", "env", "pool"])
    def test_episodes_below_one_rejected(self, path, episodes):
        """A sweep of no episodes averages over nothing: every input (a
        policy or a callable over an env list, a policy on a bare env, a
        sharded pool) raises ValueError naming the value. A sharded pool
        raises before any command goes out, so it stays usable."""
        policy = make_policy("mlp", 2, 1)
        refused = rf"episodes must be >= 1, got {episodes}"
        inputs = {
            "policy": (policy, make_lts_envs()[:2]),
            "act_fn": (policy.as_act_fn(np.random.default_rng(0)), make_lts_envs()[:2]),
            "env": (policy, make_lts_envs()[0]),
        }
        if path != "pool":
            with pytest.raises(ValueError, match=refused):
                evaluate(*inputs[path], episodes=episodes)
            return
        if not sharding_available():
            pytest.skip("platform has no multiprocessing start method")
        with ShardedVecEnvPool(make_lts_envs()[:2], num_workers=2) as pool:
            with pytest.raises(ValueError, match=refused):
                evaluate(policy, pool, episodes=episodes)
            assert pool.replica_version == 0  # refused before the broadcast
            pool.sync_policy(policy)
            with pytest.raises(ValueError, match=refused):
                pool.evaluate_policy(np.random.default_rng(0), episodes=episodes)
            assert not pool.closed
            np.testing.assert_array_equal(
                evaluate(policy, pool), evaluate(policy, make_lts_envs()[:2])
            )
