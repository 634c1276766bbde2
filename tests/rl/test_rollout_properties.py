"""Property-based fuzz tests for pool construction and collection.

Seeded random env counts, user counts, horizons, step budgets and
resampled user gaps drive pool construction + collection; the invariants
below catch the layout edge cases fixed-shape tests miss:

- **partitioning** — contiguous, covering, non-empty, user-balanced
  shards for any layout / worker count;
- **done-mask monotonicity** — a member env that leaves the pool never
  re-enters, and the pool ends exactly when the last member does;
- **segment length budgets** — every collected segment is cut at its own
  env's budget (``min(horizon, max_steps)`` for LTS members) and agrees
  with the pool's step counters;
- **RNG-stream isolation** — an env's segment depends only on its own
  env state and noise stream, never on which other envs share the pool
  (the property that makes every collection mode bit-identical);
- **sharded evaluation layouts** — random ragged layouts × worker
  counts reproduce in-process ``evaluate`` through worker-side policy
  replicas.

Runs derandomized (fixed example database seed) so CI is reproducible.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.envs import LTSConfig, LTSEnv, SlateConfig, SlateRecEnv  # noqa: E402
from repro.rl import (  # noqa: E402
    BlockRNG,
    MLPActorCritic,
    ShardedVecEnvPool,
    VecEnvPool,
    collect_segments_vec,
    evaluate,
    sharding_available,
)
from repro.rl.parity import assert_segments_identical  # noqa: E402
from repro.rl.workers import partition_contiguous  # noqa: E402

COMMON = dict(deadline=None, derandomize=True, print_blob=True)

# Layout strategies: ragged pools, deliberately including 1-user and
# 1-env degenerate shapes.
user_counts_st = st.lists(st.integers(1, 9), min_size=1, max_size=6)
horizons_st = st.lists(st.integers(1, 7), min_size=1, max_size=6)


def make_envs(user_counts, horizons, seed=0, resample=False):
    envs = []
    for index, users in enumerate(user_counts):
        horizon = horizons[index % len(horizons)]
        env = LTSEnv(
            LTSConfig(
                num_users=users,
                horizon=horizon,
                omega_g=float(2 * index),
                seed=seed + index,
            )
        )
        if resample:
            env.resample_user_gaps()
        envs.append(env)
    return envs


def make_policy(seed=1):
    return MLPActorCritic(2, 1, np.random.default_rng(seed), hidden_sizes=(8,))


def make_slate_envs(user_counts, horizon, slate_size, seed=0):
    return [
        SlateRecEnv(
            SlateConfig(
                num_users=users,
                horizon=horizon,
                slate_size=slate_size,
                omega_g=float(2 * index - 3),
                omega_u_range=1.5,
                churn_base=0.2,
                seed=seed + index,
            )
        )
        for index, users in enumerate(user_counts)
    ]


class TestPartitionProperties:
    @settings(max_examples=200, **COMMON)
    @given(
        user_counts=st.lists(st.integers(1, 20), min_size=1, max_size=12),
        workers=st.integers(1, 12),
    )
    def test_shards_are_contiguous_nonempty_and_covering(self, user_counts, workers):
        shards = partition_contiguous(user_counts, workers)
        assert len(shards) == max(1, min(workers, len(user_counts)))
        assert shards[0].start == 0
        assert shards[-1].stop == len(user_counts)
        for before, after in zip(shards[:-1], shards[1:]):
            assert before.stop == after.start  # contiguous, no gaps
        assert all(shard.stop > shard.start for shard in shards)  # non-empty

    @settings(max_examples=100, **COMMON)
    @given(
        user_counts=st.lists(st.integers(1, 20), min_size=2, max_size=12),
        workers=st.integers(2, 6),
    )
    def test_balance_never_worse_than_one_env(self, user_counts, workers):
        """A shard never exceeds the ideal share by more than its own
        largest member — the quantile cut property."""
        shards = partition_contiguous(user_counts, workers)
        total = sum(user_counts)
        ideal = total / len(shards)
        for shard in shards:
            load = sum(user_counts[shard.start : shard.stop])
            largest = max(user_counts[shard.start : shard.stop])
            assert load <= ideal + largest


class TestBlockRNGProperties:
    @settings(max_examples=100, **COMMON)
    @given(
        block_sizes=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        trailing=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_draws_match_isolated_streams(self, block_sizes, trailing, seed):
        """Each block's rows come from that block's own stream, regardless
        of which other blocks exist — stream isolation by construction."""
        offsets = np.cumsum([0] + block_sizes)
        slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]
        shape = (int(offsets[-1]),) + (2,) * trailing
        block = BlockRNG(
            [np.random.default_rng(seed + i) for i in range(len(slices))], slices
        )
        draws = block.standard_normal(shape)
        for index, sl in enumerate(slices):
            direct = np.random.default_rng(seed + index).standard_normal(
                (block_sizes[index],) + shape[1:]
            )
            np.testing.assert_array_equal(draws[sl], direct)


class TestPoolInvariants:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], **COMMON)
    @given(
        user_counts=user_counts_st,
        horizons=horizons_st,
        seed=st.integers(0, 2**16),
        max_steps=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_done_mask_monotone_and_steps_bounded(
        self, user_counts, horizons, seed, max_steps
    ):
        """Once a member leaves the active mask it never returns; its step
        counter freezes at its own budget; the pool is done exactly when
        the last member is."""
        pool = VecEnvPool(make_envs(user_counts, horizons, seed), max_steps=max_steps)
        budgets = np.array(
            [max_steps or env.horizon for env in pool.envs], dtype=np.int64
        )
        pool.reset()
        rng = np.random.default_rng(seed)
        previous = pool.active_mask
        assert previous.all()
        while not pool.all_done:
            pool.step(rng.random((pool.num_users, 1)))
            current = pool.active_mask
            assert not (current & ~previous).any()  # monotone: no resurrections
            assert (pool.env_steps <= budgets).all()
            assert (pool.env_steps[~current] <= budgets[~current]).all()
            previous = current
        assert not pool.active_mask.any()

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], **COMMON)
    @given(
        user_counts=user_counts_st,
        horizons=horizons_st,
        seed=st.integers(0, 2**16),
        max_steps=st.one_of(st.none(), st.integers(1, 8)),
        resample=st.booleans(),
    )
    def test_segment_lengths_respect_budgets(
        self, user_counts, horizons, seed, max_steps, resample
    ):
        """Every collected segment is truncated at its own env's budget,
        for ragged layouts, resampled user gaps and any step cap."""
        envs = make_envs(user_counts, horizons, seed, resample=resample)
        policy = make_policy()
        rngs = [np.random.default_rng(seed + 100 + i) for i in range(len(envs))]
        segments = collect_segments_vec(envs, policy, rngs, max_steps=max_steps)
        assert len(segments) == len(envs)
        for env, segment in zip(envs, segments):
            budget = min(env.horizon, max_steps) if max_steps else env.horizon
            assert segment.horizon == budget  # LTS members run to their budget
            assert segment.num_users == env.num_users
            assert segment.last_values.shape == (env.num_users,)
            # the final recorded step carries the env's own done signal
            assert segment.dones[-1].all() == (budget >= env.horizon)

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], **COMMON)
    @given(
        user_counts=user_counts_st,
        horizons=horizons_st,
        seed=st.integers(0, 2**16),
        keep=st.integers(0, 5),
    )
    def test_rng_stream_isolation_across_pool_membership(
        self, user_counts, horizons, seed, keep
    ):
        """An env's segment is identical whether it shares the pool with
        every other env or rolls alone — streams and env state never leak
        across blocks, whatever the layout."""
        policy = make_policy()
        envs = make_envs(user_counts, horizons, seed)
        rngs = [np.random.default_rng(seed + 100 + i) for i in range(len(envs))]
        pooled = collect_segments_vec(envs, policy, rngs)
        index = keep % len(envs)
        alone_env = make_envs(user_counts, horizons, seed)[index]
        alone_rng = np.random.default_rng(seed + 100 + index)
        alone = collect_segments_vec([alone_env], policy, [alone_rng])
        assert_segments_identical([pooled[index]], alone, label="isolation")


def assert_sharded_matches_in_process(policy, make_envs, workers, seed):
    """One sampled-action sweep, in-process and across ``workers`` shards."""

    def streams(count):
        return [np.random.default_rng(seed + 100 + i) for i in range(count)]

    envs = make_envs()
    expected = evaluate(policy, envs, rng=streams(len(envs)), deterministic=False)
    with ShardedVecEnvPool(make_envs(), num_workers=workers) as pool:
        got = evaluate(policy, pool, rng=streams(len(envs)), deterministic=False)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)
class TestShardedEvaluateLayoutFuzz:
    @settings(max_examples=6, suppress_health_check=[HealthCheck.too_slow], **COMMON)
    @given(
        user_counts=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        horizon=st.integers(2, 5),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**10),
    )
    def test_random_layouts_match_in_process(self, user_counts, horizon, workers, seed):
        """Worker-side policy replicas reproduce in-process evaluate for
        random ragged layouts and shard counts — the fuzzed counterpart
        of the fixed eval parity grid."""
        horizons = [horizon] * len(user_counts)
        assert_sharded_matches_in_process(
            make_policy(), lambda: make_envs(user_counts, horizons, seed), workers, seed
        )

    @settings(max_examples=6, suppress_health_check=[HealthCheck.too_slow], **COMMON)
    @given(
        user_counts=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        horizon=st.integers(2, 5),
        slate_size=st.integers(1, 4),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**10),
    )
    def test_random_slate_layouts_match_in_process(
        self, user_counts, horizon, slate_size, workers, seed
    ):
        """The slate family under the same fuzz: random ragged layouts,
        slate widths and shard counts (MNL choice draws, churn draws and
        observation noise all riding per-env streams)."""
        policy = MLPActorCritic(
            SlateRecEnv.STATE_DIM, slate_size, np.random.default_rng(3), hidden_sizes=(8,)
        )
        assert_sharded_matches_in_process(
            policy,
            lambda: make_slate_envs(user_counts, horizon, slate_size, seed),
            workers,
            seed,
        )
