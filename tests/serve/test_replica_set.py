"""ReplicaSet semantics: deterministic routing, per-replica swap, retirement.

Routing must be a pure function of (seed, weights, key) — reproducible
A/B assignment — and every replica is a full PolicyServer, so sessions
on a replica keep the bit-identity contract of direct serving.
"""

import numpy as np
import pytest

from repro.serve import (
    PolicyServer,
    ReplicaSet,
    ServeConfig,
    SessionError,
    snapshot_policy,
)

from .helpers import STATE_DIM, make_obs_streams, make_policy


def make_set(seed=7, kinds=("mlp", "mlp"), weights=None, **config_overrides):
    config = ServeConfig(**{"max_batch_size": 8, "seed": 0, **config_overrides})
    replica_set = ReplicaSet(config=config, seed=seed)
    for index, kind in enumerate(kinds):
        weight = 1.0 if weights is None else weights[index]
        replica_set.add(f"r{index}", make_policy(kind), weight=weight)
    return replica_set


class TestMembership:
    def test_duplicate_name_rejected(self):
        replica_set = make_set()
        with pytest.raises(ValueError, match="already registered"):
            replica_set.add("r0", make_policy("mlp"))

    def test_empty_name_and_bad_weight_rejected(self):
        replica_set = ReplicaSet()
        with pytest.raises(ValueError, match="name"):
            replica_set.add("", make_policy("mlp"))
        with pytest.raises(ValueError, match="weight"):
            replica_set.add("r", make_policy("mlp"), weight=0.0)

    def test_set_weight_validates(self):
        replica_set = make_set()
        with pytest.raises(ValueError, match="weight"):
            replica_set.set_weight("r0", -1.0)
        replica_set.set_weight("r0", 3.0)
        keys = [f"user{i}" for i in range(64)]
        reweighted = make_set(weights=(3.0, 1.0))
        assert [replica_set.route(k) for k in keys] == [reweighted.route(k) for k in keys]

    def test_unknown_replica_rejected(self):
        replica_set = make_set()
        with pytest.raises(KeyError, match="unknown replica"):
            replica_set.replica("ghost")
        with pytest.raises(KeyError, match="unknown replica"):
            replica_set.set_weight("ghost", 2.0)

    def test_route_on_empty_set_rejected(self):
        with pytest.raises(SessionError, match="empty"):
            ReplicaSet().route("key")


class TestRouting:
    def test_routing_is_deterministic(self):
        a = make_set(seed=3)
        b = make_set(seed=3)
        keys = [f"user{i}" for i in range(64)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_seed_changes_the_split(self):
        keys = [f"user{i}" for i in range(64)]
        split_a = [make_set(seed=1).route(k) for k in keys]
        split_b = [make_set(seed=2).route(k) for k in keys]
        assert split_a != split_b

    def test_weights_shape_the_split(self):
        replica_set = make_set(weights=(9.0, 1.0))
        keys = [f"user{i}" for i in range(400)]
        routed = [replica_set.route(k) for k in keys]
        heavy = routed.count("r0") / len(routed)
        assert 0.8 < heavy < 1.0  # ~90% to the weight-9 arm

    def test_route_unaffected_by_open_sessions(self):
        """Load never reshuffles assignments: routing ignores session state."""
        replica_set = make_set()
        before = [replica_set.route(f"k{i}") for i in range(32)]
        for _ in range(10):
            replica_set.open_session()
        assert [replica_set.route(f"k{i}") for i in range(32)] == before


class TestSessions:
    def test_set_generated_ids_unique_across_replicas(self):
        replica_set = make_set()
        handles = [replica_set.open_session()[0] for _ in range(20)]
        assert len({handle.id for handle in handles}) == 20
        assert replica_set.num_sessions == 20

    def test_key_pins_routing(self):
        replica_set = make_set()
        expected = replica_set.route("sticky-user")
        for _ in range(5):
            _, name = replica_set.open_session(key="sticky-user")
            assert name == expected

    def test_session_ended_through_its_handle_is_not_counted(self):
        """The set's session count is its servers' count: a session
        ended through its own handle leaves it at once."""
        replica_set = make_set(kinds=("mlp",))
        ended, name = replica_set.open_session(num_users=2, seed=5)
        replica_set.open_session(num_users=1, seed=6)
        ended.end()
        assert replica_set.num_sessions == 1
        assert replica_set.retire(name) == 1

    def test_replica_session_matches_direct_server(self):
        """A routed session serves bit-identically to a direct PolicyServer."""
        obs_stream = make_obs_streams([2], 4, seed=11)[0]
        replica_set = make_set(kinds=("lstm", "lstm"))
        handle, name = replica_set.open_session(num_users=2, seed=42)
        direct = PolicyServer(make_policy("lstm"), ServeConfig(max_batch_size=8, seed=0))
        reference = direct.session(num_users=2, seed=42)
        for obs in obs_stream:
            routed_result = handle.act(obs, timeout=5.0)
            direct_result = reference.act(obs, timeout=5.0)
            assert np.array_equal(routed_result.actions, direct_result.actions)
        replica_set.close()
        direct.close()


class TestSwapAndRetire:
    def test_swap_is_per_replica(self):
        replica_set = make_set()
        donor = make_policy("mlp")
        for param in donor.parameters():
            param.data = param.data + 0.01
        assert replica_set.publish("r0", donor) == 2
        assert replica_set.replica("r0").version == 2
        assert replica_set.replica("r1").version == 1  # untouched

    def test_swap_accepts_raw_archive(self):
        replica_set = make_set()
        donor = make_policy("mlp")
        for param in donor.parameters():
            param.data = param.data + 0.02
        assert replica_set.swap("r1", snapshot_policy(donor)) == 2

    def test_retire_removes_from_routing_and_closes_sessions(self):
        replica_set = make_set()
        # open sessions until both replicas hold at least one
        names = set()
        while len(names) < 2:
            _, name = replica_set.open_session()
            names.add(name)
        before = replica_set.num_sessions
        closed = replica_set.retire("r0")
        assert closed >= 1
        assert replica_set.names() == ["r1"]
        assert replica_set.num_sessions == before - closed
        # every future key routes to the survivor
        assert all(replica_set.route(f"k{i}") == "r1" for i in range(16))
        with pytest.raises(KeyError, match="unknown replica"):
            replica_set.replica("r0")

    def test_retire_drains_queued_requests(self):
        """stop(drain=True): queued tickets resolve before the replica dies."""
        replica_set = make_set(kinds=("mlp",))
        handle, name = replica_set.open_session(num_users=1, seed=0)
        ticket = handle.submit(np.zeros((1, STATE_DIM)))
        assert not ticket.done()
        replica_set.retire(name)
        result = ticket.result(timeout=5.0)
        assert result.actions.shape == (1, 1)

    def test_sessions_never_migrate(self):
        """Retiring a replica kills its sessions; survivors are untouched."""
        replica_set = make_set()
        handles = {}
        while len(handles) < 2:
            handle, name = replica_set.open_session(num_users=1, seed=1)
            handles.setdefault(name, handle)
        replica_set.retire("r0")
        assert not handles["r0"].alive
        assert handles["r1"].alive


class TestWholeSet:
    def test_flush_serves_all_replicas(self):
        replica_set = make_set()
        tickets = []
        for _ in range(6):
            handle, _ = replica_set.open_session(num_users=1)
            tickets.append(handle.submit(np.zeros((1, STATE_DIM))))
        assert replica_set.flush() == 6
        assert all(ticket.done() for ticket in tickets)

    def test_close_is_idempotent_and_context_managed(self):
        with make_set() as replica_set:
            replica_set.open_session()
        replica_set.close()
        assert replica_set.num_replicas == 0

    def test_start_runs_background_dispatchers(self):
        replica_set = make_set(max_wait_ms=1.0)
        try:
            replica_set.start()
            handle, name = replica_set.open_session(num_users=1)
            assert replica_set.replica(name).running
            result = handle.act(np.zeros((1, STATE_DIM)), timeout=5.0)
            assert result.step == 1
        finally:
            replica_set.close()
