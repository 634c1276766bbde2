"""The ``python -m repro.serve`` demo: its parity verdict and exit code.

CI runs the demo as a smoke check, so its verdict has to mean
something: every policy family, served inline (``flush``), through the
background dispatcher or over a loopback TCP gateway, in sampled and
deterministic modes, must report ``parity_vs_solo`` and exit 0 — and a
served stream that differs from its solo replay, or a required metrics
series that is missing from ``/metrics``, must exit 1.
"""

import json

import numpy as np
import pytest

from repro.serve import __main__ as demo

SESSIONS, USERS, STEPS = 3, 2, 4
TRANSPORTS = {"flush": [], "background": ["--background"], "gateway": ["--gateway"]}
MODES = {"sampled": [], "deterministic": ["--deterministic"]}


def run_demo(capsys, *extra):
    argv = [
        "--sessions", str(SESSIONS), "--users", str(USERS), "--steps", str(STEPS),
        *extra,
    ]
    code = demo.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("policy", ["mlp", "lstm", "sim2rec"])
def test_served_streams_match_solo_replay(capsys, policy, transport, mode):
    code, summary, err = run_demo(
        capsys, "--policy", policy, *TRANSPORTS[transport], *MODES[mode]
    )
    assert code == 0, err
    assert summary["parity_vs_solo"] is True
    assert summary["policy"] == policy
    assert summary["sessions"] == SESSIONS
    assert summary["gateway"] is (transport == "gateway")
    assert summary["background"] is (transport == "background")
    assert summary["requests"] == SESSIONS * STEPS
    assert 1 <= summary["batches"] <= summary["requests"]
    assert USERS <= summary["max_batch_rows"] <= SESSIONS * USERS
    if transport == "flush":
        # Every session submits before the flush, so each step is one window.
        assert summary["batches"] == STEPS
        assert summary["max_batch_rows"] == SESSIONS * USERS


def test_diverging_replay_exits_one(capsys, monkeypatch):
    replay = demo.replay_solo

    def perturbed(*args):
        stream = replay(*args)
        stream[-1] = stream[-1] + 1e-12
        return stream

    monkeypatch.setattr(demo, "replay_solo", perturbed)
    code, summary, err = run_demo(capsys, "--policy", "mlp")
    assert code == 1
    assert summary["parity_vs_solo"] is False
    assert "diverged" in err


def test_metrics_scrape_finds_every_required_series(capsys):
    code, summary, err = run_demo(
        capsys, "--policy", "lstm", "--gateway", "--metrics-port", "0"
    )
    assert code == 0, err
    assert summary["metrics_ok"] is True
    assert summary["metrics_missing"] == []
    assert summary["metrics_series"] > 0


def test_missing_metrics_series_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        demo, "REQUIRED_GATEWAY_SERIES", (*demo.REQUIRED_GATEWAY_SERIES, "no_such_series")
    )
    code, summary, err = run_demo(
        capsys, "--policy", "mlp", "--gateway", "--metrics-port", "0"
    )
    assert code == 1
    assert summary["parity_vs_solo"] is True
    assert summary["metrics_missing"] == ["no_such_series"]
    assert "no_such_series" in err


@pytest.mark.parametrize(
    "argv",
    [["--metrics-port", "0"], ["--policy", "gru"], ["--policy", "categorical"]],
    ids=["metrics-without-gateway", "gru", "unknown-policy"],
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        demo.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_make_policy_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="gru"):
        demo.make_policy("gru", 2, 1)


@pytest.mark.parametrize("policy", ["mlp", "lstm", "sim2rec"])
def test_envs_fit_the_policy(policy):
    envs, state_dim, action_dim = demo.make_envs(policy, SESSIONS, USERS, STEPS, seed=0)
    model = demo.make_policy(policy, state_dim, action_dim)
    assert len(envs) == SESSIONS
    assert [env.num_users for env in envs] == [USERS] * SESSIONS
    assert (model.state_dim, model.action_dim) == (state_dim, action_dim)
    assert all(env.reset().shape == (USERS, state_dim) for env in envs)


@pytest.mark.parametrize("deterministic", [False, True], ids=["sampled", "deterministic"])
def test_solo_replay_is_reproducible(deterministic):
    def replay():
        envs, state_dim, action_dim = demo.make_envs("lstm", 1, USERS, STEPS, seed=3)
        return demo.replay_solo(
            "lstm", state_dim, action_dim, envs[0], 1003, STEPS, deterministic
        )

    first, second = replay(), replay()
    assert len(first) == STEPS
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
