"""The gateway process of the ``gateway_act`` workload.

    python -m perfbench.gateway_server --seed 0 [--spans OUT.json]

Serves the slate-sized Sim2Rec policy of ``--seed`` through a
:class:`repro.serve.Gateway` over one :class:`repro.serve.PolicyServer`
(default ``ServeConfig`` and ``GatewayConfig``). Prints ``READY <host>
<port>`` once listening and shuts down when its standard input closes.
With ``--spans`` the gateway-side layers are traced and their spans
written to that file on shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .common import pin_blas, require_src


def slate_spec(seed: int, num_users: int, num_envs: int = 2) -> dict:
    return {"family": "slate", "num_envs": num_envs, "num_users": num_users, "seed": seed}


def build_policy(seed: int, num_users: int):
    """The served policy; the benchmark rebuilds it identically for replay."""
    from repro.core import build_sim2rec_policy, scenario_small_config
    from repro.scenarios import make_scenario

    scenario = make_scenario(slate_spec(seed, num_users))
    return build_sim2rec_policy(
        scenario.state_dim, scenario.action_dim, scenario_small_config(seed=seed)
    )


def trace_targets():
    """Gateway-side layer boundaries. The ``stats`` exchange the benchmark
    uses to read the registry is left out of every span."""
    from repro.serve import Gateway, Session, gateway, protocol
    from repro.serve.sessions import SessionStore

    def is_stats_request(_gateway, message, *args, **kwargs) -> bool:
        return isinstance(message, dict) and message.get("op") == "stats"

    def is_stats_reply(_sock, message) -> bool:
        return isinstance(message, dict) and "metrics" in message

    return [
        (protocol, "unpack_frame", "gateway.decode"),
        (Gateway, "_dispatch", "gateway.request", is_stats_request),
        (SessionStore, "get", "sessions.get"),
        (Session, "submit", "serve.submit"),
        (gateway, "send_frame", "gateway.write", is_stats_reply),
        (protocol, "pack_frame", "gateway.encode"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--users", type=int, default=10)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    pin_blas()
    require_src()
    from repro.serve import Gateway, GatewayConfig, PolicyServer, ServeConfig

    from .tracer import SpanRecorder

    recorder = SpanRecorder() if args.spans else None
    server = PolicyServer(build_policy(args.seed, args.users), ServeConfig())
    with recorder.instrument(trace_targets()) if recorder else nullcontext():
        with Gateway(server, GatewayConfig()) as gateway:
            gateway.start()
            host, port = gateway.address
            print(f"READY {host} {port}", flush=True)
            sys.stdin.read()  # until the benchmark closes our stdin
    if recorder is not None:
        with open(args.spans, "w") as handle:
            json.dump({"table": recorder.summary(), "spans": recorder.spans()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
