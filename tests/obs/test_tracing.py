"""The span recorder, and trace-id propagation through a live gateway.

The propagation contract: a trace id enters at the gateway (minted
there, or pinned by the client in the ``act`` message), rides the
request into the replica's microbatch queue, and comes back in the
reply — so the gateway's end-to-end ``gateway.act`` span and the
replica's ``serve.queue_wait``/``serve.compute`` spans all share one id.
"""

import threading

import numpy as np

from repro.obs import Tracer
from repro.serve import GatewayClient

from ..serve.helpers import STATE_DIM
from ..serve.test_gateway import make_gateway, wait_until


class TestTracer:
    def test_trace_ids_are_unique_and_monotone(self):
        tracer = Tracer()
        ids = [tracer.new_trace_id() for _ in range(100)]
        assert len(set(ids)) == 100
        # One shared prefix, a monotonically increasing counter suffix.
        prefixes = {tid.rsplit("-", 1)[0] for tid in ids}
        assert len(prefixes) == 1
        counters = [int(tid.rsplit("-", 1)[1], 16) for tid in ids]
        assert counters == sorted(counters)

    def test_ids_differ_across_tracers(self):
        assert Tracer().new_trace_id() != Tracer().new_trace_id()

    def test_record_and_filtered_lookup(self):
        tracer = Tracer()
        tracer.record("a", "t1", 0.0, 0.5, replica="r0")
        tracer.record("b", "t1", 0.5, 0.1)
        tracer.record("a", "t2", 1.0, 0.2)
        assert len(tracer.spans()) == 3
        assert [s.name for s in tracer.spans(trace_id="t1")] == ["a", "b"]
        assert [s.trace_id for s in tracer.spans(name="a")] == ["t1", "t2"]
        assert tracer.spans(trace_id="t1", name="a")[0].tags == {"replica": "r0"}

    def test_span_context_manager_times_the_block(self):
        tracer = Tracer()
        with tracer.span("phase", tag="x") as tid:
            pass
        (span,) = tracer.spans()
        assert span.trace_id == tid
        assert span.name == "phase"
        assert span.duration_s >= 0.0
        assert span.tags == {"tag": "x"}

    def test_capacity_bound_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.record("s", f"t{index}", 0.0, 0.0)
        assert tracer.stats() == {"recorded": 5, "retained": 3, "dropped": 2}
        assert [s.trace_id for s in tracer.spans()] == ["t2", "t3", "t4"]

    def test_concurrent_ids_stay_unique(self):
        tracer = Tracer()
        out = [None] * 8

        def mint(index):
            out[index] = [tracer.new_trace_id() for _ in range(500)]

        threads = [
            threading.Thread(target=mint, args=(i,)) for i in range(len(out))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flat = [tid for per in out for tid in per]
        assert len(set(flat)) == len(flat)

    def test_clear_keeps_recorded_total(self):
        tracer = Tracer()
        tracer.record("s", "t", 0.0, 0.0)
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.stats()["recorded"] == 1


class TestEndToEndPropagation:
    """One trace id links gateway span to replica queue/compute spans."""

    def _act(self, client, trace=None):
        session = client.open_session(num_users=1)
        result = session.act(np.zeros((1, STATE_DIM)), trace=trace)
        session.end()
        return session, result

    def test_gateway_minted_id_reaches_replica_spans(self):
        gateway, server = make_gateway()
        with gateway:
            with GatewayClient(gateway.address) as client:
                session, _ = self._act(client)
            trace = session.last_trace
            assert trace  # the reply carries the gateway-minted id
            # The replica records its spans as the batch retires; the act
            # reply can race ahead of that by a scheduling quantum.
            assert wait_until(
                lambda: len(gateway.tracer.spans(trace_id=trace)) >= 3
            )
            spans = {s.name: s for s in gateway.tracer.spans(trace_id=trace)}
            assert set(spans) == {"gateway.act", "serve.queue_wait", "serve.compute"}
            assert spans["gateway.act"].tags["session"] == session.id
            assert spans["gateway.act"].tags["replica"] == server.name
            assert spans["serve.queue_wait"].tags["replica"] == server.name
            assert spans["serve.compute"].tags["session"] == session.id
            assert spans["serve.compute"].tags["batch_rows"] >= 1

    def test_client_pinned_id_is_honoured(self):
        gateway, _ = make_gateway()
        with gateway:
            with GatewayClient(gateway.address) as client:
                session, _ = self._act(client, trace="my-trace-0042")
            assert session.last_trace == "my-trace-0042"
            assert wait_until(
                lambda: len(gateway.tracer.spans(trace_id="my-trace-0042")) >= 3
            )

    def test_each_request_gets_its_own_id(self):
        gateway, _ = make_gateway()
        with gateway:
            with GatewayClient(gateway.address) as client:
                session = client.open_session(num_users=1)
                traces = []
                for _ in range(3):
                    session.act(np.zeros((1, STATE_DIM)))
                    traces.append(session.last_trace)
                session.end()
            assert len(set(traces)) == 3

    def test_server_and_gateway_share_one_tracer(self):
        gateway, server = make_gateway()
        with gateway:
            assert server.tracer is gateway.tracer

    def test_timeout_reply_carries_the_trace_id(self):
        """A typed TIMEOUT still reports which trace died."""
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64}
        )
        with gateway:
            server.session(num_users=1)  # idle: holds the window open
            with GatewayClient(gateway.address) as client:
                session = client.open_session(num_users=1)
                reply = gateway._op_act(
                    {
                        "session": session.id,
                        "obs": np.zeros((1, STATE_DIM)),
                        "deadline_ms": 1.0,
                        "trace": "doomed-trace",
                    }
                )
                assert reply["ok"] is False and reply["error"] == "TIMEOUT"
                assert reply["trace"] == "doomed-trace"
