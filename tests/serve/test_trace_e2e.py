"""E2E: one request's merged trace spans both serve process tiers.

The acceptance path of the live-telemetry work: a detect request against
``serve --trace-dir ...`` must produce a single Chrome trace containing
spans from the server (pid 0) and the subprocess worker — clock-aligned
so the tiers nest strictly, flow-linked by the trace id — and tracing
must not change the result by a bit.

These tests boot a real spawned worker, so they share one server session
(same pattern as ``test_pool.py``). Rank-process spans, which only
``runtime="multiprocess"`` outside the server produces, are checked in
``tests/multiprocess/test_runtime.py``.
"""

import asyncio
import json

from repro.graph.generators import ring_of_cliques
from repro.obs import validate_chrome_trace
from repro.serve import DetectionServer, ServeClient, ServeConfig


def _spans(events, name, pid=None):
    return [
        (e["ts"], e["ts"] + e["dur"])
        for e in events
        if e.get("ph") == "X"
        and e["name"] == name
        and (pid is None or e["pid"] == pid)
    ]


class TestCrossProcessTrace:
    def test_two_tiers_nested_and_flow_linked(self, tmp_path):
        graph = ring_of_cliques(8, 6)

        async def traced():
            cfg = ServeConfig(
                port=0,
                runner="subprocess",
                workers=1,
                trace_dir=str(tmp_path),
            )
            server = DetectionServer(cfg)
            host, port = await server.start()
            try:
                client = await ServeClient.connect(host, port)
                try:
                    fingerprint = await client.upload(graph)
                    reply = await client.detect(
                        fingerprint, seed=7, timeout_s=120
                    )
                    stats = await client.stats()
                    return reply, stats
                finally:
                    await client.close()
            finally:
                await server.drain()

        async def untraced():
            server = DetectionServer(
                ServeConfig(port=0, runner="subprocess", workers=1)
            )
            host, port = await server.start()
            try:
                client = await ServeClient.connect(host, port)
                try:
                    fingerprint = await client.upload(graph)
                    return await client.detect(
                        fingerprint, seed=7, timeout_s=120
                    )
                finally:
                    await client.close()
            finally:
                await server.drain()

        reply, stats = asyncio.run(traced())
        assert reply["ok"] and "trace_path" in reply
        with open(reply["trace_path"]) as fh:
            chrome = json.load(fh)
        validate_chrome_trace(chrome)
        events = chrome["traceEvents"]

        # ---- tier inventory: server + worker, no rank processes ------- #
        labels = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        worker_pids = [
            pid for pid, label in labels.items() if label == "serve-worker"
        ]
        assert labels.get(0) == "serve"
        assert len(worker_pids) == 1
        assert set(labels) == {0, *worker_pids}
        # a real OS pid, distinct from the server's pseudo-pid 0
        assert 0 not in worker_pids

        # ---- strict nesting after clock alignment --------------------- #
        (req0, req1), = _spans(events, "serve/request", pid=0)
        (disp0, disp1), = _spans(events, "serve/pool.dispatch", pid=0)
        (det0, det1), = _spans(events, "worker/detect", pid=worker_pids[0])
        assert req0 == 0  # the request span anchors the trace at ts=0
        assert req0 <= disp0 <= disp1 <= req1
        # the NTP-style handshake bounds guarantee the worker's service
        # interval lands inside the dispatch bracket — no tolerance
        assert disp0 <= det0 <= det1 <= disp1
        # the worker's engine ran in-process, inside its detect interval
        engine_runs = _spans(events, "engine/run", pid=worker_pids[0])
        assert engine_runs  # one per Louvain level
        for start, end in engine_runs:
            assert det0 <= start <= end <= det1

        # ---- flow chain links the tiers by trace id ------------------- #
        flow = sorted(
            (e for e in events if e.get("cat") == "flow"),
            key=lambda e: e["ts"],
        )
        assert [f["ph"] for f in flow] == ["s"] + ["t"] * (len(flow) - 2) + ["f"]
        assert len({f["id"] for f in flow}) == 1
        assert flow[0]["pid"] == 0
        assert {f["pid"] for f in flow} == {0, worker_pids[0]}
        assert chrome["metadata"]["trace_id"] == reply["trace_id"]

        # ---- satellite: worker telemetry flows even on cold requests -- #
        pool = stats["pool"]
        totals = pool["worker_totals"]
        assert totals["detections"] == 1
        assert totals["iterations"] > 0
        assert pool["kernel_backends"]  # worker-side kernel counters
        assert sum(pool["kernel_backends"].values()) > 0

        # ---- tracing changes nothing about the answer ----------------- #
        plain = asyncio.run(untraced())
        assert "trace_id" not in plain
        assert plain["assignment_sha256"] == reply["assignment_sha256"]
        assert plain["modularity"] == reply["modularity"]
