"""The traced run: in-memory spans, counter deltas, and the layer ladder.

The ladder issues the same queries at each entry point a query crosses —
WebSocket gateway, TCP root, in-process leaf, codec, merge — and derives
each layer's self time from the difference between adjacent rungs:

* gateway = WS done - TCP done, paired on the same cached query;
* service (transport, scheduler, sessions, web facade) = TCP done -
  profile ``engineSeconds``;
* fan-out (placement, ensure, root merge) = ``engineSeconds`` -
  ``fanoutSeconds``;
* wire tail = ``fanoutSeconds`` - the last worker emission;
* emit overhead = the last worker emission - the in-process leaf
  critical path (the slowest worker's summed shard time).

Spans are recorded by the benchmark around its own calls into each layer
and written out with the tier's own spans when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from repro.engine.costmodel import CostModel
from repro.engine.rpc import (
    RpcReply,
    sketch_from_json,
    summary_from_bytes,
    summary_to_bytes,
)
from repro.engine.simulation import SimCluster, SimPhase, simulate_query
from workloads import DISTINCT, HEAVY_HITTERS, NEXTK, histogram, run_op

#: The leaf sketches timed on every workload's shards, by metric name.
LEAF_SKETCHES = {
    "hist": histogram("Distance", 0.0, 5000.0, 40),
    "nextk": NEXTK,
    "heavy_hitters": HEAVY_HITTERS,
    "distinct": DISTINCT,
}
PING_ROUNDS = 50
GATEWAY_PAIRS = 40
CODEC_ROUNDS = 30
MODEL_PROBES = 7
FILTER_PROBES = 3


class Spans:
    """Spans kept in memory: name, start, end, parent and request id."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "start": time.perf_counter() - self._origin,
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin


class Meter:
    """Root and worker counters over an interval.

    Reading the counters is itself root and worker traffic, so the cost
    of one read (measured by two back-to-back reads) is subtracted.
    """

    def __init__(self, client):
        self.client = client
        first = self._read()
        self.start = self._read()
        self.overhead = {k: self.start[k] - first[k] for k in first}

    def _read(self) -> dict:
        snapshot = self.client.metrics_snapshot()
        registry = snapshot["registry"]
        waits = registry.get("scheduler.queue_wait_seconds") or {}
        caches = self.client.cache_stats()["cluster"]
        counters = {
            name: float(registry.get(name, 0))
            for name in (
                "rpc.client.bytes_sent",
                "rpc.worker.bytes_sent",
                "rpc.worker.bytes_received",
                "gateway.ws_bytes_sent",
                "cluster.steal.slices",
            )
        }
        counters["queue_wait.count"] = float(waits.get("count", 0))
        counters["queue_wait.sum"] = float(waits.get("sum", 0.0))
        counters["preempted"] = float(snapshot["scheduler"]["preempted"])
        counters["memo_hits"] = float(
            sum(w["memo"]["hits"] for w in caches["workers"] if "memo" in w)
        )
        return counters

    def stop(self) -> dict:
        end = self._read()
        return {
            k: max(0.0, end[k] - self.start[k] - self.overhead[k]) for k in end
        }


def median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def engine_samples(replies) -> list[dict]:
    """Per-query fan-out and wire times from uncached profiled replies."""
    samples = []
    for reply in replies:
        profile = reply.profile or {}
        workers = profile.get("workers") or []
        emits = [w["lastEmitSeconds"] for w in workers if "lastEmitSeconds" in w]
        if "engineSeconds" not in profile or not emits:
            continue
        samples.append(
            {
                "fanout_self": profile["engineSeconds"] - profile["fanoutSeconds"],
                "wire_tail": profile["fanoutSeconds"] - max(emits),
                "last_emit": max(emits),
                "partials": sum(w.get("emissions", 0) for w in workers),
                "bytes": sum(w.get("bytes", 0) for w in workers),
            }
        )
    return samples


def model_prediction_ms(
    rows: int, partitions: int, summary_bytes: int, seed: int
) -> float:
    """``SimCluster`` prediction of one cold histogram on this topology."""
    model = CostModel.calibrate(rows=rows, seed=seed)
    cluster = SimCluster(
        servers=2,
        cores_per_server=1,
        total_rows=rows,
        micropartition_rows=max(1, rows // partitions),
    )
    phase = SimPhase("scan", columns=1, summary_bytes=summary_bytes)
    return simulate_query(cluster, [phase], model, seed=seed).total_s * 1000.0


class Ladder:
    """Runs the rungs below the workload itself and derives the metrics."""

    def __init__(self, run):
        self.run = run  # the run's Session: connections, reference, checker
        self.spans = run.spans

    def ping_us(self) -> float:
        times = []
        with self.spans.span("ladder.ping"):
            for _ in range(PING_ROUNDS):
                started = time.perf_counter()
                self.run.tcp.client.ping()
                times.append(time.perf_counter() - started)
        return median(times) * 1e6

    def gateway_pairs(self, specs: list) -> tuple[list, list, dict]:
        """WS vs TCP done on cached queries; returns the differences, the
        TCP replies and the counter deltas over the pairs."""
        tcp, ws = self.run.tcp, self.run.ws
        for spec in specs:  # make every probe a root cache hit
            tcp.request("sketch", self.run.tcp_handle, {"sketch": spec})
        meter = Meter(tcp.client)
        diffs, tcp_replies = [], []
        with self.spans.span("ladder.gateway_pairs"):
            for i in range(GATEWAY_PAIRS):
                spec = specs[i % len(specs)]
                args = {"sketch": spec, "profile": True}
                with self.spans.span("ladder.ws.sketch"):
                    over_ws = ws.request("sketch", self.run.ws_handle, args)
                with self.spans.span("ladder.tcp.sketch"):
                    over_tcp = tcp.request("sketch", self.run.tcp_handle, args)
                diffs.append(over_ws.done_s - over_tcp.done_s)
                tcp_replies.append(over_tcp)
        return diffs, tcp_replies, meter.stop()

    def leaf_and_codec(self) -> dict:
        metrics: dict = {}
        reference = self.run.reference
        for name, spec in LEAF_SKETCHES.items():
            sketch = sketch_from_json(spec)
            runs = []
            with self.spans.span(f"ladder.leaf.{name}"):
                for _ in range(3):
                    runs.append(reference.compute(sketch))
            metrics[f"leaf.{name}_ns_per_row"] = (
                median(r.leaf_s for r in runs) / reference.rows * 1e9
            )
            summary = runs[0].summary
            encode, decode = [], []
            with self.spans.span(f"ladder.codec.{name}"):
                for _ in range(CODEC_ROUNDS):
                    started = time.perf_counter()
                    attachment = summary_to_bytes(summary)
                    frame = RpcReply(1, "partial", attachment=attachment).to_frame()
                    middle = time.perf_counter()
                    decoded = RpcReply.from_frame(frame)
                    summary_from_bytes(decoded.attachment)
                    encode.append(middle - started)
                    decode.append(time.perf_counter() - middle)
            metrics[f"codec.{name}.encode_us"] = median(encode) * 1e6
            metrics[f"codec.{name}.decode_us"] = median(decode) * 1e6
            metrics[f"codec.{name}.bytes_per_summary"] = float(len(attachment))
        return metrics

    def filter_ms(self) -> float:
        tcp = self.run.tcp
        times = []
        with self.spans.span("ladder.filter"):
            for _ in range(FILTER_PROBES):
                steps = self.run.workload_probe_filter()
                op = run_op(tcp, self.run.tcp_handle, steps, self.spans)
                if op.error is not None:
                    raise RuntimeError(f"filter probe failed: {op.error}")
                times.append(op.filter_s)
        return median(times) * 1000.0

    def model_check(self, seed: int) -> tuple[float, float]:
        """(predicted, measured) ms of an untraced cold Distance histogram."""
        tcp = self.run.tcp
        reference = self.run.reference
        done, sizes = [], []
        with self.spans.span("ladder.model_probes"):
            for i in range(MODEL_PROBES):
                # No workload query uses an upper bound off the 0.001 grid.
                spec = histogram("Distance", -1.0 - i, 5000.000123, 40)
                reply = tcp.request("sketch", self.run.tcp_handle, {"sketch": spec})
                if reply.kind != "complete":
                    raise RuntimeError(f"model probe failed: {reply.error}")
                done.append(reply.done_s)
                expected = self.run.checker.expected(("sketch", "base", spec), None)
                sizes.append(len(summary_to_bytes(expected.summary)))
        predicted = model_prediction_ms(
            reference.rows, len(reference.files), int(median(sizes)), seed
        )
        return predicted, median(done) * 1000.0


def per_layer(run, traced, untraced, counts, seed: int) -> dict:
    """Every per-layer metric of one traced run, by name."""
    ladder = Ladder(run)
    metrics: dict = {}

    metrics["transport.ping_rtt_us"] = ladder.ping_us()

    diffs, pair_replies, pair_counts = ladder.gateway_pairs(run.probe_specs())
    metrics["gateway.self_ms"] = median(diffs) * 1000.0
    metrics["gateway.ws_bytes_per_query"] = (
        pair_counts["gateway.ws_bytes_sent"] / GATEWAY_PAIRS
    )

    traced_ops = traced.ops
    window_replies = [reply for op in traced_ops for _, reply in op.sketches]
    sketch_count = max(1, len(window_replies))
    # The TCP rung: the workload's own queries when it speaks TCP, else
    # the TCP half of the gateway pairs.
    if run.conn.wire == "tcp":
        tcp_replies = window_replies
        reply_bytes = counts["rpc.client.bytes_sent"] / sketch_count
    else:
        tcp_replies = pair_replies
        reply_bytes = pair_counts["rpc.client.bytes_sent"] / GATEWAY_PAIRS
    metrics["service.self_ms"] = 1000.0 * median(
        r.done_s - (r.profile or {}).get("engineSeconds", 0.0) for r in tcp_replies
    )
    metrics["transport.reply_bytes_per_query"] = reply_bytes
    metrics["scheduler.queue_wait_us"] = (
        counts["queue_wait.sum"] / counts["queue_wait.count"] * 1e6
        if counts["queue_wait.count"]
        else 0.0
    )
    metrics["scheduler.preempted"] = counts["preempted"]

    # Uncached executions: the traced window's, plus the priming pass
    # (a dashboard's only uncached queries).
    profiled = window_replies + [r for op in run.primed for _, r in op.sketches]
    samples = engine_samples(profiled)
    metrics["fanout.self_ms"] = 1000.0 * median(s["fanout_self"] for s in samples)
    metrics["fanout.partials_per_query"] = median(s["partials"] for s in samples)
    metrics["fanout.bytes_to_root_per_query"] = median(s["bytes"] for s in samples)
    metrics["steal.slices"] = counts["cluster.steal.slices"]
    metrics["wire.tail_ms"] = 1000.0 * median(s["wire_tail"] for s in samples)
    metrics["wire.bytes_per_query"] = (
        counts["rpc.worker.bytes_sent"] + counts["rpc.worker.bytes_received"]
    ) / sketch_count

    # Leaf critical path and merge of the ops actually measured, summed
    # over an op's sketches.
    critical, merges, overheads = [], [], []
    for op in traced_ops + run.primed:
        predicate = next((s[1] for s in op.steps if s[0] == "filter"), None)
        expected = [run.checker.expected(step, predicate) for step, _ in op.sketches]
        critical.append(sum(e.critical_s for e in expected))
        merges.append(sum(e.merge_s for e in expected))
        for (_, reply), e in zip(op.sketches, expected):
            for sample in engine_samples([reply]):
                overheads.append(sample["last_emit"] - e.critical_s)
    metrics["leaf.critical_ms"] = 1000.0 * median(critical)
    metrics["wire.emit_overhead_ms"] = 1000.0 * median(overheads)
    metrics["merge.us_per_query"] = 1e6 * median(merges)

    metrics.update(ladder.leaf_and_codec())
    metrics["map.filter_ms"] = ladder.filter_ms()

    hits = sum(1 for r in window_replies if r.cache.get("hit"))
    metrics["cache.root_hit_ratio"] = hits / sketch_count
    metrics["cache.worker_memo_hits"] = counts["memo_hits"]

    reference = run.reference
    metrics["storage.read_table_ms"] = 1000.0 * median(reference.read_seconds)
    metrics["storage.bytes_per_row"] = reference.bytes / reference.rows

    metrics["trace_overhead"] = median(o.done_s for o in traced.calm()[0]) / median(
        o.done_s for o in untraced.calm()[0]
    )
    predicted, measured = ladder.model_check(seed)
    metrics["model.cold_scan_error_pct"] = abs(predicted - measured) / measured * 100.0
    run.notes.append(
        f"model check: SimCluster predicts {predicted:.2f} ms for a cold Distance "
        f"histogram on 2 servers x 1 core, {len(reference.files)} shards; "
        f"measured {measured:.2f} ms (p50 of {MODEL_PROBES})"
    )
    return metrics


def write_trace(
    path: str, spans: Spans, traced: list, tier_spans: list, metrics: dict
) -> None:
    """Write the run's spans, per-op profiles, tier spans and metrics."""
    ops = [
        {
            "request": op.trace_id,
            "firstSeconds": op.first_s,
            "doneSeconds": op.done_s,
            "profiles": [reply.profile for _, reply in op.sketches],
        }
        for op in traced
    ]
    with open(path, "w") as f:
        json.dump(
            {
                "spans": spans.records,
                "ops": ops,
                "tierSpans": tier_spans,
                "metrics": metrics,
            },
            f,
        )
