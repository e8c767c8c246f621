"""The three workloads: what each op sends, and how it is timed and checked.

An op is a list of steps run in order over one connection:

* ``("sketch", on, spec)`` — a sketch on the base dataset (``on="base"``)
  or on the op's filtered dataset (``on="derived"``); its result is
  checked against the in-process reference;
* ``("filter", predicate)`` — derive a filtered dataset (waits for the ack);
* ``("evict",)`` — drop the op's filtered dataset.

An op's *first* time runs from its start to the first reply of its first
sketch step; its *done* time to the end of its last step.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from data import Reference, canonical
from repro.engine.dataset import FilterMap
from repro.engine.rpc import predicate_from_json, sketch_from_json
from repro.errors import HillviewError
from repro.gateway.client import GatewayWebSocket
from repro.obs.trace import TraceContext
from repro.service import ServiceClient

#: Seconds to wait for any one reply before the op counts as failed.
REPLY_TIMEOUT = 30.0

NEXTK = {
    "type": "nextK",
    "order": [
        {"column": "Airline", "ascending": True},
        {"column": "DepDelay", "ascending": False},
    ],
    "k": 100,
}
HEAVY_HITTERS = {"type": "heavyHitters", "column": "Origin", "k": 20}
DISTINCT = {"type": "distinct", "column": "Dest"}


def histogram(column: str, low: float, high: float, count: int) -> dict:
    return {
        "type": "histogram",
        "column": column,
        "buckets": {"type": "double", "min": low, "max": high, "count": count},
    }


class Reply:
    """A finished request as the client saw it."""

    def __init__(self, first_at, done_s, kind, payload, error, cache, profile):
        self.first_at = first_at  # perf_counter() at the first reply
        self.done_s = done_s
        self.kind = kind
        self.payload = payload
        self.error = error
        self.cache = cache or {}
        self.profile = profile


class TcpConn:
    """The TCP root through :class:`ServiceClient`."""

    wire = "tcp"

    def __init__(self, port: int):
        self.client = ServiceClient("127.0.0.1", port)

    def request(self, method, target, args, trace=None) -> Reply:
        started = time.perf_counter()
        pending = self.client.submit(method, target, args, trace=trace)
        first, last = None, None
        for reply in pending.replies(timeout=REPLY_TIMEOUT):
            if first is None:
                first = time.perf_counter()
            last = reply
        return Reply(
            first,
            time.perf_counter() - started,
            last.kind,
            last.payload,
            last.error,
            last.cache,
            last.profile,
        )

    def close(self) -> None:
        self.client.close()


class WsConn:
    """The gateway through one :class:`GatewayWebSocket` browser client."""

    wire = "ws"

    def __init__(self, port: int):
        self.ws = GatewayWebSocket("127.0.0.1", port, timeout=REPLY_TIMEOUT)
        self.ws.connect()
        self.ids = 0

    def request(self, method, target, args, trace=None) -> Reply:
        self.ids += 1
        started = time.perf_counter()
        self.ws.submit(
            self.ids, method, target, args, trace=trace.to_json() if trace else None
        )
        first, last = None, None
        for message in self.ws.stream(self.ids):
            if first is None:
                first = time.perf_counter()
            last = message
        return Reply(
            first,
            time.perf_counter() - started,
            last.get("kind"),
            last.get("payload"),
            last.get("error"),
            last.get("cache"),
            last.get("profile"),
        )

    def close(self) -> None:
        self.ws.close()


#: What a failed request raises on either wire (timeouts are OSErrors).
REQUEST_ERRORS = (HillviewError, OSError, ValueError)


class Op:
    """One executed op: timings, per-step replies, and its verdict."""

    def __init__(self, steps, trace_id=None):
        self.steps = steps
        self.trace_id = trace_id
        self.first_s = None
        self.done_s = None
        self.sketches: list[tuple[tuple, Reply]] = []
        self.filter_s = None
        self.error = None


def run_op(conn, handle: str, steps: list, spans=None, profile=False) -> Op:
    """Execute one op's steps over ``conn``; never raises for a bad reply."""
    root = TraceContext.new_root() if spans is not None else None
    op = Op(steps, root.trace_id if root else None)
    scope = spans.span if spans is not None else _no_span
    derived = None
    started = time.perf_counter()
    with scope("op", op.trace_id, steps=len(steps)):
        try:
            for step in steps:
                trace = root.child() if root else None
                with scope(f"{conn.wire}.{step[0]}", op.trace_id):
                    if step[0] == "filter":
                        reply = conn.request(
                            "filter", handle, {"predicate": step[1]}, trace
                        )
                        _expect(reply, "ack")
                        derived = reply.payload["handle"]
                        op.filter_s = reply.done_s
                    elif step[0] == "evict":
                        _expect(conn.request("evict", derived, {}, trace), "ack")
                    else:
                        args = {"sketch": step[2]}
                        if profile:
                            args["profile"] = True
                        target = derived if step[1] == "derived" else handle
                        reply = conn.request("sketch", target, args, trace)
                        if op.first_s is None:
                            op.first_s = reply.first_at - started
                        _expect(reply, "complete")
                        op.sketches.append((step, reply))
        except REQUEST_ERRORS as exc:
            op.error = f"{type(exc).__name__}: {exc}"
    op.done_s = time.perf_counter() - started
    return op


def _no_span(*_args, **_kwargs):
    return nullcontext()


def _expect(reply: Reply, kind: str) -> None:
    if reply.kind != kind:
        raise HillviewError(f"{reply.kind} reply: {reply.error}")


class Checker:
    """Compares every sketch result with the in-process reference."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.cache: dict[str, object] = {}

    def expected(self, step: tuple, predicate: dict | None):
        derived = step[1] == "derived"
        rows = self.reference.selection_key(predicate) if derived else None
        key = canonical([step[2], rows])
        if key not in self.cache:
            table_map = None
            if derived:
                table_map = FilterMap(predicate_from_json(predicate))
            self.cache[key] = self.reference.compute(
                sketch_from_json(step[2]), table_map
            )
        return self.cache[key]

    def check(self, op: Op) -> bool:
        """True when the op finished and every result matched."""
        if op.error is not None:
            return False
        predicate = next((s[1] for s in op.steps if s[0] == "filter"), None)
        for step, reply in op.sketches:
            if canonical(reply.payload) != self.expected(step, predicate).text:
                op.error = f"result differs from the reference: {step[2]}"
                return False
        return True


# -- the workloads ----------------------------------------------------------
class ColdScan:
    """Distance histograms whose bucket bounds are new on every query."""

    def __init__(self, rng):
        self.rng = rng
        self.seen: set = set()

    def prime_steps(self) -> list:
        return []

    def next_op(self) -> list:
        while True:
            spec = histogram(
                "Distance",
                round(-float(self.rng.uniform(0.0, 100.0)), 3),
                round(4000.0 + float(self.rng.uniform(0.0, 2000.0)), 3),
                int(self.rng.integers(20, 80)),
            )
            key = canonical(spec)
            if key not in self.seen:
                self.seen.add(key)
                return [("sketch", "base", spec)]


class WarmDashboard:
    """A fixed 8-chart dashboard, primed once, then re-requested whole:
    one op asks for the 8 charts in turn, so *first* is the first chart
    on screen and *done* the whole dashboard."""

    def __init__(self, rng):
        def count() -> int:
            return int(rng.integers(20, 60))

        self.charts = [
            histogram("DepDelay", -30.0, 180.0, count()),
            histogram("ArrDelay", -40.0, 200.0, count()),
            histogram("Distance", 0.0, 5000.0, count()),
            histogram("AirTime", 0.0, 600.0, count()),
            {"type": "heavyHitters", "column": "Airline", "k": 10},
            HEAVY_HITTERS,
            DISTINCT,
            dict(NEXTK, k=20),
        ]

    def prime_steps(self) -> list:
        return [self.next_op()]

    def next_op(self) -> list:
        return [("sketch", "base", chart) for chart in self.charts]


class SpreadsheetOps:
    """filter -> nextK -> heavyHitters -> distinct -> evict, per op."""

    def __init__(self, rng):
        self.rng = rng
        self.seen: set = set()

    def prime_steps(self) -> list:
        return []

    def next_op(self) -> list:
        # DepDelay is generated on a 0.1 grid, so every threshold in
        # (10.0, 10.1) keeps the same rows: constant selectivity, yet a
        # new predicate (and so a new derived dataset) on every op.
        while True:
            threshold = round(10.0 + float(self.rng.uniform(0.001, 0.099)), 9)
            if threshold not in self.seen:
                self.seen.add(threshold)
                break
        predicate = {
            "type": "column",
            "column": "DepDelay",
            "op": ">",
            "value": threshold,
        }
        return [
            ("filter", predicate),
            ("sketch", "derived", NEXTK),
            ("sketch", "derived", HEAVY_HITTERS),
            ("sketch", "derived", DISTINCT),
            ("evict",),
        ]


WORKLOADS = {
    "cold_scan": ColdScan,
    "warm_dashboard": WarmDashboard,
    "spreadsheet_ops": SpreadsheetOps,
}
