"""The JSON wire protocol between the browser UI and the web server (§6).

Hillview's browser talks to the web server over a streaming RPC (WebSockets
carrying JSON messages): queries travel down, progressive partial results
travel up.  This module is that protocol, minus the socket: request/reply
envelopes, JSON codecs for the value objects queries are built from
(buckets, predicates, sort orders), a registry that instantiates vizketches
from their JSON descriptions — the analogue of Java's type-safe query
deserialization — and converters that render every summary type as a JSON
payload the UI can draw.

The transport-free design is deliberate: :class:`~repro.engine.web.WebServer`
streams replies as an iterator of envelopes, which tests (and a real socket
layer) can consume one message at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable

import numpy as np

from repro.core.buckets import (
    Buckets,
    DoubleBuckets,
    ExplicitStringBuckets,
    StringBuckets,
)
from repro.core.serialization import Decoder, Encoder
from repro.core.sketch import Sketch
from repro.errors import HillviewError, SerializationError
from repro.sketches.bottomk import BottomKDistinctSketch, BottomKSummary
from repro.sketches.cdf import CdfSketch
from repro.sketches.find_text import FindResult, FindTextSketch
from repro.sketches.heatmap import HeatmapSketch, HeatmapSummary
from repro.sketches.heavy_hitters import (
    FrequencySummary,
    MisraGriesSketch,
    SampleHeavyHittersSketch,
    canonical_counts,
)
from repro.sketches.histogram import HistogramSketch, HistogramSummary
from repro.sketches.hll import HllSummary, HyperLogLogSketch
from repro.sketches.moments import ColumnStats, MomentsSketch
from repro.sketches.next_items import NextKList, NextKSketch
from repro.sketches.pca import CorrelationSketch, CorrelationSummary
from repro.sketches.quantile import QuantileSummary, SampleQuantileSketch
from repro.sketches.save import SaveStatus, SaveTableSketch
from repro.sketches.stacked import StackedHistogramSketch, StackedHistogramSummary
from repro.sketches.trellis import (
    TrellisHeatmapSketch,
    TrellisHistogramSketch,
    TrellisHistogramSummary,
    TrellisSummary,
)
from repro.table.compute import (
    AndPredicate,
    ColumnPredicate,
    NotPredicate,
    OrPredicate,
    Predicate,
    StringMatchPredicate,
)
from repro.table.sort import RecordOrder, RowKey


class ProtocolError(HillviewError):
    """A malformed or unsupported RPC message."""

    code = "protocol"


class UnknownHandleError(ProtocolError):
    """A request referenced a remote object handle nobody knows.

    Distinguished from other protocol errors because a shared service
    loop treats it as a *client* mistake: the error envelope carries the
    ``unknown_handle`` code and the session stays alive (§5.2).
    """

    code = "unknown_handle"


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------
@dataclass
class RpcRequest:
    """One client command: run ``method`` against remote object ``target``.

    ``trace``, when present, is the request's :class:`TraceContext` as
    JSON (``{"traceId", "spanId", "parentId"}``): the same optional
    field on both wires is how one trace covers a whole fan-out.  It is
    only serialized when set, so untraced requests stay byte-identical
    to the pre-tracing wire format.

    ``attachment`` is an optional binary blob riding the same frame
    (see :func:`encode_envelope`); it never appears in the JSON header.
    """

    request_id: int
    target: str
    method: str
    args: dict = field(default_factory=dict)
    trace: dict | None = None
    attachment: bytes | None = None

    def to_json(self) -> str:
        data: dict = {
            "requestId": self.request_id,
            "target": self.target,
            "method": self.method,
            "args": self.args,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "RpcRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from exc
        for key in ("requestId", "target", "method"):
            if key not in data:
                raise ProtocolError(f"request missing {key!r}")
        return cls(
            request_id=int(data["requestId"]),
            target=str(data["target"]),
            method=str(data["method"]),
            args=dict(data.get("args") or {}),
            trace=data.get("trace"),
        )

    def to_frame(self) -> bytes:
        """This request as one wire frame (JSON, or binary if attached)."""
        return encode_envelope(self.to_json(), self.attachment)

    @classmethod
    def from_frame(cls, frame: bytes) -> "RpcRequest":
        """Inverse of :meth:`to_frame` for either envelope flavor."""
        text, attachment = split_envelope(frame)
        request = cls.from_json(text)
        request.attachment = attachment
        return request


class _NoPayload:
    """Sentinel distinguishing "no payload key" from an explicit null.

    A ``complete`` envelope whose payload is legitimately ``None`` (a sketch
    that streamed nothing) must not decode identically to an ``ack`` that
    never had a payload; encoding via this sentinel keeps the two apart on
    the wire.  Falsy, singleton, and survives copy/pickle as itself.
    """

    _instance: "_NoPayload | None" = None

    def __new__(cls) -> "_NoPayload":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<no payload>"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_NoPayload, ())


NO_PAYLOAD = _NoPayload()


@dataclass
class RpcReply:
    """One server message: a partial/final payload, an ack, or an error.

    ``kind`` is ``partial`` (progressive update), ``complete`` (the final
    payload; exactly one per successful request), ``ack`` (map operations:
    carries the new remote handle), ``cancelled`` or ``error``.

    ``code`` is a short machine-readable tag qualifying error and
    cancellation envelopes (``protocol``, ``unknown_handle``, ``internal``,
    ``superseded``, ...) so clients dispatch without parsing messages.

    ``payload`` defaults to :data:`NO_PAYLOAD` (the envelope carries no
    payload key at all); pass ``None`` explicitly to send a null payload.

    ``cache``, when present on a terminal sketch reply, is the query's
    cache telemetry: ``{"hit": bool, "workerHits": int}`` — whether the
    result came whole from the root's computation cache, and how many
    workers served their partial from their own memo tier.  It rides the
    envelope, never the payload, so byte-identity of *results* across
    roots is unaffected by which root happened to be warm.

    ``profile``, present only on the terminal reply of a sketch request
    that asked for it (``args: {"profile": true}``), is the query's
    per-stage breakdown: queue wait, fan-out, per-worker stream timings,
    root merge, and the straggler.  Like ``cache``, it rides the
    envelope and is only serialized when set.

    ``attachment`` is an optional binary blob riding the same frame
    (see :func:`encode_envelope`); it never appears in the JSON header.
    """

    request_id: int
    kind: str
    progress: float = 1.0
    payload: object | None = NO_PAYLOAD
    error: str | None = None
    code: str | None = None
    cache: dict | None = None
    profile: dict | None = None
    attachment: bytes | None = None

    def to_json(self) -> str:
        data: dict = {
            "requestId": self.request_id,
            "kind": self.kind,
            "progress": round(self.progress, 6),
        }
        if self.payload is not NO_PAYLOAD:
            data["payload"] = self.payload
        if self.error is not None:
            data["error"] = self.error
        if self.code is not None:
            data["code"] = self.code
        if self.cache is not None:
            data["cache"] = self.cache
        if self.profile is not None:
            data["profile"] = self.profile
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "RpcReply":
        data = json.loads(text)
        return cls(
            request_id=int(data["requestId"]),
            kind=str(data["kind"]),
            progress=float(data.get("progress", 1.0)),
            payload=data["payload"] if "payload" in data else NO_PAYLOAD,
            error=data.get("error"),
            code=data.get("code"),
            cache=data.get("cache"),
            profile=data.get("profile"),
        )

    def to_frame(self) -> bytes:
        """This reply as one wire frame (JSON, or binary if attached)."""
        return encode_envelope(self.to_json(), self.attachment)

    @classmethod
    def from_frame(cls, frame: bytes) -> "RpcReply":
        """Inverse of :meth:`to_frame` for either envelope flavor."""
        text, attachment = split_envelope(frame)
        reply = cls.from_json(text)
        reply.attachment = attachment
        return reply


# ---------------------------------------------------------------------------
# Cell values: JSON-safe encoding for dates and numpy scalars
# ---------------------------------------------------------------------------
def cell_to_json(value: object | None) -> object | None:
    """One table cell as a JSON-representable value."""
    if value is None:
        return None
    if isinstance(value, datetime):
        return {"$date": value.isoformat()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def cell_from_json(value: object | None) -> object | None:
    """Inverse of :func:`cell_to_json`."""
    if isinstance(value, dict) and "$date" in value:
        return datetime.fromisoformat(value["$date"])
    return value


#: Reply kinds that terminate one request's reply stream; shared by
#: every endpoint of both wires.
TERMINAL_REPLY_KINDS = frozenset({"ack", "complete", "cancelled", "error"})

#: Every machine-readable ``code`` an error or cancellation envelope can
#: carry on the TCP wires (client<->root and root<->worker), with the
#: condition it names.  This registry is the single source of truth the
#: protocol documentation is checked against (``tests/test_docs.py``
#: fails if ``docs/PROTOCOL.md`` documents a code that is not here, or
#: omits one that is).
WIRE_ERROR_CODES: dict[str, str] = {
    "protocol": "the request was malformed or used an unknown method",
    "unknown_handle": (
        "the request referenced a remote object handle nobody knows; "
        "the session stays alive"
    ),
    "engine": "a generic engine failure (the HillviewError default)",
    "internal": "an unexpected exception was shielded by the service loop",
    "cancelled": "the computation was cancelled by the client",
    "superseded": (
        "the sketch was preempted by a newer one from the same session "
        "(newest-query-wins)"
    ),
    "session_closed": (
        "a queued query was finalized because its session closed or expired"
    ),
    "overloaded": "admission control rejected the request (backlog full)",
    "draining": (
        "this root is in maintenance drain and refuses new sessions; "
        "reconnect through the director to another root"
    ),
    "worker_draining": (
        "the worker is draining (SIGTERM) and refuses state-creating RPCs"
    ),
    "stale_placement": (
        "the request carried an outdated placement version; re-read "
        "placements and retry (retryable)"
    ),
    "placement_conflict": (
        "a root tried to re-slice shards of an already-placed fleet"
    ),
    "worker_unavailable": (
        "a worker process died or its connection broke mid-request"
    ),
    "connection": "the connection was lost or delivered an unreadable frame",
    "framing": "a malformed, oversized, or truncated wire frame",
    "session_store": "the shared session store failed",
}


# ---------------------------------------------------------------------------
# Frame envelopes: JSON headers with optional binary attachments
# ---------------------------------------------------------------------------
# A frame is either pure JSON (first byte ``{``, the historical wire) or a
# binary envelope (first byte 0x00, which no JSON text can start with):
#
#     0x00 | uvarint header-length | header JSON (UTF-8) | attachment
#
# The attachment is simply the rest of the frame — bulk payloads (hvc
# table bytes, Encoder-framed summaries) travel as raw bytes instead of
# base64-inside-JSON, while control metadata stays readable JSON.  The
# framing layer (``core/framing.py``) is payload-agnostic and unchanged.

_BINARY_ENVELOPE = 0


def encode_envelope(header_json: str, attachment: bytes | None = None) -> bytes:
    """One wire frame from a JSON header and an optional attachment."""
    raw = header_json.encode("utf-8")
    if attachment is None:
        return raw
    enc = Encoder()
    enc.write_bytes(raw)
    return bytes([_BINARY_ENVELOPE]) + enc.to_bytes() + bytes(attachment)


def split_envelope(frame: bytes) -> tuple[str, bytes | None]:
    """Inverse of :func:`encode_envelope`: ``(header_json, attachment)``."""
    if not frame or frame[0] != _BINARY_ENVELOPE:
        return frame.decode("utf-8"), None
    dec = Decoder(frame)
    dec.read_uvarint()  # the 0x00 discriminator
    header = dec.read_bytes().decode("utf-8")
    return header, bytes(frame[len(frame) - dec.remaining :])


def encode_blobs(blobs: list[bytes]) -> bytes | None:
    """One attachment carrying a list of bulk payloads (hvc shard bytes,
    tagged summaries), one per entry of the JSON header's list, in order:

        uvarint count | count x (uvarint length | bytes)

    An empty list travels as no attachment at all.
    """
    if not blobs:
        return None
    enc = Encoder()
    enc.write_uvarint(len(blobs))
    for blob in blobs:
        enc.write_bytes(blob)
    return enc.to_bytes()


def decode_blobs(
    attachment: bytes | None, count: int, where: str
) -> list[bytes]:
    """Inverse of :func:`encode_blobs`, checked against the ``count``
    entries of the header's list.  A missing, short, long or truncated
    attachment raises :class:`ProtocolError` naming ``where``: every
    header entry pairs with exactly one payload, or the frame is refused.
    """
    blobs: list[bytes] = []
    if attachment is not None:
        dec = Decoder(attachment)
        try:
            blobs = [dec.read_bytes() for _ in range(dec.read_uvarint())]
        except SerializationError as exc:
            raise ProtocolError(f"{where} attachment is truncated") from exc
        if dec.remaining:
            raise ProtocolError(
                f"{where} attachment has {dec.remaining} trailing bytes"
            )
    if len(blobs) != count:
        raise ProtocolError(
            f"{where} attachment carries {len(blobs)} payloads "
            f"for {count} entries"
        )
    return blobs


def call_once(
    rfile,
    wfile,
    request_id: int,
    method: str,
    args: dict | None = None,
    *,
    where: str = "peer",
    attachment: bytes | None = None,
) -> "RpcReply":
    """One framed request over an already-open connection, blocking for
    its terminal reply (non-terminal frames are drained and discarded).

    The shared primitive behind every *one-shot* exchange on either wire
    — health probes, drain commands, worker-to-worker shard pushes,
    fleet status sweeps — so framing and terminal-kind handling live in
    exactly one place.  ``attachment`` rides the request frame as a
    binary envelope (see :func:`encode_envelope`).  Raises
    ``ConnectionError`` if the peer closes mid-call; error *replies* are
    returned, not raised (callers decide).
    """
    from repro.core.framing import FrameError, read_frame_blocking, write_frame

    request = RpcRequest(request_id, "", method, args or {})
    request.attachment = attachment
    write_frame(wfile, request.to_frame())
    while True:
        frame = read_frame_blocking(rfile, error=FrameError)
        if frame is None:
            raise ConnectionError(f"{where} closed during {method!r}")
        reply = RpcReply.from_frame(frame)
        if reply.kind in TERMINAL_REPLY_KINDS:
            return reply


# ---------------------------------------------------------------------------
# Value-object codecs: buckets, predicates, sort orders
# ---------------------------------------------------------------------------
def buckets_to_json(buckets: Buckets) -> dict:
    if isinstance(buckets, DoubleBuckets):
        return {
            "type": "double",
            "min": buckets.min_value,
            "max": buckets.max_value,
            "count": buckets.count,
        }
    if isinstance(buckets, StringBuckets):
        return {"type": "string_ranges", "boundaries": list(buckets.boundaries)}
    if isinstance(buckets, ExplicitStringBuckets):
        return {"type": "strings", "values": list(buckets.values)}
    raise ProtocolError(f"cannot encode buckets of type {type(buckets).__name__}")


def buckets_from_json(data: dict) -> Buckets:
    kind = data.get("type")
    if kind == "double":
        return DoubleBuckets(
            float(data["min"]), float(data["max"]), int(data["count"])
        )
    if kind == "string_ranges":
        return StringBuckets([str(b) for b in data["boundaries"]])
    if kind == "strings":
        return ExplicitStringBuckets([str(v) for v in data["values"]])
    raise ProtocolError(f"unknown buckets type {kind!r}")


def predicate_to_json(predicate: Predicate) -> dict:
    if isinstance(predicate, ColumnPredicate):
        value = predicate.value
        if isinstance(value, (list, tuple, set, frozenset)):
            value = [cell_to_json(v) for v in value]
        else:
            value = cell_to_json(value)
        return {
            "type": "column",
            "column": predicate.column,
            "op": predicate.op,
            "value": value,
        }
    if isinstance(predicate, StringMatchPredicate):
        return {
            "type": "match",
            "column": predicate.column,
            "pattern": predicate.pattern,
            "mode": predicate.mode,
            "caseSensitive": predicate.case_sensitive,
        }
    if isinstance(predicate, AndPredicate):
        return {"type": "and", "parts": [predicate_to_json(p) for p in predicate.parts]}
    if isinstance(predicate, OrPredicate):
        return {"type": "or", "parts": [predicate_to_json(p) for p in predicate.parts]}
    if isinstance(predicate, NotPredicate):
        return {"type": "not", "inner": predicate_to_json(predicate.inner)}
    raise ProtocolError(
        f"cannot encode predicate of type {type(predicate).__name__}"
    )


def predicate_from_json(data: dict) -> Predicate:
    kind = data.get("type")
    if kind == "column":
        value = data.get("value")
        if isinstance(value, list):
            value = [cell_from_json(v) for v in value]
        else:
            value = cell_from_json(value)
        return ColumnPredicate(str(data["column"]), str(data["op"]), value)
    if kind == "match":
        return StringMatchPredicate(
            str(data["column"]),
            str(data["pattern"]),
            str(data.get("mode", "substring")),
            bool(data.get("caseSensitive", True)),
        )
    if kind == "and":
        return AndPredicate(predicate_from_json(p) for p in data["parts"])
    if kind == "or":
        return OrPredicate(predicate_from_json(p) for p in data["parts"])
    if kind == "not":
        return NotPredicate(predicate_from_json(data["inner"]))
    raise ProtocolError(f"unknown predicate type {kind!r}")


def order_to_json(order: RecordOrder) -> list[dict]:
    return [
        {"column": o.column, "ascending": o.ascending} for o in order.orientations
    ]


def order_from_json(data: list) -> RecordOrder:
    if not isinstance(data, list) or not data:
        raise ProtocolError("sort order must be a non-empty list")
    columns = [str(item["column"]) for item in data]
    flags = [bool(item.get("ascending", True)) for item in data]
    return RecordOrder.of(*columns, ascending=flags)


def _start_key(data: dict, order: RecordOrder) -> RowKey | None:
    start = data.get("start")
    if start is None:
        return None
    values = tuple(cell_from_json(v) for v in start)
    return order.key_from_values(values)


# ---------------------------------------------------------------------------
# Sketch registry: JSON spec -> vizketch instance
# ---------------------------------------------------------------------------
def _build_histogram(args: dict) -> Sketch:
    return HistogramSketch(
        str(args["column"]),
        buckets_from_json(args["buckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _build_cdf(args: dict) -> Sketch:
    return CdfSketch(
        str(args["column"]),
        buckets_from_json(args["buckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _build_heatmap(args: dict) -> Sketch:
    return HeatmapSketch(
        str(args["xColumn"]),
        buckets_from_json(args["xBuckets"]),
        str(args["yColumn"]),
        buckets_from_json(args["yBuckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _build_stacked(args: dict) -> Sketch:
    return StackedHistogramSketch(
        str(args["xColumn"]),
        buckets_from_json(args["xBuckets"]),
        str(args["yColumn"]),
        buckets_from_json(args["yBuckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _group2(args: dict) -> dict:
    if "group2Column" not in args:
        return {"group2_column": None, "group2_buckets": None}
    return {
        "group2_column": str(args["group2Column"]),
        "group2_buckets": buckets_from_json(args["group2Buckets"]),
    }


def _build_trellis_heatmap(args: dict) -> Sketch:
    return TrellisHeatmapSketch(
        str(args["groupColumn"]),
        buckets_from_json(args["groupBuckets"]),
        str(args["xColumn"]),
        buckets_from_json(args["xBuckets"]),
        str(args["yColumn"]),
        buckets_from_json(args["yBuckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
        **_group2(args),
    )


def _build_trellis_histogram(args: dict) -> Sketch:
    return TrellisHistogramSketch(
        str(args["groupColumn"]),
        buckets_from_json(args["groupBuckets"]),
        str(args["xColumn"]),
        buckets_from_json(args["xBuckets"]),
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
        **_group2(args),
    )


def _build_moments(args: dict) -> Sketch:
    return MomentsSketch(str(args["column"]), moments=int(args.get("moments", 2)))


def _build_distinct(args: dict) -> Sketch:
    return HyperLogLogSketch(
        str(args["column"]),
        precision=int(args.get("precision", 12)),
        seed=int(args.get("seed", 0)),
    )


def _build_heavy_hitters(args: dict) -> Sketch:
    method = str(args.get("method", "streaming"))
    if method == "streaming":
        return MisraGriesSketch(str(args["column"]), int(args["k"]))
    if method == "sampling":
        return SampleHeavyHittersSketch(
            str(args["column"]),
            int(args["k"]),
            rate=float(args.get("rate", 1.0)),
            seed=int(args.get("seed", 0)),
        )
    raise ProtocolError(f"unknown heavy-hitters method {method!r}")


def _build_next_k(args: dict) -> Sketch:
    order = order_from_json(args["order"])
    return NextKSketch(
        order,
        int(args.get("k", 20)),
        start_key=_start_key(args, order),
        inclusive=bool(args.get("inclusive", False)),
    )


def _build_quantile(args: dict) -> Sketch:
    order = order_from_json(args["order"])
    return SampleQuantileSketch(
        order,
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _build_find(args: dict) -> Sketch:
    order = order_from_json(args["order"])
    predicate = predicate_from_json(args["match"])
    if not isinstance(predicate, StringMatchPredicate):
        raise ProtocolError("find requires a string-match predicate")
    return FindTextSketch(predicate, order, start_key=_start_key(args, order))


def _build_correlation(args: dict) -> Sketch:
    columns = args["columns"]
    if not isinstance(columns, list) or len(columns) < 2:
        raise ProtocolError("correlation needs a list of >= 2 columns")
    return CorrelationSketch(
        [str(c) for c in columns],
        rate=float(args.get("rate", 1.0)),
        seed=int(args.get("seed", 0)),
    )


def _build_save(args: dict) -> Sketch:
    return SaveTableSketch(
        str(args["directory"]),
        format=str(args.get("format", "hvc")),
    )


def _build_bottom_k(args: dict) -> Sketch:
    return BottomKDistinctSketch(
        str(args["column"]),
        k=int(args.get("k", 500)),
        seed=int(args.get("seed", 0)),
    )


#: Sketch type tag -> builder; the JSON analogue of Java query deserialization.
SKETCH_BUILDERS: dict[str, Callable[[dict], Sketch]] = {
    "histogram": _build_histogram,
    "cdf": _build_cdf,
    "heatmap": _build_heatmap,
    "stacked": _build_stacked,
    "trellisHeatmap": _build_trellis_heatmap,
    "trellisHistogram": _build_trellis_histogram,
    "moments": _build_moments,
    "distinct": _build_distinct,
    "heavyHitters": _build_heavy_hitters,
    "nextK": _build_next_k,
    "quantile": _build_quantile,
    "find": _build_find,
    "bottomK": _build_bottom_k,
    "correlation": _build_correlation,
    "save": _build_save,
}


def sketch_from_json(spec: dict) -> Sketch:
    """Instantiate the vizketch described by a JSON spec."""
    kind = spec.get("type")
    builder = SKETCH_BUILDERS.get(str(kind))
    if builder is None:
        raise ProtocolError(f"unknown sketch type {kind!r}")
    try:
        return builder(spec)
    except KeyError as exc:
        raise ProtocolError(f"sketch {kind!r} missing argument {exc}") from exc


# ---------------------------------------------------------------------------
# Summary -> JSON payloads
# ---------------------------------------------------------------------------
def _histogram_payload(s: HistogramSummary) -> dict:
    return {
        "type": "histogram",
        "counts": s.counts.tolist(),
        "missing": s.missing,
        "outOfRange": s.out_of_range,
        "sampledRows": s.sampled_rows,
    }


def _heatmap_payload(s: HeatmapSummary) -> dict:
    return {
        "type": "heatmap",
        "counts": s.counts.tolist(),
        "xMissing": s.x_missing,
        "yMissing": s.y_missing,
        "outOfRange": s.out_of_range,
        "sampledRows": s.sampled_rows,
    }


def _stacked_payload(s: StackedHistogramSummary) -> dict:
    return {
        "type": "stacked",
        "barCounts": s.bar_counts.tolist(),
        "cellCounts": s.cell_counts.tolist(),
        "yMissing": s.y_missing.tolist(),
        "missing": s.missing,
        "outOfRange": s.out_of_range,
        "sampledRows": s.sampled_rows,
    }


def _trellis_payload(s: TrellisSummary) -> dict:
    return {
        "type": "trellisHeatmap",
        "panes": [_heatmap_payload(p) for p in s.panes],
        "groupMissing": s.group_missing,
        "groupOutOfRange": s.group_out_of_range,
        "sampledRows": s.sampled_rows,
    }


def _trellis_histogram_payload(s: TrellisHistogramSummary) -> dict:
    return {
        "type": "trellisHistogram",
        "panes": [_histogram_payload(p) for p in s.panes],
        "groupMissing": s.group_missing,
        "groupOutOfRange": s.group_out_of_range,
        "sampledRows": s.sampled_rows,
    }


def _stats_payload(s: ColumnStats) -> dict:
    return {
        "type": "columnStats",
        "presentCount": s.present_count,
        "missingCount": s.missing_count,
        "min": cell_to_json(s.min_value),
        "max": cell_to_json(s.max_value),
        "powerSums": list(s.power_sums),
    }


def _next_k_payload(s: NextKList) -> dict:
    return {
        "type": "nextK",
        "order": order_to_json(s.order),
        "rows": [[cell_to_json(v) for v in values] for values in s.rows],
        "counts": list(s.counts),
        "preceding": s.preceding,
        "scanned": s.scanned,
    }


def _frequency_payload(s: FrequencySummary) -> dict:
    # canonical_counts, not .items(): the JSON wire must be as merge-
    # order-independent as the binary encode path (same PR 7 bug class).
    return {
        "type": "frequencies",
        "counts": [
            [cell_to_json(value), count]
            for value, count in canonical_counts(s.counts)
        ],
        "errorBound": s.error_bound,
        "scanned": s.scanned,
    }


def _hll_payload(s: HllSummary) -> dict:
    # The UI reads "estimate"; "registers"/"missing" carry the raw sketch
    # and are part of the client payload contract.
    return {
        "type": "distinct",
        "estimate": s.estimate(),
        "registers": s.registers.tolist(),
        "missing": s.missing,
    }


def _quantile_payload(s: QuantileSummary) -> dict:
    return {
        "type": "quantile",
        "order": order_to_json(s.order),
        "samples": [[cell_to_json(v) for v in values] for values in s.samples],
        "scanned": s.scanned,
    }


def _find_payload(s: FindResult) -> dict:
    return {
        "type": "find",
        "order": order_to_json(s.order),
        "firstMatch": (
            None
            if s.first_match is None
            else [cell_to_json(v) for v in s.first_match]
        ),
        "matchesBefore": s.matches_before,
        "matchesAfter": s.matches_after,
    }


def _bottom_k_payload(s: BottomKSummary) -> dict:
    # "values"/"saturated" feed the UI; "k"/"entries"/"missing" carry the
    # raw sample and are part of the client payload contract.
    return {
        "type": "bottomK",
        "values": s.values_sorted(),
        "saturated": s.saturated,
        "k": s.k,
        "entries": [[hash_value, value] for hash_value, value in s.entries],
        "missing": s.missing,
    }


def _correlation_payload(s: CorrelationSummary) -> dict:
    return {
        "type": "correlation",
        "columns": list(s.columns),
        "count": s.count,
        "sums": s.sums.tolist(),
        "products": s.products.tolist(),
    }


def _save_payload(s: SaveStatus) -> dict:
    return {
        "type": "saveStatus",
        "files": list(s.files),
        "rowsWritten": s.rows_written,
        "errors": list(s.errors),
    }


_PAYLOADS: list[tuple[type, Callable]] = [
    (StackedHistogramSummary, _stacked_payload),
    (TrellisSummary, _trellis_payload),
    (TrellisHistogramSummary, _trellis_histogram_payload),
    (HeatmapSummary, _heatmap_payload),
    (HistogramSummary, _histogram_payload),
    (ColumnStats, _stats_payload),
    (NextKList, _next_k_payload),
    (FrequencySummary, _frequency_payload),
    (HllSummary, _hll_payload),
    (QuantileSummary, _quantile_payload),
    (FindResult, _find_payload),
    (BottomKSummary, _bottom_k_payload),
    (CorrelationSummary, _correlation_payload),
    (SaveStatus, _save_payload),
]


def summary_to_json(summary: object) -> dict:
    """Render any summary as the JSON payload the UI consumes."""
    for cls, converter in _PAYLOADS:
        if isinstance(summary, cls):
            return converter(summary)
    raise ProtocolError(
        f"no JSON payload for summary type {type(summary).__name__}"
    )


# ---------------------------------------------------------------------------
# Binary summary codec: the hot path of the worker wire
# ---------------------------------------------------------------------------
# Sketch partials travel root<->worker as each summary's own Encoder
# format (the codec every summary already defines for byte accounting),
# prefixed with the payload type tag so the receiver knows which decoder
# to run.  The tags are the "type" strings of the client JSON payloads,
# so traces and logs name a summary identically on every wire.

#: Payload "type" tag -> summary class.
SUMMARY_CODECS: dict[str, type] = {
    "histogram": HistogramSummary,
    "heatmap": HeatmapSummary,
    "stacked": StackedHistogramSummary,
    "trellisHeatmap": TrellisSummary,
    "trellisHistogram": TrellisHistogramSummary,
    "columnStats": ColumnStats,
    "nextK": NextKList,
    "frequencies": FrequencySummary,
    "distinct": HllSummary,
    "quantile": QuantileSummary,
    "find": FindResult,
    "bottomK": BottomKSummary,
    "correlation": CorrelationSummary,
    "saveStatus": SaveStatus,
}

#: Exact-type reverse lookup (no isinstance walk: summary types on the
#: wire are always the concrete classes above).
_SUMMARY_TAG_BY_TYPE: dict[type, str] = {
    cls: tag for tag, cls in SUMMARY_CODECS.items()
}


def summary_tag(summary: object) -> str:
    """The payload type tag of ``summary`` (its JSON payload's "type")."""
    tag = _SUMMARY_TAG_BY_TYPE.get(type(summary))
    if tag is None:
        raise ProtocolError(
            f"no binary codec for summary type {type(summary).__name__}"
        )
    return tag


def summary_to_bytes(summary: object) -> bytes:
    """Encode any summary as a tagged binary attachment."""
    enc = Encoder()
    enc.write_str(summary_tag(summary))
    summary.encode(enc)  # type: ignore[attr-defined]
    return enc.to_bytes()


def summary_from_bytes(payload: bytes) -> object:
    """Inverse of :func:`summary_to_bytes`."""
    dec = Decoder(payload)
    tag = dec.read_str()
    cls = SUMMARY_CODECS.get(tag or "")
    if cls is None:
        raise ProtocolError(f"unknown binary summary tag {tag!r}")
    return cls.decode(dec)


# ---------------------------------------------------------------------------
# Sketch -> JSON spec: the inverse of SKETCH_BUILDERS
# ---------------------------------------------------------------------------
def _start_to_json(sketch) -> dict:
    if sketch.start_key is None:
        return {}
    # repro: ignore[D002] — start_key insertion order IS canonical: it mirrors the RecordOrder column order, not merge arrival
    return {"start": [cell_to_json(v) for v in sketch.start_key.values()]}


def _group2_to_json(sketch) -> dict:
    if sketch.group2_column is None:
        return {}
    return {
        "group2Column": sketch.group2_column,
        "group2Buckets": buckets_to_json(sketch.group2_buckets),
    }


def _encode_histogram(s: HistogramSketch) -> dict:
    return {
        "type": "histogram",
        "column": s.column,
        "buckets": buckets_to_json(s.buckets),
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_cdf(s: CdfSketch) -> dict:
    return {**_encode_histogram(s), "type": "cdf"}


def _encode_heatmap(s: HeatmapSketch) -> dict:
    return {
        "type": "heatmap",
        "xColumn": s.x_column,
        "xBuckets": buckets_to_json(s.x_buckets),
        "yColumn": s.y_column,
        "yBuckets": buckets_to_json(s.y_buckets),
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_stacked(s: StackedHistogramSketch) -> dict:
    return {
        "type": "stacked",
        "xColumn": s.x_column,
        "xBuckets": buckets_to_json(s.x_buckets),
        "yColumn": s.y_column,
        "yBuckets": buckets_to_json(s.y_buckets),
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_trellis_heatmap(s: TrellisHeatmapSketch) -> dict:
    return {
        "type": "trellisHeatmap",
        "groupColumn": s.group_column,
        "groupBuckets": buckets_to_json(s.group_buckets),
        "xColumn": s.x_column,
        "xBuckets": buckets_to_json(s.x_buckets),
        "yColumn": s.y_column,
        "yBuckets": buckets_to_json(s.y_buckets),
        "rate": s.rate,
        "seed": s.seed,
        **_group2_to_json(s),
    }


def _encode_trellis_histogram(s: TrellisHistogramSketch) -> dict:
    return {
        "type": "trellisHistogram",
        "groupColumn": s.group_column,
        "groupBuckets": buckets_to_json(s.group_buckets),
        "xColumn": s.x_column,
        "xBuckets": buckets_to_json(s.x_buckets),
        "rate": s.rate,
        "seed": s.seed,
        **_group2_to_json(s),
    }


def _encode_moments(s: MomentsSketch) -> dict:
    return {"type": "moments", "column": s.column, "moments": s.moments}


def _encode_distinct(s: HyperLogLogSketch) -> dict:
    return {
        "type": "distinct",
        "column": s.column,
        "precision": s.precision,
        "seed": s.seed,
    }


def _encode_misra_gries(s: MisraGriesSketch) -> dict:
    return {
        "type": "heavyHitters",
        "method": "streaming",
        "column": s.column,
        "k": s.k,
    }


def _encode_sample_heavy_hitters(s: SampleHeavyHittersSketch) -> dict:
    return {
        "type": "heavyHitters",
        "method": "sampling",
        "column": s.column,
        "k": s.k,
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_next_k(s: NextKSketch) -> dict:
    return {
        "type": "nextK",
        "order": order_to_json(s.order),
        "k": s.k,
        "inclusive": s.inclusive,
        **_start_to_json(s),
    }


def _encode_quantile(s: SampleQuantileSketch) -> dict:
    return {
        "type": "quantile",
        "order": order_to_json(s.order),
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_find(s: FindTextSketch) -> dict:
    return {
        "type": "find",
        "order": order_to_json(s.order),
        "match": predicate_to_json(s.predicate),
        **_start_to_json(s),
    }


def _encode_bottom_k(s: BottomKDistinctSketch) -> dict:
    return {"type": "bottomK", "column": s.column, "k": s.k, "seed": s.seed}


def _encode_correlation(s: CorrelationSketch) -> dict:
    return {
        "type": "correlation",
        "columns": list(s.columns),
        "rate": s.rate,
        "seed": s.seed,
    }


def _encode_save(s: SaveTableSketch) -> dict:
    return {"type": "save", "directory": s.directory, "format": s.format}


#: Sketch class -> JSON spec encoder, checked in order (subclasses first:
#: CdfSketch extends HistogramSketch).  Extensible: service-level sketch
#: types (e.g. "slow") append their own entries at import time, mirroring
#: how they register in SKETCH_BUILDERS.
SKETCH_ENCODERS: list[tuple[type, Callable[[Sketch], dict]]] = [
    (CdfSketch, _encode_cdf),
    (HistogramSketch, _encode_histogram),
    (HeatmapSketch, _encode_heatmap),
    (StackedHistogramSketch, _encode_stacked),
    (TrellisHeatmapSketch, _encode_trellis_heatmap),
    (TrellisHistogramSketch, _encode_trellis_histogram),
    (MomentsSketch, _encode_moments),
    (HyperLogLogSketch, _encode_distinct),
    (MisraGriesSketch, _encode_misra_gries),
    (SampleHeavyHittersSketch, _encode_sample_heavy_hitters),
    (NextKSketch, _encode_next_k),
    (SampleQuantileSketch, _encode_quantile),
    (FindTextSketch, _encode_find),
    (BottomKDistinctSketch, _encode_bottom_k),
    (CorrelationSketch, _encode_correlation),
    (SaveTableSketch, _encode_save),
]


def sketch_to_json(sketch: Sketch) -> dict:
    """Encode a sketch as the JSON spec :func:`sketch_from_json` accepts.

    The root uses this to broadcast queries to worker processes: any sketch
    the engine can run locally travels the wire as the same spec a browser
    would submit.
    """
    for cls, encoder in SKETCH_ENCODERS:
        if type(sketch) is cls:
            return encoder(sketch)
    # Fall back to subclass matching for sketch types registered by other
    # modules (exact-type pass first so e.g. Cdf does not match Histogram).
    for cls, encoder in SKETCH_ENCODERS:
        if isinstance(sketch, cls):
            return encoder(sketch)
    raise ProtocolError(
        f"cannot encode sketch of type {type(sketch).__name__}"
    )


# ---------------------------------------------------------------------------
# Table maps and data sources: the lineage codecs (§5.7 over a real wire)
# ---------------------------------------------------------------------------
def table_map_to_json(table_map) -> dict:
    """Encode a declarative table map for replay on a remote worker."""
    from repro.engine.dataset import ExpressionMap, FilterMap, ProjectMap

    if isinstance(table_map, FilterMap):
        return {"type": "filter", "predicate": predicate_to_json(table_map.predicate)}
    if isinstance(table_map, ProjectMap):
        return {"type": "project", "columns": list(table_map.columns)}
    if isinstance(table_map, ExpressionMap):
        return {
            "type": "expression",
            "name": table_map.name,
            "expression": table_map.expression,
        }
    raise ProtocolError(
        f"table map {type(table_map).__name__} carries a Python callable and "
        "cannot cross a process boundary; use an expression map instead"
    )


def table_map_from_json(data: dict):
    """Inverse of :func:`table_map_to_json`."""
    from repro.engine.dataset import ExpressionMap, FilterMap, ProjectMap

    kind = data.get("type")
    if kind == "filter":
        return FilterMap(predicate_from_json(data["predicate"]))
    if kind == "project":
        return ProjectMap([str(c) for c in data["columns"]])
    if kind == "expression":
        return ExpressionMap(str(data["name"]), str(data["expression"]))
    raise ProtocolError(f"unknown table map type {kind!r}")


def source_to_json(source) -> dict:
    """Encode a data source so a worker process can (re)load it itself.

    Only *reloadable-by-description* sources can cross a process boundary;
    an in-memory :class:`~repro.storage.loader.TableSource` cannot, which is
    exactly the paper's constraint that lineage must bottom out at a load
    from the storage layer (§5.7).
    """
    from repro.data.flights import FlightsSource
    from repro.storage.loader import (
        ColumnarDatasetSource,
        CsvSource,
        JsonlSource,
        SqlSource,
        SyslogSource,
    )

    if isinstance(source, FlightsSource):
        return {
            "kind": "flights",
            "rows": source.total_rows,
            "partitions": source.partitions,
            "seed": source.seed,
            "extraColumns": source.extra_columns,
        }
    if isinstance(source, CsvSource):
        return {"kind": "csv", "pattern": source.pattern}
    if isinstance(source, JsonlSource):
        return {"kind": "jsonl", "pattern": source.pattern}
    if isinstance(source, SyslogSource):
        return {"kind": "syslog", "pattern": source.pattern}
    if isinstance(source, SqlSource):
        return {
            "kind": "sql",
            "path": source.db_path,
            "table": source.table,
            "partitions": source.partitions,
        }
    if isinstance(source, ColumnarDatasetSource):
        return {"kind": "hvc", "directory": source.directory}
    raise ProtocolError(
        f"data source {type(source).__name__} is not reloadable by "
        "description and cannot cross a process boundary (§5.7: lineage "
        "must end at a load from the storage layer)"
    )


def source_from_json(data: dict):
    """Inverse of :func:`source_to_json`."""
    from repro.data.flights import FlightsSource
    from repro.storage.loader import (
        ColumnarDatasetSource,
        CsvSource,
        JsonlSource,
        SqlSource,
        SyslogSource,
    )

    kind = data.get("kind")
    if kind == "flights":
        return FlightsSource(
            int(data["rows"]),
            partitions=int(data.get("partitions", 8)),
            seed=int(data.get("seed", 0)),
            extra_columns=int(data.get("extraColumns", 0)),
        )
    if kind == "csv":
        return CsvSource(str(data["pattern"]))
    if kind == "jsonl":
        return JsonlSource(str(data["pattern"]))
    if kind == "syslog":
        return SyslogSource(str(data["pattern"]))
    if kind == "sql":
        return SqlSource(
            str(data["path"]),
            str(data["table"]),
            partitions=int(data.get("partitions", 1)),
        )
    if kind == "hvc":
        return ColumnarDatasetSource(str(data["directory"]))
    raise ProtocolError(f"unknown source kind {kind!r}")


def lineage_to_json(chain: list) -> list[dict]:
    """Encode a redo-log lineage chain (LoadOp, MapOp...) for a worker."""
    from repro.engine.redo_log import LoadOp, MapOp

    encoded = []
    for op in chain:
        if isinstance(op, LoadOp):
            encoded.append(
                {
                    "op": "load",
                    "dataset": op.dataset_id,
                    "source": source_to_json(op.source),
                }
            )
        elif isinstance(op, MapOp):
            encoded.append(
                {
                    "op": "map",
                    "dataset": op.dataset_id,
                    "parent": op.parent_id,
                    "map": table_map_to_json(op.table_map),
                }
            )
        else:
            raise ProtocolError(f"cannot encode lineage op {op!r}")
    return encoded


def lineage_from_json(data: list) -> list:
    """Inverse of :func:`lineage_to_json`: LoadOp/MapOp values for replay."""
    from repro.engine.redo_log import LoadOp, MapOp

    chain = []
    for item in data:
        op = item.get("op")
        if op == "load":
            chain.append(
                LoadOp(str(item["dataset"]), source_from_json(item["source"]))
            )
        elif op == "map":
            chain.append(
                MapOp(
                    str(item["dataset"]),
                    str(item["parent"]),
                    table_map_from_json(item["map"]),
                )
            )
        else:
            raise ProtocolError(f"unknown lineage op {op!r}")
    return chain
