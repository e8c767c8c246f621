"""Bulk attachments on the root↔worker wire.

Summaries and shard tables travel as binary attachments next to a JSON
header that names them.  Several payloads share one attachment as a
counted list (``encode_blobs``/``decode_blobs`` in ``engine/rpc.py``),
one blob per entry of the header's list.  Every receive site must
reject an attachment that disagrees with its header (missing, short,
long, truncated, or with trailing bytes) with a ``ProtocolError``: a
short list must not surface as a bare ``KeyError``, and a long one must
not silently drop payloads (for a claim the victim has already
cancelled the ceded shards).

Every blocking endpoint of that wire (and of the client wires) opens its
socket through ``core/framing.py``, which sets ``TCP_NODELAY``: a stream's
last ``partial`` and its ``complete`` are two small writes back to back,
and Nagle's algorithm would hold the second for the peer's delayed ACK.
"""

from __future__ import annotations

import ast
import queue
import socket
import threading
from pathlib import Path

import pytest

from repro.core.buckets import DoubleBuckets
from repro.core.framing import dial, stream_files
from repro.core.serialization import Encoder
from repro.data.flights import FlightsSource
from repro.engine.cluster import StolenParcel
from repro.engine.local import LocalDataSet
from repro.engine.remote import (
    RemoteWorkerProxy,
    WorkerServer,
    _RemoteStealLedger,
    _RootLink,
)
from repro.engine.rpc import (
    ProtocolError,
    RpcReply,
    RpcRequest,
    sketch_to_json,
    summary_to_bytes,
)
from repro.sketches.histogram import HistogramSketch
from repro.storage.columnar import table_to_bytes

SHARDS = FlightsSource(200, partitions=3, seed=5).load()
SKETCH = HistogramSketch("Distance", DoubleBuckets(0, 3000, 10))
#: Every receive site below is handed a header naming two payloads.
ENTRIES = 2


def pack(blobs: list[bytes]) -> bytes:
    """The documented list format: uvarint count, then each blob
    length-prefixed (docs/PROTOCOL.md §5)."""
    enc = Encoder()
    enc.write_uvarint(len(blobs))
    for blob in blobs:
        enc.write_bytes(blob)
    return enc.to_bytes()


def table_blobs(count: int) -> list[bytes]:
    return [table_to_bytes(SHARDS[i % len(SHARDS)]) for i in range(count)]


def summary_blobs(count: int) -> list[bytes]:
    return [
        summary_to_bytes(LocalDataSet(SHARDS[i % len(SHARDS)]).sketch(SKETCH))
        for i in range(count)
    ]


class _CannedChannel:
    """A worker channel that answers every request with one reply."""

    def __init__(self, reply: RpcReply):
        self.reply = reply
        self.dead = threading.Event()

    def call(self, method, args, timeout=60.0, attachment=None):
        return self.reply

    def submit(self, method, args, attachment=None):
        replies: "queue.Queue[RpcReply]" = queue.Queue()
        replies.put(self.reply)
        return self.reply.request_id, replies


def _proxy(reply: RpcReply) -> RemoteWorkerProxy:
    return RemoteWorkerProxy("canned", _CannedChannel(reply), cores=1)


def _daemon(method: str, args: dict, attachment: bytes | None) -> RpcReply:
    request = RpcRequest(1, "", method, args)
    request.attachment = attachment
    server = WorkerServer(name="receiver", cores=1)
    return list(server._dispatch(request, _RootLink(None, None)))[-1]


# Each receive site is handed a header naming ENTRIES payloads plus the
# given attachment, and returns how many payloads it accepted.
def receive_adopt_shards(attachment) -> int:
    """Daemon side of a worker-to-worker shard push."""
    entries = [{"globalIndex": g, "shardId": f"s{g}"} for g in range(ENTRIES)]
    args = {"dataset": "ds", "targetVersion": 1, "shards": entries}
    return _daemon("adoptShards", args, attachment).payload["staged"]


def receive_stolen_parcels(attachment) -> int:
    """Thief daemon receiving a victim's ceded shards."""
    entries = [{"globalIndex": g, "shardId": f"s{g}"} for g in range(ENTRIES)]
    args = {"sketch": sketch_to_json(SKETCH), "parcels": entries}
    reply = _daemon("stolenPartial", args, attachment)
    return len(reply.payload["summaries"])


def receive_claimed_parcels(attachment) -> int:
    """Root reading the shards a victim ceded to ``claimSlices``."""
    entries = [{"globalIndex": g, "shardId": f"s{g}"} for g in range(ENTRIES)]
    reply = RpcReply(1, "complete", payload={"parcels": entries})
    reply.attachment = attachment
    return len(_RemoteStealLedger(_proxy(reply), 1).cede(ENTRIES))


def receive_stolen_summaries(attachment) -> int:
    """Root reading the thief's per-shard summaries."""
    entries = [{"globalIndex": g} for g in range(ENTRIES)]
    reply = RpcReply(1, "complete", payload={"summaries": entries})
    reply.attachment = attachment
    parcels = [
        StolenParcel(global_index=g, payload=blob, shard_id=f"s{g}")
        for g, blob in enumerate(table_blobs(ENTRIES))
    ]
    return len(_proxy(reply).summarize_stolen(SKETCH, parcels))


#: (receive site, builder of well-formed blobs for it).
SITES = {
    "adoptShards": (receive_adopt_shards, table_blobs),
    "stolenPartial": (receive_stolen_parcels, table_blobs),
    "claimSlices reply": (receive_claimed_parcels, table_blobs),
    "stolenPartial reply": (receive_stolen_summaries, summary_blobs),
}

MALFORMED = {
    "short": lambda blobs: pack(blobs(ENTRIES - 1)),
    "long": lambda blobs: pack(blobs(ENTRIES + 1)),
    "missing": lambda blobs: None,
    "truncated": lambda blobs: pack(blobs(ENTRIES))[:-1],
    "trailing": lambda blobs: pack(blobs(ENTRIES)) + b"\x00",
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_well_formed_attachment_is_accepted(site):
    receive, blobs = SITES[site]
    assert receive(pack(blobs(ENTRIES))) == ENTRIES


@pytest.mark.parametrize("shape", sorted(MALFORMED))
@pytest.mark.parametrize("site", sorted(SITES))
def test_mismatched_attachment_is_a_protocol_error(site, shape):
    receive, blobs = SITES[site]
    with pytest.raises(ProtocolError, match=site):
        receive(MALFORMED[shape](blobs))


def test_partial_without_attachment_is_a_protocol_error():
    reply = RpcReply(
        1,
        "partial",
        progress=0.0,
        payload={"summaryType": "histogram", "shardsDone": 1, "bytes": 0},
    )
    partials = _proxy(reply).sketch_partials("ds", SKETCH, [])
    with pytest.raises(ProtocolError, match="without its summary attachment"):
        next(partials)


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_dial_and_accepted_streams_set_tcp_nodelay():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        sock, rfile, wfile = dial(listener.getsockname()[:2], 5.0)
        accepted, _ = listener.accept()
        try:
            assert _nodelay(sock)
            assert not _nodelay(accepted)
            accepted_rfile, _ = stream_files(accepted)
            assert _nodelay(accepted)
            wfile.write(b"ping")
            wfile.flush()
            assert accepted_rfile.read(4) == b"ping"
        finally:
            sock.close()
            accepted.close()


def test_only_the_framing_helper_opens_client_sockets():
    """A new endpoint must go through ``dial`` (and so get TCP_NODELAY)
    rather than call ``socket.create_connection`` itself."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    callers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (isinstance(node, ast.Attribute) and node.attr) or (
                isinstance(node, ast.alias) and node.name
            )
            if named == "create_connection":
                callers.add(path.relative_to(src).as_posix())
    assert callers == {"core/framing.py"}
