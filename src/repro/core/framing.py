"""Uvarint-framed message framing, shared by every socket in the system.

One frame is a uvarint length prefix (the :mod:`repro.core.serialization`
idiom) followed by that many payload bytes.  The same format runs on two
wires: browser/client <-> web server (:mod:`repro.service.transport`) and
root <-> worker processes (:mod:`repro.engine.remote`), so a captured byte
stream from either can be decoded with one tool.

Both an asyncio reader and a blocking file-object reader are provided; the
caller chooses the exception type raised on a malformed or truncated frame
so each layer reports errors in its own vocabulary.

Blocking TCP endpoints open through :func:`dial` / :func:`stream_files`,
which set ``TCP_NODELAY``: a stream's last ``partial`` and its ``complete``
are two small writes back to back, and Nagle would hold the second for the
peer's delayed ACK (~40 ms).  Asyncio transports set the option themselves.
"""

from __future__ import annotations

import asyncio
import socket
from typing import BinaryIO

from repro.core.serialization import Encoder
from repro.errors import HillviewError

#: Frames larger than this are a protocol violation (a reply payload is
#: resolution-bounded, §4.2; requests are tiny).
MAX_FRAME_BYTES = 32 * 1024 * 1024


class FrameError(HillviewError):
    """A malformed, oversized, or truncated wire frame."""

    code = "framing"


def encode_frame(payload: bytes) -> bytes:
    """One wire frame: uvarint length prefix + payload bytes."""
    enc = Encoder()
    enc.write_bytes(payload)
    return enc.to_bytes()


async def read_frame(
    reader: asyncio.StreamReader, error: type[Exception] = FrameError
) -> bytes | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    length = 0
    shift = 0
    while True:
        try:
            byte = (await reader.readexactly(1))[0]
        except asyncio.IncompleteReadError:
            if shift == 0:
                return None  # clean close between frames
            raise error("connection closed inside a frame header")
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 70:
            raise error("frame header uvarint too long")
    if length > MAX_FRAME_BYTES:
        raise error(f"frame of {length} bytes exceeds the maximum")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise error("connection closed inside a frame body")


def read_frame_blocking(
    stream: BinaryIO, error: type[Exception] = FrameError
) -> bytes | None:
    """Blocking twin of :func:`read_frame` for synchronous endpoints."""
    length = 0
    shift = 0
    while True:
        chunk = stream.read(1)
        if not chunk:
            if shift == 0:
                return None
            raise error("connection closed inside a frame header")
        byte = chunk[0]
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 70:
            raise error("frame header uvarint too long")
    if length > MAX_FRAME_BYTES:
        raise error(f"frame of {length} bytes exceeds the maximum")
    payload = stream.read(length)
    if len(payload) != length:
        raise error("connection closed inside a frame body")
    return payload


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one frame and flush (blocking endpoints)."""
    stream.write(encode_frame(payload))
    stream.flush()


def stream_files(sock: socket.socket) -> tuple[BinaryIO, BinaryIO]:
    """Set ``TCP_NODELAY`` on a connected socket; return its (rb, wb) files."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock.makefile("rb"), sock.makefile("wb")


def dial(
    address: tuple[str, int], timeout: float | None, io_timeout: float | None = None
) -> tuple[socket.socket, BinaryIO, BinaryIO]:
    """Connect within ``timeout`` seconds, then block reads and writes for up
    to ``io_timeout`` (None: forever); returns the socket and its files."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(io_timeout)
    return (sock, *stream_files(sock))
