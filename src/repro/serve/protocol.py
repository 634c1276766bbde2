"""Wire protocol for the serving gateway: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON. JSON keeps the protocol self-describing
and debuggable (``nc`` + a hexdump is a working client); the one thing
JSON cannot carry losslessly is a float64 array, so ndarrays travel as
tagged base64 of their raw bytes::

    {"__ndarray__": [3, 2], "dtype": "<f8", "b64": "..."}

``tobytes`` → ``frombuffer`` round-trips every bit pattern (including
NaN payloads), which is what makes gateway-served actions bit-identical
to in-process serving — the transport never touches the numbers.

Reading side: :func:`recv_frame` reads one whole frame off a blocking
socket, however the bytes arrive in chunks; the thread-per-connection
gateway and the client both read with it.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, Optional

import numpy as np

__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode_payload",
    "encode_payload",
    "pack_frame",
    "recv_frame",
    "send_frame",
    "unpack_frame",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a corrupt length prefix must not
#: make a reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """Malformed frame: oversized length prefix, bad JSON, nesting too deep
    to decode, bad ndarray tag."""


# ----------------------------------------------------------------------
# payload codec: JSON-safe structures with tagged ndarrays
# ----------------------------------------------------------------------
def encode_payload(value: Any) -> Any:
    """Recursively convert a message into JSON-serialisable form."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": list(value.shape),
            "dtype": value.dtype.str,
            "b64": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(
                "ascii"
            ),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {key: encode_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(item) for item in value]
    return value


def decode_payload(value: Any) -> Any:
    """Reverse :func:`encode_payload`; tagged ndarrays come back bit-exact."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            try:
                shape = tuple(int(dim) for dim in value["__ndarray__"])
                dtype = np.dtype(value["dtype"])
                raw = base64.b64decode(value["b64"])
                array = np.frombuffer(raw, dtype=dtype).reshape(shape)
            except (KeyError, TypeError, ValueError) as error:
                raise FrameError(f"bad ndarray tag: {error}") from error
            return array.copy()  # writable, owns its memory
        return {key: decode_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_payload(item) for item in value]
    return value


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def pack_frame(message: Any) -> bytes:
    """Serialise one message into a length-prefixed frame."""
    body = json.dumps(encode_payload(message), separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def unpack_frame(body: bytes) -> Any:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        return decode_payload(json.loads(body.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"bad frame body: {error}") from error
    except RecursionError as error:
        # A small frame of deeply nested arrays exhausts the stack of
        # the parser or of decode_payload.
        raise FrameError("frame nests too deeply to decode") from error


# ----------------------------------------------------------------------
# blocking socket helpers (thread-per-connection paths)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: Any) -> None:
    sock.sendall(pack_frame(message))


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return unpack_frame(body)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """``count`` bytes, ``None`` on EOF before the first byte, error mid-read."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise FrameError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)
