"""Name → array state archives.

Two transports share one state-archive format:

- :func:`save_state` / :func:`load_state` — on-disk run checkpoints
  (:mod:`repro.core.checkpoint`);
- :func:`state_to_bytes` / :func:`state_from_bytes` — in-memory archives
  used for the policy-parameter broadcast to evaluation workers
  (:meth:`repro.rl.workers.ShardedVecEnvPool.sync_policy`) and the
  serving hot swap (:meth:`repro.serve.PolicyServer.swap_policy`).

Archive layout
--------------
One magic-prefixed header, one contiguous data block and a trailing
CRC32, all little-endian::

    MAGIC (8 bytes) | header length (uint64) | header (UTF-8 JSON)
    | data block | CRC32 of every preceding byte (uint32)

The header is a JSON list of ``[name, dtype.str, shape]`` entries, one
per array in insertion order; the data block holds each array's raw
C-order bytes back to back, in the same order. No pickling is involved,
so the payload is safe to ship across process boundaries, its size is a
faithful measure of the parameter volume, and a round trip reproduces
every array's dtype, shape and bytes exactly. Object and structured
arrays, whose dtype string does not describe them, are refused at save.

:func:`state_from_bytes` checks the magic and the CRC32 before it
parses the header, then validates every header entry (a known
non-object dtype, non-negative integer dims, unique names, and byte
totals that match the data block exactly) before it allocates anything
from them. Torn, truncated or bit-flipped payloads, and payloads in any
other layout, therefore fail loudly with :class:`StateChecksumError`
instead of loading garbage weights or allocating from a corrupt size.
Each loaded array is a fresh, aligned, writeable copy owned by nobody
else.

:func:`save_state` puts an archive on disk **atomically** (write to a
temp file in the target directory, fsync, then ``os.replace``), so a
crash mid-write can never leave a half-written checkpoint under the
final name — the previous checkpoint survives intact. A module's
weights go through the same archive:
``save_state(path, module.state_dict())`` and
``module.load_state_dict(load_state(path))``.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from typing import Dict, List, Tuple, Union

import numpy as np

PathLike = Union[str, os.PathLike]

#: First bytes of every archive in the one-block layout.
MAGIC = b"\x93R2RSTA\x01"

_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_PREFIX = len(MAGIC) + _LENGTH.size


class StateChecksumError(ValueError):
    """A state archive is truncated, malformed or fails its CRC32."""


def state_to_bytes(state: Dict[str, np.ndarray]) -> bytes:
    """Serialise a name → array mapping to one archive (see module docstring).

    Values round-trip losslessly through :func:`state_from_bytes`, and
    equal states give equal bytes. Raises ``ValueError`` on object or
    structured arrays.
    """
    entries: List[list] = []
    blocks: List[bytes] = []
    for key, value in state.items():
        array = np.asarray(value)
        if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
            raise ValueError(
                f"state entry {key!r} has dtype {array.dtype}; archives hold "
                "plain arrays only (no object or structured dtypes)"
            )
        entries.append([key, array.dtype.str, list(array.shape)])
        blocks.append(array.tobytes())
    header = json.dumps(entries, separators=(",", ":")).encode("utf8")
    parts = [MAGIC, _LENGTH.pack(len(header)), header, *blocks]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def _corrupt(reason: str) -> StateChecksumError:
    return StateChecksumError(f"state archive is corrupt: {reason}")


def _parse_header(header: bytes) -> List[Tuple[str, np.dtype, Tuple[int, ...], int]]:
    """Validated ``(name, dtype, shape, nbytes)`` entries of a header.

    Nothing is allocated from the entries here: a dtype must be a known
    non-object type, every dim a non-negative integer, every name unique.
    """
    try:
        raw = json.loads(header.decode("utf8"))
    except (UnicodeDecodeError, ValueError):
        raise _corrupt("header is not valid JSON") from None
    if not isinstance(raw, list):
        raise _corrupt("header is not a list of entries")
    entries = []
    names = set()
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise _corrupt(f"malformed header entry {entry!r}")
        name, descr, shape = entry
        if not isinstance(name, str) or name in names:
            raise _corrupt(f"bad or duplicate entry name {name!r}")
        names.add(name)
        if not isinstance(descr, str):
            raise _corrupt(f"entry {name!r} has dtype {descr!r}")
        try:
            dtype = np.dtype(descr)
        except (TypeError, ValueError):
            raise _corrupt(f"entry {name!r} has unknown dtype {descr!r}") from None
        if dtype.hasobject or dtype.subdtype is not None:
            raise _corrupt(f"entry {name!r} has unsupported dtype {descr!r}")
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise _corrupt(f"entry {name!r} has invalid shape {shape!r}")
        count = 1
        for dim in shape:
            count *= dim
        entries.append((name, dtype, tuple(shape), count * dtype.itemsize))
    return entries


def state_from_bytes(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`state_to_bytes`; verifies the archive's CRC32.

    Raises :class:`StateChecksumError` when the payload does not start
    with :data:`MAGIC`, is truncated or malformed, or does not hash to
    its stored checksum — a torn write, truncated pipe payload or
    flipped bit must never load as plausible weights.
    """
    size = len(payload)
    if bytes(payload[: len(MAGIC)]) != MAGIC:
        raise _corrupt("payload does not start with the archive magic")
    if size < _PREFIX + _CRC.size:
        raise _corrupt(f"{size} bytes is shorter than the fixed framing")
    body = memoryview(payload)[: size - _CRC.size]
    (stored,) = _CRC.unpack_from(payload, size - _CRC.size)
    actual = zlib.crc32(body)
    if actual != stored:
        raise StateChecksumError(
            f"state archive checksum mismatch: stored crc32={stored:#010x} "
            f"but contents hash to {actual:#010x} — the archive is corrupt "
            "(torn write, truncation or bit flip); refusing to load garbage weights"
        )
    (header_size,) = _LENGTH.unpack_from(payload, len(MAGIC))
    if header_size > len(body) - _PREFIX:
        raise _corrupt(f"header length {header_size} overruns the payload")
    data_start = _PREFIX + header_size
    entries = _parse_header(bytes(body[_PREFIX:data_start]))
    claimed = sum(nbytes for _, _, _, nbytes in entries)
    if claimed != len(body) - data_start:
        raise _corrupt(
            f"header claims {claimed} data bytes but the data block holds "
            f"{len(body) - data_start}"
        )
    state: Dict[str, np.ndarray] = {}
    offset = data_start
    for name, dtype, shape, nbytes in entries:
        if dtype.itemsize == 0:
            state[name] = np.empty(shape, dtype=dtype)
            continue
        count = nbytes // dtype.itemsize
        view = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        state[name] = view.reshape(shape).copy()
        offset += nbytes
    return state


def save_state(path: PathLike, state: Dict[str, np.ndarray]) -> None:
    """Atomically write a checksummed state archive to ``path``.

    The archive is written to a temporary file in the destination
    directory, flushed and fsynced, then moved over ``path`` with
    ``os.replace`` — readers always see either the previous complete
    archive or the new complete archive, never a torn mix.
    """
    payload = state_to_bytes(state)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, temp_path = tempfile.mkstemp(prefix=".state-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except FileNotFoundError:
            pass
        raise


def load_state(path: PathLike) -> Dict[str, np.ndarray]:
    """Load an archive written by :func:`save_state` (CRC32-verified)."""
    with open(path, "rb") as handle:
        payload = handle.read()
    return state_from_bytes(payload)
