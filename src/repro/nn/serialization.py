"""Save / load module parameters as ``.npz`` archives.

Two transports share the same archive format:

- :func:`save_module` / :func:`load_module` — on-disk checkpoints;
- :func:`state_to_bytes` / :func:`state_from_bytes` — in-memory archives
  used for the policy-parameter broadcast to evaluation workers
  (:meth:`repro.rl.workers.ShardedVecEnvPool.sync_policy`).
  The byte payload is a plain npz (no pickled objects), so a replica
  that round-trips through it reproduces the source arrays bit for bit.

Every archive written by :func:`state_to_bytes` carries a CRC32 of its
contents under the reserved key ``__crc32__``; :func:`state_from_bytes`
recomputes and verifies it, so a torn or bit-flipped replica broadcast
or checkpoint fails loudly with :class:`StateChecksumError` instead of
loading garbage weights. Archives written before the checksum existed
(no ``__crc32__`` entry) still load.

:func:`save_state` / :func:`load_state` put the same checksummed archive
on disk **atomically** (write to a temp file in the target directory,
fsync, then ``os.replace``), so a crash mid-write can never leave a
half-written checkpoint under the final name — the previous checkpoint
survives intact. This is the transport used by
:mod:`repro.core.checkpoint` for run checkpoint/resume.
"""

from __future__ import annotations

import io
import os
import tempfile
import zlib
from typing import Dict, Union

import numpy as np

from .module import Module

PathLike = Union[str, os.PathLike]

#: Reserved archive key holding the CRC32 of every other entry.
CHECKSUM_KEY = "__crc32__"


class StateChecksumError(ValueError):
    """A state archive's CRC32 does not match its contents (corruption)."""


def _state_crc32(state: Dict[str, np.ndarray]) -> int:
    """CRC32 over every entry's name, dtype, shape and raw bytes (sorted)."""
    crc = 0
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        header = f"{key}|{value.dtype.str}|{value.shape}".encode("utf8")
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(value.tobytes(), crc)
    return crc & 0xFFFFFFFF


def save_module(module: Module, path: PathLike) -> None:
    """Write all named parameters of ``module`` to ``path`` (npz)."""
    state = module.state_dict()
    # npz keys cannot contain '/', module paths use '.', which is fine.
    np.savez(path, **state)


def load_module(module: Module, path: PathLike) -> None:
    """Load parameters saved by :func:`save_module` into ``module``."""
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    module.load_state_dict(state)


def state_to_bytes(state: Dict[str, np.ndarray]) -> bytes:
    """Serialise a name → array mapping to an in-memory npz archive.

    Values round-trip losslessly through :func:`state_from_bytes`; no
    pickling is involved, so the payload is safe to ship across process
    boundaries and its size is a faithful measure of the parameter
    volume being broadcast. A CRC32 of the contents rides along under
    :data:`CHECKSUM_KEY` and is verified on load.
    """
    if CHECKSUM_KEY in state:
        raise ValueError(f"state key {CHECKSUM_KEY!r} is reserved for the checksum")
    arrays = {key: np.asarray(value) for key, value in state.items()}
    checksum = np.array([_state_crc32(arrays)], dtype=np.uint32)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **{CHECKSUM_KEY: checksum})
    return buffer.getvalue()


def state_from_bytes(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`state_to_bytes`; verifies the embedded CRC32.

    Raises :class:`StateChecksumError` when the archive's contents do
    not hash to the stored checksum — a torn write, truncated pipe
    payload or flipped bit must never load as plausible weights — and
    also when the payload is not even a readable npz (truncation often
    destroys the zip directory before the checksum can be compared).
    Archives without a checksum entry (written by older versions) load
    unverified.
    """
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
    except StateChecksumError:
        raise
    except Exception as error:
        # Corruption can land anywhere in the zip structure, so the
        # parse failures are legion (BadZipFile, zlib.error, KeyError,
        # NotImplementedError on mangled flag bits, ...) — normalise
        # them all to the one corruption signal callers handle.
        raise StateChecksumError(
            f"state archive is unreadable ({error!r}) — truncated or corrupt"
        ) from None
    stored = state.pop(CHECKSUM_KEY, None)
    if stored is not None:
        expected = int(np.asarray(stored).ravel()[0])
        actual = _state_crc32(state)
        if actual != expected:
            raise StateChecksumError(
                f"state archive checksum mismatch: stored crc32={expected:#010x} "
                f"but contents hash to {actual:#010x} — the archive is corrupt "
                "(torn write or bit flip); refusing to load garbage weights"
            )
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
