"""Binary checkpoint container: named float64 blocks, bit-exact round trips.

Layout: magic "UGRP", format version (u32 LE), then per block
name-length / UTF-8 name / ndim / dims (u32 LE each) and the raw finite
little-endian float64 payload, repeated until end of file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .nn import ParamSet

MAGIC = b"UGRP"
VERSION = 1


def save_blocks(path, blocks: dict[str, np.ndarray]) -> None:
    """Writes `path`.tmp, then renames it over `path`: a save that fails or is
    interrupted leaves the previous file whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        parts.append(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
        parts.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(b"".join(parts))
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def load_blocks(path) -> dict[str, np.ndarray]:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {data[:4]!r}")
    blocks: dict[str, np.ndarray] = {}
    try:
        (version,) = struct.unpack_from("<I", data, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        pos = 8
        while pos < len(data):
            (nlen,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (ndim,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            count = int(np.prod(dims)) if ndim else 1
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=pos).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in block '{name}'")
            pos += 8 * count
            blocks[name] = arr.reshape(dims) if ndim else arr.reshape(())
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        where = f"after block '{next(reversed(blocks))}'" if blocks else "before its first block"
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint {where}") from exc
    return blocks


def save_params(path, params: ParamSet) -> None:
    save_blocks(path, dict(params.items()))


def load_params(path) -> ParamSet:
    return ParamSet(load_blocks(path))
