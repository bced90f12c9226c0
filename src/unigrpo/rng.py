"""Counter-based random streams with named derivation.

Every random draw in the package comes from a stream identified by
(seed, purpose tag, integer indices).  Streams are independent Philox
generators, so a fixed seed repeats every draw, and resuming a run can
rebuild any stream from its coordinates alone.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _tag_words(tag: str) -> tuple[int, ...]:
    # Stable 128-bit digest of the purpose tag, as four uint32 words.
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Derive the generator for (seed, tag, *indices)."""
    for ix in indices:
        if ix < 0:
            raise ValueError(f"stream indices must be non-negative, got {ix}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=_tag_words(tag) + tuple(indices))
    return np.random.Generator(np.random.Philox(ss))
