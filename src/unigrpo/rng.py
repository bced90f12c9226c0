"""Counter-based random draws with named derivation.

Every random draw in the package is addressed by (seed, purpose tag,
integer indices), so a fixed seed repeats every draw and resuming a run
can rebuild any draw from its coordinates alone.  There are two ways to
draw, both built on Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11; numpy's own Philox):

- `stream(seed, tag, *indices)` is a sequential numpy Generator.
  Parameter init, the pretraining shuffles and the eval set draw from it.
- `words(seed, tag, index, n)` is counter-addressed: row i gets n 64-bit
  words at once, word j being lane j % 4 of the Philox block at counter
  (j // 4, *index[i]) under the (seed, tag) key that `stream(seed, tag)`
  also uses.  `words_by_tag` draws several tags' words in one bijection
  call with a key per counter; training draws the prompt and rollout words
  of a block of updates that way, and pretraining data are words too.
  `uniforms`, `normals` and `below` turn words into variates.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64 multipliers of lanes 0 and 2 and its key bumps
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
# (ROUNDS, 2, 1): round r adds r times the bumps to the key, mod 2**64
_BUMPS = np.array([[[r * b % 2**64] for b in _BUMP] for r in range(_ROUNDS)], dtype=np.uint64)
# (mask, shift, multiplier, its low and high 32-bit limbs) per multiplied lane
_CONSTS = np.stack([np.full_like(_MUL, _MASK32), np.full_like(_MUL, _SHIFT32), _MUL,
                    _MUL & _MASK32, _MUL >> _SHIFT32])
# block counter of `below`'s first redraw: far above any layout's blocks
_REDRAW_BLOCK = 1 << 63


@functools.lru_cache(maxsize=None)
def _tag_words(tag: str) -> tuple[int, ...]:
    # Stable 128-bit digest of the purpose tag, as four uint32 words.
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def _check_indices(indices) -> None:
    for ix in indices:
        if ix < 0:
            raise ValueError(f"random-draw indices must be non-negative, got {ix}")


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Derive the generator for (seed, tag, *indices)."""
    _check_indices(indices)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=_tag_words(tag) + tuple(indices))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=256)
def tag_key(seed: int, tag: str) -> np.ndarray:
    """(2,) uint64 Philox key of (seed, tag): the key `stream(seed, tag)`'s
    Philox gets.  Read-only, since every caller shares it."""
    key = np.random.SeedSequence(entropy=seed, spawn_key=_tag_words(tag)).generate_state(
        2, np.uint64
    )
    key.flags.writeable = False
    return key


def _mulhi(a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray, mask: np.ndarray,
           shift: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64 arrays, with b
    given as 32-bit limbs: every partial product and sum fits in uint64."""
    a_lo, a_hi = a & mask, a >> shift
    t = a_lo * b_hi + ((a_lo * b_lo) >> shift)
    u = (t & mask) + a_hi * b_lo
    return a_hi * b_hi + (t >> shift) + (u >> shift)


def philox4x64(counter, key) -> np.ndarray:
    """Philox4x64-10 bijection of (..., 4) uint64 counters (lane 0 least
    significant) under a (2,) uint64 key, or a (..., 2) key per counter, as
    (..., 4) uint64 words.  numpy's Philox increments its counter before
    each block, so `Philox(key=K, counter=C).random_raw(4)` is
    `philox4x64(C + 1, K)`."""
    ctr = np.asarray(counter, dtype=np.uint64)
    x = ctr.reshape(-1, 4).T
    key = np.broadcast_to(np.asarray(key, dtype=np.uint64), (*ctr.shape[:-1], 2))
    keys = key.reshape(-1, 2).T + _BUMPS  # (ROUNDS, 2, counters), mod 2**64
    # constants at the lanes' shape: same-shape ufuncs run about twice as
    # fast as broadcasting ones on these small arrays
    mask, shift, mul, mul_lo, mul_hi = np.broadcast_to(_CONSTS, (5, 2, x.shape[1])).copy()
    a, c = x[[0, 2]], x[[1, 3]]  # multiplied lanes, xored lanes
    for k in keys:
        # lanes (0, 1, 2, 3) <- (hi2 ^ x1 ^ k0, lo2, hi0 ^ x3 ^ k1, lo0)
        a, c = (_mulhi(a, mul_lo, mul_hi, mask, shift)[::-1] ^ c ^ k,
                (a * mul)[::-1])  # the low half wraps
    return np.stack([a[0], c[0], a[1], c[1]], axis=-1).reshape(ctr.shape)


def words_by_tag(seed: int, draws: dict[str, tuple], block: int = 0) -> dict[str, np.ndarray]:
    """`words(seed, tag, index, n, block)` for every tag: (index, n) of
    `draws`, all tags' Philox blocks in one bijection call, each counter
    under its tag's key."""
    ctrs, keys, shapes = [], [], []
    for tag, (index, n) in draws.items():
        index = np.asarray(index, dtype=np.int64).reshape(-1, 3)
        _check_indices([index.min(initial=0)])
        n_blocks = -(-n // 4)
        ctr = np.empty((len(index), n_blocks, 4), dtype=np.uint64)
        ctr[..., 0] = np.uint64(block) + np.arange(n_blocks, dtype=np.uint64)
        ctr[..., 1:] = index[:, None, :]
        ctrs.append(ctr.reshape(-1, 4))
        keys.append(np.broadcast_to(tag_key(seed, tag), (len(ctrs[-1]), 2)))
        shapes.append((len(index), n))
    out = philox4x64(np.concatenate(ctrs), np.concatenate(keys))
    result, lo = {}, 0
    for tag, ctr, (rows, n) in zip(draws, ctrs, shapes):
        result[tag] = out[lo:lo + len(ctr)].reshape(rows, -1)[:, :n]
        lo += len(ctr)
    return result


def words(seed: int, tag: str, index, n: int, block: int = 0) -> np.ndarray:
    """(rows, n) uint64 words: word j of row i is lane j % 4 of the Philox
    block at counter (block + j // 4, *index[i]) under `tag_key(seed, tag)`.
    `index` is (rows, 3) non-negative integers."""
    return words_by_tag(seed, {tag: (index, n)}, block)[tag]


def uniforms(w: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles from the top 53 bits of each word (the
    conversion numpy's Generator.random makes)."""
    return (w >> 11).astype(np.float64) * 2.0**-53


def normals(w: np.ndarray) -> np.ndarray:
    """Standard normals by Box-Muller: words 2i and 2i + 1 of the last axis
    (even length) give normals 2i and 2i + 1 as r cos(theta), r sin(theta)."""
    u = uniforms(w)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * np.pi * u[..., 1::2]
    z = np.empty_like(u)
    z[..., 0::2], z[..., 1::2] = r * np.cos(theta), r * np.sin(theta)
    return z


def below(seed: int, tag: str, index, w: np.ndarray, n) -> np.ndarray:
    """Exactly uniform uint64 integers in [0, n) by Lemire's multiply-shift:
    the high half of w * n, rejected when the low half is below 2**64 mod n.
    `w` is one word per row, or (rows, k) words with `n` one bound or k
    bounds, one per column.  A rejected word in column c redraws on its r-th
    redraw from word c of `words(seed, tag, index, k, 2**63 + r * ceil(k / 4))`,
    an address no layout reaches; a redraw happens with probability below
    n / 2**64."""
    bounds = np.atleast_1d(np.asarray(n, dtype=object))
    if not all(1 <= b < 2**64 for b in bounds):
        raise ValueError(f"bounds must be in [1, 2**64), got {n}")
    index = np.asarray(index, dtype=np.int64).reshape(-1, 3)
    w = np.array(w, dtype=np.uint64)
    cols = w if w.ndim == 2 else w[:, None]  # a view of w, one row per counter row
    k = cols.shape[1]
    threshold = np.array([(2**64 - b) % b for b in bounds], dtype=np.uint64)
    n = bounds.astype(np.uint64)
    r = 0
    while True:
        rejected = cols * n < threshold  # the low half wraps
        if not rejected.any():
            return _mulhi(w, n & _MASK32, n >> _SHIFT32, _MASK32, _SHIFT32)
        rows = np.flatnonzero(rejected.any(axis=1))
        redraw = words(seed, tag, index[rows], k, _REDRAW_BLOCK + r * -(-k // 4))
        cols[rows] = np.where(rejected[rows], redraw, cols[rows])
        r += 1
