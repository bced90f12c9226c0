"""Synthetic interleaved-generation task with verifiable rewards.

A prompt is its id in [0, 432), which only this module decodes (through
PROMPT_DRAWS): a sequence of surface tokens (synonyms) that decodes to a
hidden attribute tuple (quadrant, radius band, spread).  The tuple fixes
an isotropic Gaussian target in the plane; the terminal reward scores a
2-D sample against that target.  The text policy is supposed to "reason"
the surface form into canonical attribute tokens, which are the only
thing the generator ever sees.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import below, normals, uniforms, words

# ---- vocabulary ----

PAD, EOS = 0, 1
QUADRANTS = (1, 2, 3, 4)
BANDS = ("near", "far")
SPREADS = ("tight", "wide")
N_SYNONYMS = 3

# the synonyms of each quadrant, band and spread value, in value order
_SURFACE_WORDS = (
    ("northeast", "upper-right", "first-quadrant"),
    ("northwest", "upper-left", "second-quadrant"),
    ("southwest", "lower-left", "third-quadrant"),
    ("southeast", "lower-right", "fourth-quadrant"),
    ("near", "close", "inner"),
    ("far", "distant", "outer"),
    ("tight", "narrow", "focused"),
    ("wide", "broad", "scattered"),
)

TOKEN_NAMES = ["<pad>", "<eos>", *(f"QUAD_{q}" for q in QUADRANTS), "BAND_NEAR", "BAND_FAR",
               "SPREAD_TIGHT", "SPREAD_WIDE", *(w for synonyms in _SURFACE_WORDS for w in synonyms)]

VOCAB_SIZE = len(TOKEN_NAMES)   # 34
PROMPT_LEN = 3
TRACE_LEN = 4                   # three attribute tokens + EOS

# per attribute, its first canonical and surface tokens: each runs in value (then synonym) order
_CANON_FIRST = np.array([TOKEN_NAMES.index(n) for n in ("QUAD_1", "BAND_NEAR", "SPREAD_TIGHT")])
_SURFACE_FIRST = np.array([TOKEN_NAMES.index(w) for w in ("northeast", "near", "tight")])

_QUAD_DIRS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2.0)


# ---- target geometry, reward and label noise ----

RADIUS_NEAR, RADIUS_FAR = 0.5, 1.5  # target radius of each band
TAU_TIGHT, TAU_WIDE = 0.1, 0.25     # target spread of each spread value
TAU_R = 0.5                         # width of the smooth reward
BAND_SPLIT = 0.5 * (RADIUS_NEAR + RADIUS_FAR)  # the binary reward's band boundary
P_NOISE = 0.25                      # pretraining label-noise rate


def targets(attrs) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) means and (n,) spreads of the Gaussian targets of the (n, 3)
    attribute rows `attrs`: quadrant, band and spread indices, as
    PROMPT_DRAWS[ids, :3] holds them."""
    radius = np.array([RADIUS_NEAR, RADIUS_FAR])[attrs[:, 1]]
    tau = np.array([TAU_TIGHT, TAU_WIDE])[attrs[:, 2]]
    return radius[:, None] * _QUAD_DIRS[attrs[:, 0]], tau


# ---- prompts ----

# bounds of a prompt's six draws: quadrant, band and spread, then the three synonyms
PROMPT_BOUNDS = (len(QUADRANTS), len(BANDS), len(SPREADS)) + (N_SYNONYMS,) * 3
# a prompt's id reads its six draws as one mixed-radix number, quadrant
# first, so row i of PROMPT_DRAWS holds the six draws of prompt id i
_PLACES = np.array([math.prod(PROMPT_BOUNDS[i + 1:]) for i in range(len(PROMPT_BOUNDS))])
PROMPT_DRAWS = np.arange(math.prod(PROMPT_BOUNDS))[:, None] // _PLACES % PROMPT_BOUNDS


def prompt_ids(draws) -> np.ndarray:
    """The ids of the prompts whose six draws are the rows of `draws`; the
    inverse of PROMPT_DRAWS."""
    return np.asarray(draws, dtype=np.int64) @ _PLACES


def draw_prompts(seed: int, tag: str, index, w: np.ndarray) -> np.ndarray:
    """The ids of one prompt per row of the (rows, 6) words `w` at counter
    rows `index`: uniform over the 16 attribute tuples, then uniform over
    synonyms."""
    return prompt_ids(below(seed, tag, index, w, PROMPT_BOUNDS))


# every prompt's tokens and canonical trace, row i that of prompt id i
PROMPT_TOKENS = _SURFACE_FIRST + PROMPT_DRAWS[:, :3] * N_SYNONYMS + PROMPT_DRAWS[:, 3:]
CANONICAL_TRACES = np.column_stack([_CANON_FIRST + PROMPT_DRAWS[:, :3],
                                    np.full(len(PROMPT_DRAWS), EOS)])


def trace_lengths(traces: np.ndarray) -> np.ndarray:
    """Length of the trace each row of `traces` holds: a token sequence is an
    int array row, and a trace row runs through its first EOS, or to the
    row's end without one, with PAD after it (a sampled PAD before the EOS
    is one of its tokens).  A text row is [prompt | trace]."""
    eos = traces == EOS
    return np.where(eos.any(axis=1), eos.argmax(axis=1) + 1, traces.shape[1])


def canonical_accuracy(traces: np.ndarray, ids) -> float:
    """Fraction of the trace rows that are their prompt's canonical trace,
    whose only EOS ends it, so its TRACE_LEN tokens decide."""
    if traces.shape[1] < TRACE_LEN:
        return 0.0
    return float(np.mean((traces[:, :TRACE_LEN] == CANONICAL_TRACES[ids]).all(axis=1)))


def score(x0: np.ndarray, ids, reward_mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse terminal rewards in [0, 1] of the (n, 2) samples x0, row i scored
    against prompt id ids[i] under `reward_mode` (smooth | binary), and which
    rows are finite; a non-finite row scores 0.  A pure function of the
    samples and their prompts."""
    x0 = np.asarray(x0, dtype=np.float64)
    attrs = PROMPT_DRAWS[ids, :3]
    finite = np.isfinite(x0).all(axis=1)
    if reward_mode == "binary":
        in_quad = (np.sign(x0) == np.sign(_QUAD_DIRS[attrs[:, 0]])).all(axis=1)
        # a row-by-row dot product, so the radius has np.linalg.norm's bits
        r = np.sqrt((x0[:, None, :] @ x0[:, :, None]).ravel())
        rewards = (in_quad & ((r < BAND_SPLIT) == (attrs[:, 1] == 0))).astype(np.float64)
    else:
        mu, _ = targets(attrs)
        dist2 = ((x0 - mu) ** 2).sum(axis=1)
        rewards = np.exp(-dist2 / (2.0 * TAU_R**2))
    return np.where(finite, rewards, 0.0), finite


# ---- pretraining data ----


def _examples(kind: int, n: int) -> np.ndarray:
    """Counter rows (kind, i, 0) of examples i < n."""
    return np.column_stack([np.full(n, kind), np.arange(n), np.zeros(n, dtype=np.int64)])


def make_pretrain_data(seed: int, n_text: int,
                       n_flow: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Noisy supervised text rows plus exact generator targets:
    (seqs, (conds, x0)), seqs the (n_text, PROMPT_LEN + TRACE_LEN) text rows
    [prompt | trace], conds the (n_flow, TRACE_LEN) trace rows and x0 an
    (n_flow, 2) array.

    Each trace is its prompt's canonical TRACE_LEN tokens, with one attribute
    token swapped for a wrong value with probability P_NOISE so the
    pretrained policy is imperfect and RL has headroom; x0[i] is an exact
    draw from the target distribution of the prompt whose canonical trace is
    conds[i].  Text example i takes the "pretrain-data" words of counter row
    (0, i, 0): six prompt words, the swapped position and value, then the
    noise coin; flow example i those of row (1, i, 0): three attribute
    words, then a Box-Muller pair.
    """
    tag = "pretrain-data"
    index = _examples(0, n_text)
    w = words(seed, tag, index, 9)
    a = below(seed, tag, index, w[:, :8], PROMPT_BOUNDS + (3, len(QUADRANTS) - 1))
    a = a.astype(np.int64)
    values = a[:, :3].copy()
    rows = np.flatnonzero(uniforms(w[:, 8]) < P_NOISE)
    pos = a[rows, 6]
    n = np.array(PROMPT_BOUNDS)[pos]  # the attribute's number of values
    # one of the attribute's n - 1 other values, uniformly
    values[rows, pos] = (values[rows, pos] + 1 + a[rows, 7] % (n - 1)) % n
    seqs = np.column_stack([PROMPT_TOKENS[prompt_ids(a[:, :6])], _CANON_FIRST + values,
                            np.full(n_text, EOS)])

    index = _examples(1, n_flow)
    w = words(seed, tag, index, 5)
    values = below(seed, tag, index, w[:, :3], PROMPT_BOUNDS[:3]).astype(np.int64)
    mu, tau = targets(values)
    x0 = mu + tau[:, None] * normals(w[:, 3:5])
    return seqs, (np.column_stack([_CANON_FIRST + values, np.full(n_flow, EOS)]), x0)
