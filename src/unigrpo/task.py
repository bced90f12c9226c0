"""Synthetic interleaved-generation task with verifiable rewards.

A prompt is a sequence of surface tokens (synonyms) that decodes to a
hidden attribute tuple (quadrant, radius band, spread).  The tuple fixes
an isotropic Gaussian target in the plane; the terminal reward scores a
2-D sample against that target.  The text policy is supposed to "reason"
the surface form into canonical attribute tokens, which are the only
thing the generator ever sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .rng import below, normals, uniforms, words

# ---- vocabulary ----

PAD, EOS = 0, 1
QUADRANTS = (1, 2, 3, 4)
BANDS = ("near", "far")
SPREADS = ("tight", "wide")

CANON_QUAD = {q: 1 + q for q in QUADRANTS}          # 2..5
CANON_BAND = {"near": 6, "far": 7}
CANON_SPREAD = {"tight": 8, "wide": 9}

_SURFACE_WORDS = {
    ("quad", 1): ("northeast", "upper-right", "first-quadrant"),
    ("quad", 2): ("northwest", "upper-left", "second-quadrant"),
    ("quad", 3): ("southwest", "lower-left", "third-quadrant"),
    ("quad", 4): ("southeast", "lower-right", "fourth-quadrant"),
    ("band", "near"): ("near", "close", "inner"),
    ("band", "far"): ("far", "distant", "outer"),
    ("spread", "tight"): ("tight", "narrow", "focused"),
    ("spread", "wide"): ("wide", "broad", "scattered"),
}

N_SYNONYMS = 3

TOKEN_NAMES = ["<pad>", "<eos>"]
TOKEN_NAMES += [f"QUAD_{q}" for q in QUADRANTS]
TOKEN_NAMES += ["BAND_NEAR", "BAND_FAR", "SPREAD_TIGHT", "SPREAD_WIDE"]

SURFACE_QUAD: dict[int, tuple[int, ...]] = {}
SURFACE_BAND: dict[str, tuple[int, ...]] = {}
SURFACE_SPREAD: dict[str, tuple[int, ...]] = {}


def _alloc_surface():
    next_id = len(TOKEN_NAMES)
    for table, kind, values in ((SURFACE_QUAD, "quad", QUADRANTS), (SURFACE_BAND, "band", BANDS),
                                (SURFACE_SPREAD, "spread", SPREADS)):
        for value in values:
            table[value] = tuple(range(next_id, next_id + N_SYNONYMS))
            TOKEN_NAMES.extend(_SURFACE_WORDS[(kind, value)])
            next_id += N_SYNONYMS


_alloc_surface()

VOCAB_SIZE = len(TOKEN_NAMES)   # 34
PROMPT_LEN = 3
TRACE_LEN = 4                   # three attribute tokens + EOS

_QUAD_DIRS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_QUAD_DIR = dict(zip(QUADRANTS, _QUAD_DIRS))


@dataclass(frozen=True)
class TaskGeometry:
    """Target geometry and reward shape; defaults give visible attribute structure."""

    radius_near: float = 0.5
    radius_far: float = 1.5
    tau_tight: float = 0.1
    tau_wide: float = 0.25
    tau_r: float = 0.5
    reward_mode: str = "smooth"  # smooth | binary

    @property
    def band_split(self) -> float:
        return 0.5 * (self.radius_near + self.radius_far)


@dataclass(frozen=True)
class Prompt:
    prompt_id: int
    tokens: tuple[int, ...]
    quadrant: int
    band: str
    spread: str


@dataclass(frozen=True)
class TargetSpec:
    mu: np.ndarray
    tau: float


def target_spec(quadrant: int, band: str, spread: str, geom: TaskGeometry) -> TargetSpec:
    radius = geom.radius_near if band == "near" else geom.radius_far
    tau = geom.tau_tight if spread == "tight" else geom.tau_wide
    return TargetSpec(mu=radius * _QUAD_DIR[quadrant], tau=tau)


def _prompt_id(quadrant, band, spread, syn) -> int:
    tup = ((quadrant - 1) * 2 + BANDS.index(band)) * 2 + SPREADS.index(spread)
    return tup * N_SYNONYMS**3 + syn[0] * N_SYNONYMS**2 + syn[1] * N_SYNONYMS + syn[2]


def make_prompt(quadrant: int, band: str, spread: str, syn=(0, 0, 0)) -> Prompt:
    tokens = (SURFACE_QUAD[quadrant][syn[0]], SURFACE_BAND[band][syn[1]],
              SURFACE_SPREAD[spread][syn[2]])
    return Prompt(_prompt_id(quadrant, band, spread, syn), tokens, quadrant, band, spread)


# bounds of a prompt's six draws: quadrant, band and spread, then the three synonyms
PROMPT_BOUNDS = (len(QUADRANTS), len(BANDS), len(SPREADS)) + (N_SYNONYMS,) * 3


def draw_prompts(seed: int, tag: str, index, w: np.ndarray) -> list[Prompt]:
    """One prompt per row of the (rows, 6) words `w` at counter rows `index`:
    uniform over the 16 attribute tuples, then uniform over synonyms."""
    draws = below(seed, tag, index, w, PROMPT_BOUNDS).tolist()
    return [make_prompt(QUADRANTS[q], BANDS[b], SPREADS[s], syn)
            for q, b, s, *syn in draws]


def all_tuples():
    return product(QUADRANTS, BANDS, SPREADS)


def all_prompts():
    return (make_prompt(q, b, s, syn) for q, b, s in all_tuples()
            for syn in product(range(N_SYNONYMS), repeat=3))


def canonical_trace(prompt: Prompt) -> tuple[int, ...]:
    return (CANON_QUAD[prompt.quadrant], CANON_BAND[prompt.band],
            CANON_SPREAD[prompt.spread], EOS)


# every prompt's tokens and canonical trace, row i that of prompt id i
PROMPT_TOKENS = np.array([p.tokens for p in all_prompts()])
CANONICAL_TRACES = np.array([canonical_trace(p) for p in all_prompts()])


def trace_lengths(traces: np.ndarray) -> np.ndarray:
    """Length of the trace each row of `traces` holds: a token sequence is an
    int array row, and a trace row runs through its first EOS, or to the
    row's end without one, with PAD after it (a sampled PAD before the EOS
    is one of its tokens).  A text row is [prompt | trace]."""
    eos = traces == EOS
    return np.where(eos.any(axis=1), eos.argmax(axis=1) + 1, traces.shape[1])


def canonical_accuracy(traces: np.ndarray, prompt_ids) -> float:
    """Fraction of the trace rows that are their prompt's canonical trace,
    whose only EOS ends it, so its TRACE_LEN tokens decide."""
    if traces.shape[1] < TRACE_LEN:
        return 0.0
    return float(np.mean((traces[:, :TRACE_LEN] == CANONICAL_TRACES[prompt_ids]).all(axis=1)))


def score(x0: np.ndarray, prompts, geom: TaskGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Sparse terminal rewards in [0, 1] of the (n, 2) samples x0, row i
    scored against prompts[i], and which rows are finite; a non-finite row
    scores 0.  A pure function of the samples and their prompts."""
    x0 = np.asarray(x0, dtype=np.float64)
    dirs = _QUAD_DIRS[[p.quadrant - 1 for p in prompts]]
    near = np.array([p.band == "near" for p in prompts], dtype=bool)
    finite = np.isfinite(x0).all(axis=1)
    if geom.reward_mode == "binary":
        in_quad = (np.sign(x0) == np.sign(dirs)).all(axis=1)
        # a row-by-row dot product, so the radius has np.linalg.norm's bits
        r = np.sqrt((x0[:, None, :] @ x0[:, :, None]).ravel())
        rewards = (in_quad & ((r < geom.band_split) == near)).astype(np.float64)
    else:
        mu = np.where(near, geom.radius_near, geom.radius_far)[:, None] * dirs
        dist2 = ((x0 - mu) ** 2).sum(axis=1)
        rewards = np.exp(-dist2 / (2.0 * geom.tau_r**2))
    return np.where(finite, rewards, 0.0), finite


# ---- pretraining data ----


# per attribute: its number of values and its first canonical and surface
# tokens; an attribute's tokens are consecutive in value (then synonym) order
_N_VALUES = np.array(PROMPT_BOUNDS[:3])
_CANON_FIRST = np.array([CANON_QUAD[1], CANON_BAND["near"], CANON_SPREAD["tight"]])
_SURFACE_FIRST = np.array([SURFACE_QUAD[1][0], SURFACE_BAND["near"][0],
                           SURFACE_SPREAD["tight"][0]])


def _examples(kind: int, n: int) -> np.ndarray:
    """Counter rows (kind, i, 0) of examples i < n."""
    return np.column_stack([np.full(n, kind), np.arange(n), np.zeros(n, dtype=np.int64)])


def make_pretrain_data(seed: int, n_text: int, n_flow: int, geom: TaskGeometry,
                       p_noise: float = 0.25) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Noisy supervised text rows plus exact generator targets:
    (seqs, (conds, x0)), seqs the (n_text, PROMPT_LEN + TRACE_LEN) text rows
    [prompt | trace], conds the (n_flow, TRACE_LEN) trace rows and x0 an
    (n_flow, 2) array.

    Each trace is its prompt's canonical TRACE_LEN tokens, with one attribute
    token swapped for a wrong value with probability p_noise so the
    pretrained policy is imperfect and RL has headroom; x0[i] is an exact
    draw from the target distribution of the prompt whose canonical trace is
    conds[i].  Text example i takes the "pretrain-data" words of counter row
    (0, i, 0): six prompt words, the swapped position and value, then the
    noise coin; flow example i those of row (1, i, 0): three attribute
    words, then a Box-Muller pair.
    """
    if n_text <= 0 or n_flow <= 0:
        raise ValueError("n_text and n_flow must be positive")
    tag = "pretrain-data"
    index = _examples(0, n_text)
    w = words(seed, tag, index, 9)
    a = below(seed, tag, index, w[:, :8], PROMPT_BOUNDS + (3, len(QUADRANTS) - 1))
    a = a.astype(np.int64)
    values = a[:, :3].copy()
    rows = np.flatnonzero(uniforms(w[:, 8]) < p_noise)
    pos = a[rows, 6]
    n = _N_VALUES[pos]
    # one of the attribute's n - 1 other values, uniformly
    values[rows, pos] = (values[rows, pos] + 1 + a[rows, 7] % (n - 1)) % n
    seqs = np.column_stack([_SURFACE_FIRST + a[:, :3] * N_SYNONYMS + a[:, 3:6],
                            _CANON_FIRST + values, np.full(n_text, EOS)])

    index = _examples(1, n_flow)
    w = words(seed, tag, index, 5)
    values = below(seed, tag, index, w[:, :3], PROMPT_BOUNDS[:3]).astype(np.int64)
    specs = [target_spec(q, b, s, geom) for q, b, s in all_tuples()]
    tup = (values[:, 0] * len(BANDS) + values[:, 1]) * len(SPREADS) + values[:, 2]
    mu = np.array([spec.mu for spec in specs])[tup]
    tau = np.array([spec.tau for spec in specs])[tup]
    x0 = mu + tau[:, None] * normals(w[:, 3:5])
    return seqs, (np.column_stack([_CANON_FIRST + values, np.full(n_flow, EOS)]), x0)
