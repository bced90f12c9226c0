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

import numpy as np

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

_QUAD_DIR = {
    1: np.array([1.0, 1.0]) / np.sqrt(2.0),
    2: np.array([-1.0, 1.0]) / np.sqrt(2.0),
    3: np.array([-1.0, -1.0]) / np.sqrt(2.0),
    4: np.array([1.0, -1.0]) / np.sqrt(2.0),
}


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
    tokens = (
        SURFACE_QUAD[quadrant][syn[0]],
        SURFACE_BAND[band][syn[1]],
        SURFACE_SPREAD[spread][syn[2]],
    )
    return Prompt(_prompt_id(quadrant, band, spread, syn), tokens, quadrant, band, spread)


def sample_prompt(rng: np.random.Generator) -> Prompt:
    """Uniform over the 16 attribute tuples, then uniform over synonyms."""
    q = QUADRANTS[rng.integers(4)]
    b = BANDS[rng.integers(2)]
    s = SPREADS[rng.integers(2)]
    syn = tuple(int(rng.integers(N_SYNONYMS)) for _ in range(3))
    return make_prompt(q, b, s, syn)


def all_tuples():
    for q in QUADRANTS:
        for b in BANDS:
            for s in SPREADS:
                yield q, b, s


def all_prompts():
    for q, b, s in all_tuples():
        for i in range(N_SYNONYMS):
            for j in range(N_SYNONYMS):
                for k in range(N_SYNONYMS):
                    yield make_prompt(q, b, s, (i, j, k))


def canonical_trace(prompt: Prompt) -> tuple[int, ...]:
    return (
        CANON_QUAD[prompt.quadrant],
        CANON_BAND[prompt.band],
        CANON_SPREAD[prompt.spread],
        EOS,
    )


_QUAD_DIRS = np.stack([_QUAD_DIR[q] for q in QUADRANTS])


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


_ATTR_ALTERNATIVES = {
    0: list(CANON_QUAD.values()),
    1: list(CANON_BAND.values()),
    2: list(CANON_SPREAD.values()),
}


def _corrupt(trace: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
    """Replace one attribute token with a wrong value of the same attribute."""
    pos = int(rng.integers(3))
    wrong = [t for t in _ATTR_ALTERNATIVES[pos] if t != trace[pos]]
    out = list(trace)
    out[pos] = wrong[int(rng.integers(len(wrong)))]
    return tuple(out)


def make_pretrain_data(
    rng: np.random.Generator,
    n_text: int,
    n_flow: int,
    geom: TaskGeometry,
    p_noise: float = 0.25,
) -> tuple[tuple[list, list], tuple[list, np.ndarray]]:
    """Noisy supervised text columns plus exact generator targets:
    ((prompts, traces), (conds, x0)), token columns as lists of tuples and
    x0 an (n_flow, 2) array.

    Each trace is its prompt's canonical TRACE_LEN tokens, with one attribute
    token swapped for a wrong value with probability p_noise so the
    pretrained policy is imperfect and RL has headroom; x0[i] is an exact
    draw from the target distribution of the prompt whose canonical trace is
    conds[i].
    """
    if n_text <= 0 or n_flow <= 0:
        raise ValueError("n_text and n_flow must be positive")
    prompts, traces = [], []
    for _ in range(n_text):
        prompt = sample_prompt(rng)
        trace = canonical_trace(prompt)
        if rng.random() < p_noise:
            trace = _corrupt(trace, rng)
        prompts.append(prompt.tokens)
        traces.append(trace)
    conds, x0 = [], []
    for _ in range(n_flow):
        prompt = sample_prompt(rng)
        spec = target_spec(prompt.quadrant, prompt.band, prompt.spread, geom)
        x0.append(spec.mu + spec.tau * rng.standard_normal(2))
        conds.append(canonical_trace(prompt))
    return (prompts, traces), (conds, np.array(x0))

