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
    for q in QUADRANTS:
        ids = tuple(range(next_id, next_id + N_SYNONYMS))
        SURFACE_QUAD[q] = ids
        TOKEN_NAMES.extend(_SURFACE_WORDS[("quad", q)])
        next_id += N_SYNONYMS
    for b in BANDS:
        ids = tuple(range(next_id, next_id + N_SYNONYMS))
        SURFACE_BAND[b] = ids
        TOKEN_NAMES.extend(_SURFACE_WORDS[("band", b)])
        next_id += N_SYNONYMS
    for s in SPREADS:
        ids = tuple(range(next_id, next_id + N_SYNONYMS))
        SURFACE_SPREAD[s] = ids
        TOKEN_NAMES.extend(_SURFACE_WORDS[("spread", s)])
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


@dataclass(frozen=True)
class RewardRecord:
    """Scalar score of one terminal sample and whether the sample was finite;
    reproducible by construction since the reward is a pure function of the
    sample and its prompt."""

    reward: float
    finite: bool


def score(x0: np.ndarray, prompt: Prompt, geom: TaskGeometry) -> RewardRecord:
    return RewardRecord(reward(x0, prompt, geom), bool(np.all(np.isfinite(x0))))


def reward(x0: np.ndarray, prompt: Prompt, geom: TaskGeometry) -> float:
    """Sparse terminal reward in [0, 1]; non-finite samples score 0."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x0)):
        return 0.0
    spec = target_spec(prompt.quadrant, prompt.band, prompt.spread, geom)
    if geom.reward_mode == "binary":
        d = _QUAD_DIR[prompt.quadrant]
        in_quad = np.sign(x0[0]) == np.sign(d[0]) and np.sign(x0[1]) == np.sign(d[1])
        r = float(np.linalg.norm(x0))
        in_band = (r < geom.band_split) == (prompt.band == "near")
        return 1.0 if (in_quad and in_band) else 0.0
    dist2 = float(np.sum((x0 - spec.mu) ** 2))
    return float(np.exp(-dist2 / (2.0 * geom.tau_r**2)))


# ---- pretraining data ----


@dataclass(frozen=True)
class TextPair:
    prompt_tokens: tuple[int, ...]
    trace_tokens: tuple[int, ...]
    corrupted: bool


@dataclass(frozen=True)
class FlowPair:
    cond_tokens: tuple[int, ...]
    x0: np.ndarray


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
) -> tuple[list[TextPair], list[FlowPair]]:
    """Noisy supervised text pairs plus exact generator targets.

    Text traces carry token corruption with probability p_noise so the
    pretrained policy is imperfect and RL has headroom; flow samples are
    exact draws from the prompt's target distribution.
    """
    if n_text <= 0 or n_flow <= 0:
        raise ValueError("n_text and n_flow must be positive")
    text_pairs = []
    for _ in range(n_text):
        prompt = sample_prompt(rng)
        trace = canonical_trace(prompt)
        corrupted = bool(rng.random() < p_noise)
        if corrupted:
            trace = _corrupt(trace, rng)
        text_pairs.append(TextPair(prompt.tokens, trace, corrupted))
    flow_pairs = []
    for _ in range(n_flow):
        prompt = sample_prompt(rng)
        spec = target_spec(prompt.quadrant, prompt.band, prompt.spread, geom)
        x0 = spec.mu + spec.tau * rng.standard_normal(2)
        flow_pairs.append(FlowPair(canonical_trace(prompt), x0))
    return text_pairs, flow_pairs

