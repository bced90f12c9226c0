"""The scalar terminal reward: one sample against one prompt id.

This is the formula `unigrpo.task.score` evaluates over whole arrays of
rows.  The reward oracle holds `score` to it bit for bit, row by row, and
the per-prompt evaluation reference in test_trainer.py scores with it.  It
decodes a prompt id with its own arithmetic, not through `task`'s tables,
and writes the task's geometry out itself, so a changed `task` constant
shows as a mismatch.
"""

from __future__ import annotations

import numpy as np

# each quadrant's unit direction, quadrants 1-4 counterclockwise from northeast
QUAD_DIRS = {1: np.array([1.0, 1.0]) / np.sqrt(2.0), 2: np.array([-1.0, 1.0]) / np.sqrt(2.0),
             3: np.array([-1.0, -1.0]) / np.sqrt(2.0), 4: np.array([1.0, -1.0]) / np.sqrt(2.0)}
RADIUS = {"near": 0.5, "far": 1.5}    # target radius of each band
TAU = {"tight": 0.1, "wide": 0.25}    # target spread of each spread value
TAU_R = 0.5                           # width of the smooth reward
BAND_SPLIT = 1.0                      # binary reward: radii below it are near


def decode(prompt_id: int) -> tuple[int, str, str]:
    """(quadrant, band, spread) of a prompt id: 27 synonym triples per
    attribute tuple, tuples in (quadrant, band, spread) order."""
    tup = divmod(int(prompt_id), 27)[0]
    quad, rest = divmod(tup, 4)
    band, spread = divmod(rest, 2)
    return quad + 1, ("near", "far")[band], ("tight", "wide")[spread]


def reference_target(prompt_id: int) -> tuple[np.ndarray, float]:
    """The Gaussian target of a prompt id: its mean and spread."""
    quadrant, band, spread = decode(prompt_id)
    return RADIUS[band] * QUAD_DIRS[quadrant], TAU[spread]


def reference_reward(x0: np.ndarray, prompt_id: int, reward_mode: str) -> float:
    """Sparse terminal reward in [0, 1]; non-finite samples score 0."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x0)):
        return 0.0
    quadrant, band, _ = decode(prompt_id)
    mu, _ = reference_target(prompt_id)
    if reward_mode == "binary":
        d = QUAD_DIRS[quadrant]
        in_quad = np.sign(x0[0]) == np.sign(d[0]) and np.sign(x0[1]) == np.sign(d[1])
        r = float(np.linalg.norm(x0))
        in_band = (r < BAND_SPLIT) == (band == "near")
        return 1.0 if (in_quad and in_band) else 0.0
    dist2 = float(np.sum((x0 - mu) ** 2))
    return float(np.exp(-dist2 / (2.0 * TAU_R**2)))
