"""The scalar terminal reward: one sample against one prompt.

This is the formula `unigrpo.task.score` evaluates over whole arrays of
rows.  The reward oracle holds `score` to it bit for bit, row by row, and
the per-prompt evaluation reference in test_trainer.py scores with it.
"""

from __future__ import annotations

import numpy as np

from unigrpo.task import _QUAD_DIR, Prompt, TaskGeometry, target_spec


def reference_reward(x0: np.ndarray, prompt: Prompt, geom: TaskGeometry) -> float:
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
