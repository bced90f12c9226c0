"""The per-op tape the losses were built from before their fused heads.

`OpTape` adds one recorded node per primitive array operation to
`unigrpo.autodiff.Tape`, with the forward values and VJPs the package's
losses used to chain: elementwise arithmetic, log-softmax, clipping,
row sums and the like.  The fused-head oracles rebuild each loss from
these ops and require the same value and gradients; test_autodiff.py
checks every op against finite differences.  `reference_velocity` is the
velocity net as the samplers called it before they built its input rows
once per pass, the oracle for those rows; under guidance it combines
`reference_branches`, each branch from its own forward.
`reference_adam_step` is Adam as one expression per moment, the oracle for
the in-place `adam_step`.
`trace_tokens` reads a trace row one token at a time, the oracle for the
array readers of the token format (`task.trace_lengths` and its callers).
`sde_step_values`, `transition_logprob`, `ratio_norm` and `latent_kl` are
the flow's Gaussian transition one step at a time, from its scalar
formulas: the references for `StepTable.transition_mean`, the samplers'
window steps and the flow surrogate's ratio and latent-kl penalty.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from unigrpo.autodiff import Tape, Var
from unigrpo.flow_policy import cfg_velocity, drift_coefficients, time_features
from unigrpo.nn import mlp_forward_np
from unigrpo.task import EOS


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class OpTape(Tape):
    # ---- elementwise arithmetic ----

    def add(self, a: Var, b: Var) -> Var:
        assert a.value.shape == b.value.shape
        return self.node(a.value + b.value, [a, b], lambda g: (g, g))

    def sub(self, a: Var, b: Var) -> Var:
        assert a.value.shape == b.value.shape
        return self.node(a.value - b.value, [a, b], lambda g: (g, -g))

    def mul(self, a: Var, b: Var) -> Var:
        assert a.value.shape == b.value.shape
        av, bv = a.value, b.value
        return self.node(av * bv, [a, b], lambda g: (g * bv, g * av))

    def cadd(self, a: Var, c) -> Var:
        out = a.value + _f64(c)
        assert out.shape == a.value.shape, "constant must broadcast into the Var's shape"
        return self.node(out, [a], lambda g: (g,))

    def cmul(self, a: Var, c) -> Var:
        c = _f64(c)
        out = a.value * c
        assert out.shape == a.value.shape, "constant must broadcast into the Var's shape"
        return self.node(out, [a], lambda g: (g * c,))

    # ---- linear algebra ----

    def cmatmul(self, c, b: Var) -> Var:
        """Constant matrix times Var."""
        c = _f64(c)
        return self.node(c @ b.value, [b], lambda g: (c.T @ g,))

    def bias_add(self, x: Var, b: Var) -> Var:
        """Add a (d,) bias row to every row of an (n, d) matrix."""
        assert x.value.ndim == 2 and b.value.shape == (x.value.shape[1],)
        return self.node(x.value + b.value, [x, b], lambda g: (g, g.sum(axis=0)))

    # ---- nonlinearities ----

    def exp(self, x: Var) -> Var:
        y = np.exp(x.value)
        return self.node(y, [x], lambda g: (g * y,))

    def square(self, x: Var) -> Var:
        xv = x.value
        return self.node(xv * xv, [x], lambda g: (2.0 * xv * g,))

    def softmax(self, x: Var) -> Var:
        """Row softmax of a 2-D array (stable under large logits)."""
        z = x.value - x.value.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        return self.node(y, [x], lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))

    def log_softmax(self, x: Var) -> Var:
        z = x.value - x.value.max(axis=-1, keepdims=True)
        y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        p = np.exp(y)
        return self.node(y, [x], lambda g: (g - p * g.sum(axis=-1, keepdims=True),))

    # ---- reductions and shape ops ----

    def sum(self, x: Var) -> Var:
        shape = x.value.shape
        return self.node(_f64(x.value.sum()), [x],
                         lambda g: (np.broadcast_to(g, shape).copy(),))

    def sum_rows(self, x: Var) -> Var:
        """(n, d) -> (n,) sum over the last axis."""
        assert x.value.ndim == 2
        d = x.value.shape[1]
        return self.node(x.value.sum(axis=1), [x], lambda g: (np.repeat(g[:, None], d, axis=1),))

    def reshape(self, x: Var, shape: Sequence[int]) -> Var:
        orig = x.value.shape
        return self.node(x.value.reshape(shape), [x], lambda g: (g.reshape(orig),))

    def concat(self, parts: Sequence[Var], axis: int = 1) -> Var:
        vals = [p.value for p in parts]
        offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

        def vjp(g):
            return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                         for i in range(len(vals)))

        return self.node(np.concatenate(vals, axis=axis), parts, vjp)

    def gather_rows(self, table: Var, ids) -> Var:
        """Row lookup (embedding gather); gradients scatter-add."""
        ids = np.asarray(ids, dtype=np.int64)
        tv = table.value

        def vjp(g):
            out = np.zeros_like(tv)
            np.add.at(out, ids, g)
            return (out,)

        return self.node(tv[ids], [table], vjp)

    def select_cols(self, x: Var, cols) -> Var:
        """Per-row column pick: (n, d), (n,) -> (n,)."""
        cols = np.asarray(cols, dtype=np.int64)
        rows = np.arange(x.value.shape[0])

        def vjp(g):
            out = np.zeros_like(x.value)
            out[rows, cols] = g
            return (out,)

        return self.node(x.value[rows, cols], [x], vjp)

    # ---- piecewise ops ----

    def minimum(self, a: Var, b: Var) -> Var:
        """Elementwise min; ties route the gradient to the first argument."""
        assert a.value.shape == b.value.shape
        take_a = a.value <= b.value
        return self.node(np.where(take_a, a.value, b.value), [a, b],
                         lambda g: (g * take_a, g * ~take_a))

    def clip(self, x: Var, lo: float, hi: float) -> Var:
        """Clamp; gradient passes only strictly inside (lo, hi)."""
        inside = (x.value > lo) & (x.value < hi)
        return self.node(np.clip(x.value, lo, hi), [x], lambda g: (g * inside,))


# ---- the velocity net at one time per call ----


def reference_velocity(policy, params, x, t, cond, cfg_scale=1.0) -> np.ndarray:
    """Velocity at (x, t) given one pooled condition per row, as it was
    computed before the samplers built their inputs once per pass: the time
    features of t broadcast to every row, concatenated with x and the
    condition on every call; under guidance the branches of
    reference_branches combined."""
    if cfg_scale != 1.0:
        return cfg_velocity(*reference_branches(policy, params, x, t, cond), cfg_scale)
    x = np.atleast_2d(_f64(x))
    feats = time_features(np.broadcast_to(_f64(t), (x.shape[0],)))
    return mlp_forward_np(params, np.concatenate([x, feats, np.atleast_2d(cond)], axis=1),
                          policy.arch, "tanh")


def reference_branches(policy, params, x, t, cond) -> tuple[np.ndarray, np.ndarray]:
    """The conditional and unconditional velocity at (x, t), each from its
    own forward over the rows [x | features | cond] and [x | features | 0]."""
    cond = np.atleast_2d(cond)
    return (reference_velocity(policy, params, x, t, cond),
            reference_velocity(policy, params, x, t, np.zeros_like(cond)))


# ---- Adam as one expression per moment ----


def reference_adam_step(vec, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Step t of bias-corrected Adam as `adam_step` computed it before it
    reused its temporaries: returns the new (vec, m, v)."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return vec - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def trace_tokens(row) -> list[int]:
    """The trace a trace row holds: its tokens through the first EOS, or
    all of them when it has none."""
    out = []
    for tok in row:
        out.append(int(tok))
        if tok == EOS:
            break
    return out


# ---- the flow's Gaussian transition, one step at a time ----


def sde_step_values(x, v, t, dt, sigma_t, eps):
    """(mu, s, x_next) of one noise-injected step from x at the velocity v."""
    c1, c2 = drift_coefficients(t, sigma_t)
    mu = x - (c1 * v + c2 * x) * dt
    s = sigma_t * np.sqrt(dt)
    return mu, s, mu + s * eps


def transition_logprob(mu, s: float, x_next):
    """Isotropic Gaussian log-density of x_next under N(mu, s^2 I), taken over
    the last axis: a float for one point, an array for a batch of rows."""
    mu = _f64(mu)
    d = mu.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * s * s)
            - np.sum((_f64(x_next) - mu) ** 2, axis=-1) / (2.0 * s * s))


def ratio_norm(log_r: float, dmu, sigma_t: float, dt: float) -> float:
    """Standardized importance ratio: the log ratio shifted by its Gaussian
    expectation |dmu|^2 / 2s^2 and scaled by the transition std s."""
    correction = float(np.sum(_f64(dmu) ** 2)) / (2.0 * sigma_t**2 * dt)
    return float(np.exp(sigma_t * np.sqrt(dt) * (log_r + correction)))


def latent_kl(mu_theta, mu_ref, sigma_t: float, dt: float) -> float:
    """Exact KL between equal-variance Gaussian transitions."""
    return float(np.sum((_f64(mu_theta) - _f64(mu_ref)) ** 2) / (2.0 * sigma_t**2 * dt))
