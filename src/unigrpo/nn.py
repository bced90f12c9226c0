"""Parameter containers, MLP construction (tape and plain numpy), Adam and
the minibatch loop both pretrainings share, and the clipped PPO term both
surrogates share.

All training math is float64: at desk scale this is free and it keeps
gradient checks sharp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, NumericError


class Layout:
    """Block names, shapes and offsets of one flat float64 vector, in block
    order.  Every ParamSet, gradient and Adam moment vector derived from one
    parameter set shares its layout object."""

    __slots__ = ("spans", "size")

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # name -> (lo, hi, shape)
        self.size = 0
        for name, shape in shapes.items():
            end = self.size + int(np.prod(shape, dtype=np.int64))
            self.spans[name] = (self.size, end, shape)
            self.size = end

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named, shaped views into `vec`; writing a view writes the vector."""
        return {name: vec[lo:hi].reshape(shape) for name, (lo, hi, shape) in self.spans.items()}

    def flatten(self, blocks: dict[str, np.ndarray], prefix: str = "") -> np.ndarray:
        """One new vector from the block named `prefix` + name for each name,
        in layout order.  Without a prefix `blocks` may hold no other block."""
        unknown = [name for name in blocks if name not in self.spans]
        if unknown and not prefix:
            raise ConfigError(f"unknown parameter block '{unknown[0]}'")
        parts = [np.zeros(0)]
        for name, (_, _, shape) in self.spans.items():
            parts.append(checked_block(blocks, prefix + name, shape).reshape(-1))
        return np.concatenate(parts)

    def first_nonfinite(self, vec: np.ndarray) -> str | None:
        """Name of the block holding the first non-finite entry, if any."""
        if np.isfinite(vec).all():
            return None
        bad = int(np.flatnonzero(~np.isfinite(vec))[0])
        return next(name for name, (lo, hi, _) in self.spans.items() if lo <= bad < hi)


def checked_block(blocks: dict[str, np.ndarray], name: str, shape: tuple = ()) -> np.ndarray:
    """blocks[name] as float64 (a 0-d array by default); ConfigError naming
    the block unless it is there in `shape`."""
    if name not in blocks:
        raise ConfigError(f"missing parameter block '{name}'")
    if np.shape(blocks[name]) != shape:
        raise ConfigError(f"shape mismatch for block '{name}': {np.shape(blocks[name])} vs {shape}")
    return np.asarray(blocks[name], dtype=np.float64)


def checked_count(blocks: dict[str, np.ndarray], name: str) -> int:
    """The 0-d block `name` as an int; ConfigError naming the block unless
    it holds a non-negative integer."""
    value = float(checked_block(blocks, name))
    if not (value >= 0.0 and value.is_integer()):
        raise ConfigError(f"block '{name}' holds {value!r}, not a non-negative integer count")
    return int(value)


class ParamSet:
    """Float64 parameter blocks stored as views into one contiguous vector.

    Block names and shapes are fixed at construction; values are replaced
    functionally (every update builds a new vector), so snapshots never
    alias live parameters.
    """

    __slots__ = ("layout", "vec", "_views")

    def __init__(self, blocks: dict[str, np.ndarray]):
        layout = Layout({name: np.shape(arr) for name, arr in blocks.items()})
        self._bind(layout, layout.flatten(blocks))

    def _bind(self, layout: Layout, vec: np.ndarray) -> None:
        bad = layout.first_nonfinite(vec)
        if bad is not None:
            raise NumericError(f"non-finite values in parameter block '{bad}'")
        self.layout, self.vec, self._views = layout, vec, layout.views(vec)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._views[name]
        except KeyError:
            raise ConfigError(f"missing parameter block '{name}'") from None

    def names(self) -> list[str]:
        return list(self._views)

    def items(self):
        return self._views.items()

    def with_vector(self, vec: np.ndarray) -> "ParamSet":
        """New ParamSet over `vec` (taken, not copied) with this layout."""
        new = ParamSet.__new__(ParamSet)
        new._bind(self.layout, vec)
        return new

    def copy(self) -> "ParamSet":
        return self.with_vector(self.vec.copy())


@dataclass
class AdamState:
    """Adam moments, flat in the layout of one ParamSet, and step counter."""

    lr: float
    layout: Layout
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamSet, lr: float) -> "AdamState":
        size = params.layout.size
        return cls(lr, params.layout, np.zeros(size), np.zeros(size))

    def state_blocks(self, prefix: str) -> dict[str, np.ndarray]:
        """Moments per parameter block + counter, named for checkpointing."""
        out = {f"{prefix}.m.{k}": a for k, a in self.layout.views(self.m).items()}
        out.update({f"{prefix}.v.{k}": a for k, a in self.layout.views(self.v).items()})
        out[f"{prefix}.step"] = np.float64(self.step)
        return out

    def load_state_blocks(self, prefix: str, blocks: dict[str, np.ndarray]) -> None:
        """Inverse of state_blocks; ConfigError naming a missing or misshapen
        block, or a step that is not a count."""
        self.m = self.layout.flatten(blocks, f"{prefix}.m.")
        self.v = self.layout.flatten(blocks, f"{prefix}.v.")
        self.step = checked_count(blocks, f"{prefix}.step")


def adam_step(params: ParamSet, grads: np.ndarray, state: AdamState) -> ParamSet:
    """Bias-corrected Adam update as whole-vector ops on the gradient vector
    g = `grads` in the layout of `params`.  The one non-finite gradient check
    of training: it rejects the step, naming the block, before touching
    anything.  Builds new moment and parameter vectors, so the input
    ParamSet and earlier moment vectors are never written.  The operations
    and their order are those of
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),
    evaluated in place on two scratch vectors."""
    bad = params.layout.first_nonfinite(grads)
    if bad is not None:
        raise NumericError(f"non-finite gradient in block '{bad}'; step rejected")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    tmp = np.multiply(grads, 1.0 - b1)
    m = np.multiply(state.m, b1)
    m += tmp
    np.multiply(grads, 1.0 - b2, out=tmp)
    tmp *= grads
    v = np.multiply(state.v, b2)
    v += tmp
    state.m, state.v = m, v
    step = np.divide(m, 1.0 - b1**t)
    step *= state.lr
    np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    step /= tmp
    return params.with_vector(np.subtract(params.vec, step, out=step))


def fit(params: ParamSet, n: int, epochs: int, batch_size: int, lr: float,
        rng: np.random.Generator, batch_loss) -> tuple[ParamSet, list[float]]:
    """Minibatch Adam over n examples from a fresh optimizer state: each epoch
    walks `rng.permutation(n)` in slices of `batch_size`, and for each slice
    `sel` takes one adam_step on the gradient of batch_loss(params, sel) ->
    (loss, gradient vector, weight).  Returns the parameters and each epoch's
    loss, sum(loss * weight) / sum(weight) over its batches."""
    state = AdamState.for_params(params, lr=lr)
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total, count = 0.0, 0
        for lo in range(0, n, batch_size):
            loss, grads, weight = batch_loss(params, order[lo : lo + batch_size])
            params = adam_step(params, grads, state)
            total += loss * weight
            count += weight
        epoch_losses.append(total / count)
    return params, epoch_losses


# ---- MLP construction ----


def init_mlp_blocks(
    rng: np.random.Generator,
    arch: tuple[int, ...],
    final_zero: bool = False,
) -> dict[str, np.ndarray]:
    """Weight blocks W{i}/b{i} for a dense net with layer sizes `arch`."""
    blocks = {}
    for i in range(len(arch) - 1):
        fan_in, fan_out = arch[i], arch[i + 1]
        last = i == len(arch) - 2
        if last and final_zero:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        blocks[f"W{i}"] = w
        blocks[f"b{i}"] = np.zeros(fan_out)
    return blocks


def mlp_var(
    tape: Tape,
    params: ParamSet,
    x: Var,
    arch: tuple[int, ...],
    activation: str = "tanh",
) -> Var:
    """Differentiable MLP forward as one tape node; x is (n, arch[0]) rows or
    (S, n, arch[0]) slices.  The forward is mlp_forward_np; the backward runs
    the layers in reverse in numpy and yields gradients for x and every
    W{i}/b{i}.  Over slices each W/b gradient is summed as S nodes of one
    slice each would sum on a tape, latest reader first, and the gradient x
    gets is slice 0's, (n, arch[0]): the one slice the callers differentiate
    through."""
    n_layers = len(arch) - 1
    leaves = [tape.param(params, f"{kind}{i}") for i in range(n_layers) for kind in "Wb"]
    saved = []
    out = mlp_forward_np(params, x.value, arch, activation, saved)
    sliced = x.value.ndim == 3

    def vjp(g):
        if activation == "tanh":
            acts, slopes = saved, [1.0 - y * y for y in saved]
        else:
            acts, slopes = [], []
            for a, e, y in saved:
                s = 1.0 / e
                acts.append(y)
                slopes.append(s * (1.0 + a * (1.0 - s)))
        grads = []
        for i in range(n_layers - 1, -1, -1):
            layer_in = acts[i - 1] if i else x.value
            if sliced:
                # numpy reduces a short leading axis row by row in order, so
                # the reversed stack adds the last slice first
                grads += [g.sum(axis=1)[::-1].sum(axis=0),
                          (layer_in.transpose(0, 2, 1) @ g)[::-1].sum(axis=0)]
            else:
                grads += [g.sum(axis=0), layer_in.T @ g]
            if i:
                g = g @ params[f"W{i}"].T
                g = g * slopes[i - 1]
        g = (g[0] if sliced else g) @ params["W0"].T
        return (g, *grads[::-1])

    return tape.node(out, [x, *leaves], vjp)


def slice_blocks(param_sets: list[ParamSet], rows: int,
                 arch: tuple[int, ...]) -> dict[str, np.ndarray]:
    """mlp_forward_np's blocks for a slice of `rows` rows per parameter set,
    weights stacked and each bias copied over every row: numpy adds
    same-shape arrays in about half the time of a broadcast add, with the
    same bits.  One set gives 2-D blocks, for (rows, arch[0]) inputs."""
    blocks = {}
    for i in range(len(arch) - 1):
        blocks[f"W{i}"] = np.stack([p[f"W{i}"] for p in param_sets])
        blocks[f"b{i}"] = np.repeat(np.stack([p[f"b{i}"] for p in param_sets])[:, None], rows, 1)
    return blocks if len(param_sets) > 1 else {k: v[0] for k, v in blocks.items()}


def mlp_forward_np(
    params: ParamSet,
    x: np.ndarray,
    arch: tuple[int, ...],
    activation: str = "tanh",
    saved: list | None = None,
) -> np.ndarray:
    """Plain-numpy MLP forward, each layer in place on its matmul result; one
    gemm per slice of (S, n, arch[0]) inputs, so a slice equals its own call.
    With `saved` it appends, per hidden layer, what mlp_var's backward needs:
    the activation (tanh), or for SiLU the pre-activation h, its
    e = 1 + exp(-h) and the activation h / e."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(arch) - 1):
        h = h @ params[f"W{i}"]
        h += params[f"b{i}"]
        if i == len(arch) - 2:
            break
        if activation == "tanh":
            np.tanh(h, out=h)
            if saved is not None:
                saved.append(h)
        else:  # SiLU: h / (1 + exp(-h))
            e = np.negative(h)
            np.exp(e, out=e)
            e += 1.0
            if saved is None:
                np.divide(h, e, out=h)
            else:
                saved.append((h, e, h / e))
                h = saved[-1][2]
    return h


# ---- clipped surrogate term ----


@dataclass
class LossStats:
    """The importance ratios one surrogate evaluation clipped, one per row,
    plus the regularizer value where the surrogate has one."""

    ratio: np.ndarray
    clip_fraction: float  # share of rows with |ratio - 1| > clip_eps
    reg_value: float = 0.0


def clipped_objective(ratio: np.ndarray, adv: np.ndarray, weight: np.ndarray, clip_eps: float):
    """sum(weight * min(ratio * adv, clip(ratio, 1 - eps, 1 + eps) * adv)), its
    VJP g -> gradient w.r.t. ratio, and the ratios' LossStats.  Ties go to
    the unclipped term, and the clipped term passes gradient only strictly
    inside the clip range."""
    lo, hi = 1.0 - clip_eps, 1.0 + clip_eps
    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    take = unclipped <= clipped
    inside = (ratio > lo) & (ratio < hi)

    def vjp(g):
        g = g * weight
        return g * ~take * adv * inside + g * take * adv

    stats = LossStats(ratio, float(np.mean(np.abs(ratio - 1.0) > clip_eps)))
    return np.sum(np.where(take, unclipped, clipped) * weight), vjp, stats
