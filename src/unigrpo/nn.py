"""Parameter containers, MLP construction (tape and plain numpy), Adam, and a
finite-difference oracle.

All training math is float64: at desk scale this is free and it keeps
gradient checks sharp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, NumericError


class ParamSet:
    """Named, shaped float64 parameter blocks.

    Block names and shapes are fixed at construction; values are replaced
    functionally by the optimizer so snapshots never alias live parameters.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: dict[str, np.ndarray]):
        self._blocks = {}
        for name, arr in blocks.items():
            arr = np.array(arr, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite values in parameter block '{name}'")
            self._blocks[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._blocks[name]
        except KeyError:
            raise ConfigError(f"missing parameter block '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def names(self) -> list[str]:
        return list(self._blocks)

    def items(self):
        return self._blocks.items()

    def copy(self) -> "ParamSet":
        return ParamSet(self._blocks)

    def with_blocks(self, updates: dict[str, np.ndarray]) -> "ParamSet":
        """New ParamSet with some blocks replaced; names/shapes must match."""
        merged = dict(self._blocks)
        for name, arr in updates.items():
            if name not in merged:
                raise ConfigError(f"unknown parameter block '{name}'")
            if np.shape(arr) != merged[name].shape:
                raise ConfigError(
                    f"shape mismatch for block '{name}': "
                    f"{np.shape(arr)} vs {merged[name].shape}"
                )
            merged[name] = arr
        return ParamSet(merged)


class GradSet:
    """Gradient accumulator, shape-congruent with one ParamSet."""

    __slots__ = ("_blocks",)

    def __init__(self, params: ParamSet):
        self._blocks = {name: np.zeros_like(arr) for name, arr in params.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name]

    def items(self):
        return self._blocks.items()

    def add_(self, grads: dict[str, np.ndarray] | "GradSet") -> "GradSet":
        for name, g in grads.items():
            if name not in self._blocks:
                raise ConfigError(f"gradient for unknown block '{name}'")
            if g.shape != self._blocks[name].shape:
                raise ConfigError(
                    f"gradient shape mismatch for block '{name}': "
                    f"{g.shape} vs {self._blocks[name].shape}"
                )
            self._blocks[name] += g
        return self

    def scale_(self, c: float) -> "GradSet":
        for g in self._blocks.values():
            g *= c
        return self

    def first_nonfinite_block(self) -> str | None:
        for name, g in self._blocks.items():
            if not np.all(np.isfinite(g)):
                return name
        return None


@dataclass
class AdamState:
    """Adam moments and step counter for one ParamSet."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamSet, lr: float, **kw) -> "AdamState":
        st = cls(lr=lr, **kw)
        st.m = {name: np.zeros_like(a) for name, a in params.items()}
        st.v = {name: np.zeros_like(a) for name, a in params.items()}
        return st

    def state_blocks(self, prefix: str) -> dict[str, np.ndarray]:
        """Flatten moments + counter into named blocks for checkpointing."""
        out = {f"{prefix}.m.{k}": v for k, v in self.m.items()}
        out.update({f"{prefix}.v.{k}": v for k, v in self.v.items()})
        out[f"{prefix}.step"] = np.float64(self.step)
        return out

    def load_state_blocks(self, prefix: str, blocks: dict[str, np.ndarray]) -> None:
        for k in self.m:
            self.m[k] = np.array(blocks[f"{prefix}.m.{k}"])
            self.v[k] = np.array(blocks[f"{prefix}.v.{k}"])
        self.step = int(blocks[f"{prefix}.step"])


def adam_step(params: ParamSet, grads: GradSet, state: AdamState) -> ParamSet:
    """Bias-corrected Adam update; rejects non-finite gradients untouched."""
    bad = grads.first_nonfinite_block()
    if bad is not None:
        raise NumericError(f"non-finite gradient in block '{bad}'; step rejected")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    new_blocks = {}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        new_blocks[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    updated = params.with_blocks(new_blocks)
    return updated


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


_ACTIVATIONS = ("tanh", "silu")


def mlp_var(
    tape: Tape,
    params: ParamSet,
    x: Var,
    arch: tuple[int, ...],
    activation: str = "tanh",
) -> Var:
    """Differentiable MLP forward on an existing tape; x is (n, arch[0])."""
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation '{activation}'")
    if x.value.ndim != 2 or x.value.shape[1] != arch[0]:
        raise ConfigError(
            f"input shape {x.value.shape} incompatible with arch[0]={arch[0]}"
        )
    h = x
    for i in range(len(arch) - 1):
        wname, bname = f"W{i}", f"b{i}"
        w = tape.param(params, wname)
        if w.value.shape != (arch[i], arch[i + 1]):
            raise ConfigError(
                f"shape mismatch for block '{wname}': "
                f"{w.value.shape} vs expected {(arch[i], arch[i + 1])}"
            )
        b = tape.param(params, bname)
        if b.value.shape != (arch[i + 1],):
            raise ConfigError(
                f"shape mismatch for block '{bname}': "
                f"{b.value.shape} vs expected {(arch[i + 1],)}"
            )
        h = tape.affine(h, w, b)
        if i < len(arch) - 2:
            h = tape.tanh(h) if activation == "tanh" else tape.silu(h)
    return h


def mlp_forward_np(
    params: ParamSet,
    x: np.ndarray,
    arch: tuple[int, ...],
    activation: str = "tanh",
) -> np.ndarray:
    """Plain-numpy MLP forward (no tape); used on rollout hot paths."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(len(arch) - 1):
        h = h @ params[f"W{i}"] + params[f"b{i}"]
        if i < len(arch) - 2:
            if activation == "tanh":
                h = np.tanh(h)
            else:
                h = h / (1.0 + np.exp(-h))
    return h


# ---- finite-difference gradient oracle ----


@dataclass
class FdProbe:
    block: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class FdReport:
    probes: list[FdProbe]
    tol: float
    aborted: bool = False
    reason: str = ""

    @property
    def max_rel_err(self) -> float:
        return max((p.rel_err for p in self.probes), default=0.0)

    @property
    def failing_blocks(self) -> list[str]:
        return sorted({p.block for p in self.probes if p.rel_err > self.tol})

    @property
    def passed(self) -> bool:
        return not self.aborted and not self.failing_blocks


def finite_diff_check(
    loss_fn,
    params: ParamSet,
    probes: int = 100,
    tol: float = 1e-4,
    h: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> FdReport:
    """Compare loss_fn's analytic gradient to central differences.

    loss_fn maps ParamSet -> (scalar, GradSet) and must be deterministic;
    two evaluations at identical params are required to agree exactly or
    the check aborts.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    v1, grads = loss_fn(params)
    v2, _ = loss_fn(params)
    if v1 != v2:
        return FdReport(
            probes=[], tol=tol, aborted=True,
            reason=f"loss_fn not deterministic: {v1!r} != {v2!r}",
        )

    names = params.names()
    sizes = np.array([params[n].size for n in names], dtype=np.float64)
    weights = sizes / sizes.sum()
    results: list[FdProbe] = []
    for _ in range(probes):
        block = names[rng.choice(len(names), p=weights)]
        flat = int(rng.integers(params[block].size))
        base = params[block].reshape(-1)[flat]

        def perturbed(delta):
            arr = params[block].copy()
            arr.reshape(-1)[flat] = base + delta
            return params.with_blocks({block: arr})

        up, _ = loss_fn(perturbed(+h))
        dn, _ = loss_fn(perturbed(-h))
        numeric = (up - dn) / (2.0 * h)
        analytic = float(grads[block].reshape(-1)[flat])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        results.append(
            FdProbe(block, flat, analytic, float(numeric), abs(analytic - numeric) / denom)
        )
    return FdReport(probes=results, tol=tol)
