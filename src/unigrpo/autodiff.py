"""Reverse-mode differentiation over numpy arrays on an explicit tape.

A ``Tape`` records a fixed sequence of primitive array operations with
cached forward values; replaying it backward yields gradients for every
leaf it touched.  Only the primitives needed by the policies and losses
in this package exist, everything runs in float64, and shapes stay small,
which keeps the whole engine easy to audit against finite differences.

Subgradient conventions at kinks (ties in ``minimum``, clip boundaries)
are fixed and documented on the ops; random inputs hit them with
probability zero, so finite-difference checks remain sharp.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Var:
    """Handle to one tape node; carries the cached forward value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __add__(self, other):
        if isinstance(other, Var):
            return self.tape.add(self, other)
        return self.tape.cadd(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return self.tape.sub(self, other)
        return self.tape.cadd(self, -_f64(other))

    def __rsub__(self, other):
        return self.tape.cadd(self.tape.cmul(self, -1.0), other)

    def __mul__(self, other):
        if isinstance(other, Var):
            return self.tape.mul(self, other)
        return self.tape.cmul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape.cmul(self, -1.0)


class Tape:
    """Operation recorder; use one fresh instance per differentiable evaluation."""

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Callable | None] = []
        # Named parameter leaves (block name -> Var) and their source set.
        self.params: dict[str, Var] = {}
        self.param_source = None
        self.output: Var | None = None

    def __len__(self) -> int:
        return len(self._values)

    def _push(self, value: np.ndarray, parents: tuple[int, ...] = (), vjp=None) -> Var:
        idx = len(self._values)
        self._values.append(value)
        self._parents.append(parents)
        self._vjps.append(vjp)
        return Var(self, idx, value)

    # ---- leaves ----

    def leaf(self, value) -> Var:
        return self._push(_f64(value))

    def param(self, param_set, name: str) -> Var:
        """Register (once) a named leaf backed by a parameter block."""
        if self.param_source is None:
            self.param_source = param_set
        elif self.param_source is not param_set:
            raise ValueError("one tape may only draw named parameters from one ParamSet")
        if name not in self.params:
            self.params[name] = self.leaf(param_set[name])
        return self.params[name]

    def node(self, value: np.ndarray, inputs: Sequence[Var], vjp: Callable) -> Var:
        """Record an op computed outside the tape; vjp(g) gives one gradient per input."""
        return self._push(value, tuple(v.idx for v in inputs), vjp)

    # ---- elementwise arithmetic ----

    def add(self, a: Var, b: Var) -> Var:
        assert a.shape == b.shape, (a.shape, b.shape)
        return self._push(a.value + b.value, (a.idx, b.idx), lambda g: (g, g))

    def sub(self, a: Var, b: Var) -> Var:
        assert a.shape == b.shape, (a.shape, b.shape)
        return self._push(a.value - b.value, (a.idx, b.idx), lambda g: (g, -g))

    def mul(self, a: Var, b: Var) -> Var:
        assert a.shape == b.shape, (a.shape, b.shape)
        av, bv = a.value, b.value
        return self._push(av * bv, (a.idx, b.idx), lambda g: (g * bv, g * av))

    def cadd(self, a: Var, c) -> Var:
        c = _f64(c)
        out = a.value + c
        assert out.shape == a.shape, "constant must broadcast into the Var's shape"
        return self._push(out, (a.idx,), lambda g: (g,))

    def cmul(self, a: Var, c) -> Var:
        c = _f64(c)
        out = a.value * c
        assert out.shape == a.shape, "constant must broadcast into the Var's shape"
        return self._push(out, (a.idx,), lambda g: (g * c,))

    # ---- linear algebra ----

    def cmatmul(self, c, b: Var) -> Var:
        """Constant matrix times Var: used for fixed pooling/averaging maps."""
        c = _f64(c)
        return self._push(c @ b.value, (b.idx,), lambda g: (c.T @ g,))

    def bias_add(self, x: Var, b: Var) -> Var:
        """Add a (d,) bias row to every row of an (n, d) matrix."""
        assert x.value.ndim == 2 and b.value.shape == (x.value.shape[1],)
        return self._push(x.value + b.value, (x.idx, b.idx), lambda g: (g, g.sum(axis=0)))

    # ---- nonlinearities ----

    def exp(self, x: Var) -> Var:
        y = np.exp(x.value)
        return self._push(y, (x.idx,), lambda g: (g * y,))

    def square(self, x: Var) -> Var:
        xv = x.value
        return self._push(xv * xv, (x.idx,), lambda g: (2.0 * xv * g,))

    def softmax(self, x: Var) -> Var:
        """Row softmax of a 2-D array (stable under large logits)."""
        z = x.value - x.value.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        return self._push(
            y, (x.idx,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),)
        )

    def log_softmax(self, x: Var) -> Var:
        z = x.value - x.value.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
        y = z - lse
        p = np.exp(y)
        return self._push(y, (x.idx,), lambda g: (g - p * g.sum(axis=-1, keepdims=True),))

    # ---- reductions and shape ops ----

    def sum(self, x: Var) -> Var:
        shape = x.shape
        return self._push(
            _f64(x.value.sum()), (x.idx,), lambda g: (np.broadcast_to(g, shape).copy(),)
        )

    def sum_rows(self, x: Var) -> Var:
        """(n, d) -> (n,) sum over the last axis."""
        assert x.value.ndim == 2
        d = x.value.shape[1]
        return self._push(
            x.value.sum(axis=1), (x.idx,), lambda g: (np.repeat(g[:, None], d, axis=1),)
        )

    def reshape(self, x: Var, shape: Sequence[int]) -> Var:
        orig = x.shape
        return self._push(x.value.reshape(shape), (x.idx,), lambda g: (g.reshape(orig),))

    def concat(self, parts: Sequence[Var], axis: int = 1) -> Var:
        vals = [p.value for p in parts]
        sizes = [v.shape[axis] for v in vals]
        offsets = np.cumsum([0] + sizes)

        def vjp(g):
            return tuple(
                np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                for i in range(len(vals))
            )

        return self._push(np.concatenate(vals, axis=axis), tuple(p.idx for p in parts), vjp)

    def gather_rows(self, table: Var, ids) -> Var:
        """Row lookup (embedding gather); gradients scatter-add."""
        ids = np.asarray(ids, dtype=np.int64)
        tv = table.value

        def vjp(g):
            out = np.zeros_like(tv)
            np.add.at(out, ids, g)
            return (out,)

        return self._push(tv[ids], (table.idx,), vjp)

    def select_cols(self, x: Var, cols) -> Var:
        """Per-row column pick: (n, d), (n,) -> (n,)."""
        cols = np.asarray(cols, dtype=np.int64)
        n = x.value.shape[0]
        rows = np.arange(n)

        def vjp(g):
            out = np.zeros_like(x.value)
            out[rows, cols] = g
            return (out,)

        return self._push(x.value[rows, cols], (x.idx,), vjp)

    # ---- piecewise ops ----

    def minimum(self, a: Var, b: Var) -> Var:
        """Elementwise min; ties route the gradient to the first argument."""
        assert a.shape == b.shape
        take_a = a.value <= b.value
        return self._push(
            np.where(take_a, a.value, b.value),
            (a.idx, b.idx),
            lambda g: (g * take_a, g * ~take_a),
        )

    def clip(self, x: Var, lo: float, hi: float) -> Var:
        """Clamp; gradient passes only strictly inside (lo, hi)."""
        inside = (x.value > lo) & (x.value < hi)
        return self._push(np.clip(x.value, lo, hi), (x.idx,), lambda g: (g * inside,))

    # ---- backward ----

    def backward(self, seed=1.0, output: Var | None = None) -> list:
        """Gradients (indexed by node) of the output w.r.t. every node."""
        out = output if output is not None else self.output
        if out is None:
            raise ValueError("tape has no output Var")
        seed = _f64(seed)
        if seed.shape != out.shape:
            raise ValueError(f"seed shape {seed.shape} != output shape {out.shape}")
        grads: list = [None] * len(self._values)
        grads[out.idx] = seed
        for i in range(out.idx, -1, -1):
            g = grads[i]
            if g is None or not self._parents[i]:
                continue
            for pidx, pg in zip(self._parents[i], self._vjps[i](g)):
                if grads[pidx] is None:
                    grads[pidx] = pg
                else:
                    grads[pidx] = grads[pidx] + pg
        return grads

    def param_grads(self, seed=1.0, output: Var | None = None) -> dict[str, np.ndarray]:
        """Gradients for the registered parameter leaves (zeros if untouched).
        Then drops the leaves, the output and the VJP closures, whose Vars point
        back at the tape, so that reference counting frees it; len() still counts
        its nodes."""
        grads = self.backward(seed, output)
        out = {}
        for name, var in self.params.items():
            g = grads[var.idx]
            out[name] = np.zeros_like(var.value) if g is None else g
        self.params, self.output, self._vjps = {}, None, []
        return out
