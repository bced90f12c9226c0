"""Reverse-mode differentiation over numpy arrays: a node recorder.

A ``Tape`` records leaves (constants and named parameter blocks) and nodes
whose forward values are computed outside it, each with a numpy VJP that
maps the node's output gradient to one gradient per input.  Replaying the
nodes backward yields gradients for every leaf they touched.  The losses
in this package record a handful of fused nodes per tape (an input
layout, the MLP, one loss head), all in float64, which keeps each VJP
small enough to audit against finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Var:
    """Handle to one tape node; carries the cached forward value."""

    __slots__ = ("idx", "value")

    def __init__(self, idx: int, value: np.ndarray):
        self.idx = idx
        self.value = value


class Tape:
    """Node recorder; use one fresh instance per differentiable evaluation."""

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
        return Var(idx, value)

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

    def backward(self, seed=1.0) -> list:
        """Gradients (indexed by node) of `output` w.r.t. every node.  A node
        read by several others gets their gradients summed, latest reader first."""
        out = self.output
        if out is None:
            raise ValueError("tape has no output Var")
        seed = _f64(seed)
        if seed.shape != out.value.shape:
            raise ValueError(f"seed shape {seed.shape} != output shape {out.value.shape}")
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

    def param_grads(self, seed=1.0) -> np.ndarray:
        """Gradients for the registered parameter leaves as one new vector in
        the layout of their ParamSet; blocks the output does not reach stay zero."""
        grads = self.backward(seed)
        vec = np.zeros(self.param_source.layout.size)
        views = self.param_source.layout.views(vec)
        for name, var in self.params.items():
            g = grads[var.idx]
            if g is not None:
                if g.shape != var.value.shape:
                    raise ValueError(f"gradient shape {g.shape} for block '{name}', "
                                     f"expected {var.value.shape}")
                views[name][...] = g
        return vec
