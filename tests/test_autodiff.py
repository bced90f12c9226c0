"""Tape recorder contracts, and finite-difference checks of the per-op
reference tape (tests/reference_ops.py) that the fused-head oracles
rebuild each loss from."""

import gc
import weakref

import numpy as np
import pytest
from reference_ops import OpTape

from unigrpo.autodiff import Tape
from unigrpo.nn import ParamSet, mlp_var
from unigrpo.text_policy import softmax_np


def _fd_scalar(fn, x, h=1e-6):
    """Central-difference gradient of a scalar fn of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        dn = fn(x)
        flat[i] = orig
        gf[i] = (up - dn) / (2 * h)
    return g


def _check_unary(build, x, tol=1e-7):
    """build(tape, var) -> Var; compares tape grad of sum(weighted out) to FD."""
    rng = np.random.default_rng(7)

    def scalar(arr):
        t = OpTape()
        v = t.leaf(arr)
        out = build(t, v)
        return float((out.value * w).sum())

    t = OpTape()
    v = t.leaf(x)
    out = build(t, v)
    w = rng.normal(size=out.value.shape)
    t.output = out
    grads = t.backward(w)
    analytic = grads[v.idx]
    numeric = _fd_scalar(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def _activation(name):
    """The fused MLP node's hidden activation alone: identity weights, zero biases."""
    eye = ParamSet({"W0": np.eye(5), "b0": np.zeros(5), "W1": np.eye(5), "b1": np.zeros(5)})
    return lambda t, v: mlp_var(t, eye, v, (5, 5, 5), name)


@pytest.mark.parametrize(
    "name",
    ["tanh", "silu", "exp", "square", "softmax", "log_softmax", "sum_rows"],
)
def test_unary_op_gradients(name):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    if name in ("tanh", "silu"):
        _check_unary(_activation(name), x)
    else:
        _check_unary(lambda t, v: getattr(t, name)(v), x)


def test_sum_and_reshape_and_clip_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    _check_unary(lambda t, v: t.reshape(t.square(v), (4, 3)), x)
    _check_unary(lambda t, v: t.clip(v, -0.5, 0.5), x)

    t = OpTape()
    v = t.leaf(x)
    s = t.sum(v)
    t.output = s
    grads = t.backward(1.0)
    np.testing.assert_array_equal(grads[v.idx], np.ones_like(x))


def test_binary_op_gradients():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))

    for op in ("add", "sub", "mul", "minimum"):
        t = OpTape()
        a, b = t.leaf(a0), t.leaf(b0)
        out = getattr(t, op)(a, b)
        w = rng.normal(size=out.value.shape)
        t.output = out
        grads = t.backward(w)

        def scalar_a(arr):
            t2 = OpTape()
            return float((getattr(t2, op)(t2.leaf(arr), t2.leaf(b0)).value * w).sum())

        def scalar_b(arr):
            t2 = OpTape()
            return float((getattr(t2, op)(t2.leaf(a0), t2.leaf(arr)).value * w).sum())

        np.testing.assert_allclose(grads[a.idx], _fd_scalar(scalar_a, a0.copy()), atol=1e-7)
        np.testing.assert_allclose(grads[b.idx], _fd_scalar(scalar_b, b0.copy()), atol=1e-7)


def test_matmul_bias_gradients():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(3, 2))
    b0 = rng.normal(size=2)
    t = Tape()
    x = t.leaf(x0)
    out = mlp_var(t, ParamSet({"W0": w0, "b0": b0}), x, (3, 2))
    w, b = t.params["W0"], t.params["b0"]
    seed = rng.normal(size=out.value.shape)
    t.output = out
    grads = t.backward(seed)

    def loss(xa, wa, ba):
        return float(((xa @ wa + ba) * seed).sum())

    np.testing.assert_allclose(
        grads[w.idx], _fd_scalar(lambda a: loss(x0, a, b0), w0.copy()), atol=1e-6
    )
    np.testing.assert_allclose(
        grads[x.idx], _fd_scalar(lambda a: loss(a, w0, b0), x0.copy()), atol=1e-6
    )
    np.testing.assert_allclose(
        grads[b.idx], _fd_scalar(lambda a: loss(x0, w0, a), b0.copy()), atol=1e-6
    )


def test_cmatmul_concat_gather_select():
    rng = np.random.default_rng(17)
    pool = rng.normal(size=(2, 6))
    e0 = rng.normal(size=(6, 3))
    ids = np.array([0, 2, 2, 5, 1, 4])

    t = OpTape()
    emb = t.leaf(e0)
    g = t.gather_rows(emb, ids)
    pooled = t.cmatmul(pool, g)
    out = t.concat([pooled, t.square(pooled)], axis=1)
    cols = np.array([1, 4])
    sel = t.select_cols(out, cols)
    s = t.sum(sel)
    t.output = s
    grads = t.backward(1.0)

    def scalar(arr):
        gg = arr[ids]
        pp = pool @ gg
        oo = np.concatenate([pp, pp**2], axis=1)
        return float(oo[np.arange(2), cols].sum())

    np.testing.assert_allclose(grads[emb.idx], _fd_scalar(scalar, e0.copy()), atol=1e-6)


def test_gather_rows_accumulates_duplicates():
    t = OpTape()
    e = t.leaf(np.zeros((3, 2)))
    g = t.gather_rows(e, [1, 1, 1])
    s = t.sum(g)
    t.output = s
    grads = t.backward(1.0)
    np.testing.assert_array_equal(grads[e.idx], [[0, 0], [3, 3], [0, 0]])


def test_minimum_tie_goes_to_first_argument():
    t = OpTape()
    a = t.leaf(np.array([1.0, 2.0]))
    b = t.leaf(np.array([1.0, 3.0]))
    m = t.minimum(a, b)
    t.output = m
    grads = t.backward(np.ones(2))
    np.testing.assert_array_equal(grads[a.idx], [1.0, 1.0])
    np.testing.assert_array_equal(grads[b.idx], [0.0, 0.0])


def test_softmax_rows_sum_to_one():
    # the loss heads' softmax_np, at extreme logits
    rng = np.random.default_rng(19)
    x = rng.uniform(-50, 50, size=(20, 11))
    logp, p = softmax_np(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(logp))
    np.testing.assert_allclose(np.exp(logp), p, rtol=1e-12, atol=0)


def test_backward_seed_shape_mismatch_raises():
    t = Tape()
    v = t.leaf(np.zeros((2, 2)))
    t.output = t.node(v.value * v.value, [v], lambda g: (2.0 * v.value * g,))
    with pytest.raises(ValueError):
        t.backward(np.ones(3))


def test_param_grads_fill_the_layout_and_check_block_shapes():
    # one vector in the ParamSet's layout: blocks never registered or never
    # reached stay zero, and a VJP returning a block in the wrong shape
    # names the block instead of broadcasting into it
    params = ParamSet({"a": np.ones(2), "w": np.ones((2, 2)), "c": np.ones(3)})
    t = Tape()
    w = t.param(params, "w")
    t.param(params, "c")
    t.output = t.node(w.value.sum(), [w], lambda g: (np.full((2, 2), g),))
    np.testing.assert_array_equal(t.param_grads(), [0, 0, 1, 1, 1, 1, 0, 0, 0])
    t.output = t.node(w.value.sum(), [w], lambda g: (np.full(2, g),))
    with pytest.raises(ValueError, match="'w'"):
        t.param_grads()


def test_differentiated_tape_is_freed_without_the_cycle_collector():
    params = ParamSet({"w": np.ones((3, 2))})
    gc.disable()
    try:
        t = Tape()
        w = t.param(params, "w")
        x = np.ones((4, 3))
        out = t.node(x @ w.value, [w], lambda g: (x.T @ g,))
        t.output = t.node(out.value.sum(), [out], lambda g: (np.broadcast_to(g, (4, 2)),))
        nodes = len(t)
        grads = t.param_grads()
        np.testing.assert_array_equal(grads, np.full(6, 4.0))
        assert len(t) == nodes
        ref = weakref.ref(t)
        del t, w, out
        assert ref() is None
    finally:
        gc.enable()
