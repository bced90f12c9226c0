"""ParamSet/gradient vector/Adam/MLP/finite-diff contracts and the checkpoint format."""

import io
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from reference_ops import OpTape, reference_adam_step

from unigrpo.autodiff import Tape
from unigrpo.checkpoint import load_blocks, load_params, save_blocks, save_params
from unigrpo.config import TrainConfig
from unigrpo.errors import CheckpointError, ConfigError, NumericError
from unigrpo.nn import (
    AdamState,
    ParamSet,
    adam_step,
    fit,
    init_mlp_blocks,
    mlp_forward_np,
    mlp_var,
    slice_blocks,
)
from unigrpo.rng import stream
from unigrpo.trainer import make_runtime
from unigrpo.verify import finite_diff_check

# the policies at the config's default sizes
DEFAULT = make_runtime(TrainConfig())


def _mlp_params(seed=0, arch=(3, 8, 8, 2), **kw):
    rng = np.random.default_rng(seed)
    return ParamSet(init_mlp_blocks(rng, arch, **kw)), arch


def _tape_mlp(params, x, arch, activation="tanh"):
    """(n, arch[-1]) output of mlp_var on a fresh tape, plus the tape."""
    tape = Tape()
    out = mlp_var(tape, params, tape.leaf(np.atleast_2d(x)), arch, activation)
    tape.output = out
    return out.value, tape


class TestForwardMlp:
    def test_zero_net_zero_output(self):
        arch = (4, 6, 3)
        blocks = {k: np.zeros_like(v) for k, v in init_mlp_blocks(np.random.default_rng(0), arch).items()}
        out, _ = _tape_mlp(ParamSet(blocks), np.ones(4), arch, activation="tanh")
        np.testing.assert_array_equal(out, np.zeros((1, 3)))
        np.testing.assert_array_equal(mlp_forward_np(ParamSet(blocks), np.ones(4), arch), np.zeros(3))

    def test_single_affine_layer(self):
        params = ParamSet({"W0": [[2.0]], "b0": [1.0]})
        out, _ = _tape_mlp(params, np.array([3.0]), (1, 1))
        np.testing.assert_allclose(out, [[7.0]])
        np.testing.assert_allclose(mlp_forward_np(params, np.array([3.0]), (1, 1)), [7.0])

    def test_matches_independent_reevaluation(self):
        # straight-line second implementation of the same arithmetic
        params, arch = _mlp_params(seed=42)
        rng = np.random.default_rng(1)
        x = rng.normal(size=arch[0])
        out, _ = _tape_mlp(params, x, arch, activation="tanh")
        h = x.copy()
        for i in range(len(arch) - 1):
            h = h @ params[f"W{i}"] + params[f"b{i}"]
            if i < len(arch) - 2:
                h = np.tanh(h)
        np.testing.assert_allclose(out[0], h, rtol=0, atol=0)

    def test_batched_input(self):
        params, arch = _mlp_params()
        x = np.random.default_rng(2).normal(size=(5, arch[0]))
        out, _ = _tape_mlp(params, x, arch)
        assert out.shape == (5, arch[-1])
        np.testing.assert_array_equal(out, mlp_forward_np(params, x, arch))

    @pytest.mark.parametrize("activation, arch", [("tanh", DEFAULT.flow_policy.arch),
                                                  ("silu", DEFAULT.text_policy.arch)])
    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_slices_equal_separate_calls_bit_for_bit(self, S, activation, arch):
        # an (S, n, arch[0]) input runs one gemm per slice, so each slice's
        # output equals a call on that slice alone, under 2-D blocks shared
        # by every slice and under slice_blocks' stacked ones, one set per
        # slice with each bias copied over the rows; row counts off and on
        # multiples of 4, up to 300 rows, where a 64 x 64 layer's M * N * K
        # passes 10^6
        sets = [ParamSet(init_mlp_blocks(np.random.default_rng(60 + s), arch))
                for s in range(S)]
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 4, 5, 7, 8, 15, 45, 64, 127, 128, 129, 255, 300):
            x = rng.normal(size=(S, n, arch[0]))
            shared = mlp_forward_np(sets[0], x, arch, activation)
            blocks = slice_blocks(sets, n, arch)  # 2-D for one set, for 2-D inputs
            assert blocks["b0"].shape == (S, n, arch[1])[S == 1:]
            own = mlp_forward_np(blocks, x if S > 1 else x[0], arch, activation)
            own = own.reshape(S, n, arch[-1])
            for s in range(S):
                alone = mlp_forward_np(sets[0], x[s], arch, activation)
                assert shared[s].tobytes() == alone.tobytes(), (n, s)
                alone = mlp_forward_np(sets[s], x[s], arch, activation)
                assert own[s].tobytes() == alone.tobytes(), (n, s)


class TestBackward:
    def test_square_gradient(self):
        # f(w) = w^2 via a 1-param "net": use tape from forward and square by hand
        params = ParamSet({"w": np.array([3.0])})
        tape = OpTape()
        w = tape.param(params, "w")
        tape.output = tape.square(w)
        np.testing.assert_allclose(tape.param_grads(np.array([1.0])), [6.0])

    def test_tanh_net_matches_finite_difference(self):
        params, arch = _mlp_params(seed=3)
        x = np.random.default_rng(4).normal(size=arch[0])

        def loss(p):
            out, tape = _tape_mlp(p, x, arch, activation="tanh")
            return float(out.sum()), tape.param_grads(np.ones_like(out))

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=120, tol=1e-5)
        assert report.passed, report.failing_blocks

    def test_untouched_blocks_get_zero(self):
        params = ParamSet({"a": np.ones(2), "b": np.ones(3)})
        tape = OpTape()
        a = tape.param(params, "a")
        tape.output = tape.sum(tape.square(a))
        grads = tape.param_grads(1.0)
        np.testing.assert_array_equal(params.layout.views(grads)["b"], np.zeros(3))
        np.testing.assert_array_equal(grads, [2.0, 2.0, 0.0, 0.0, 0.0])

    def test_constant_function_zero_gradient(self):
        params = ParamSet({"a": np.ones(2)})
        tape = Tape()
        tape.param(params, "a")
        tape.output = tape.leaf(np.array(5.0))
        np.testing.assert_array_equal(tape.param_grads(1.0), np.zeros(2))


def _unfused_mlp(tape, params, x, arch, activation):
    """The same MLP as a chain of one tape node per matmul, bias add and
    activation, each with its own VJP."""

    def matmul(a, w):
        return tape.node(a.value @ w.value, [a, w], lambda g: (g @ w.value.T, a.value.T @ g))

    def act(h):
        a = h.value
        if activation == "tanh":
            y = np.tanh(a)
            return tape.node(y, [h], lambda g: (g * (1.0 - y * y),))
        s = 1.0 / (1.0 + np.exp(-a))
        slope = s * (1.0 + a * (1.0 - s))
        return tape.node(a / (1.0 + np.exp(-a)), [h], lambda g: (g * slope,))

    h = x
    for i in range(len(arch) - 1):
        h = tape.bias_add(matmul(h, tape.param(params, f"W{i}")), tape.param(params, f"b{i}"))
        if i < len(arch) - 2:
            h = act(h)
    return h


class TestFusedNode:
    @pytest.mark.parametrize("activation", ["tanh", "silu"])
    def test_matches_unfused_chain_bit_for_bit(self, activation):
        params, arch = _mlp_params(seed=5, arch=(4, 7, 6, 3))
        rng = np.random.default_rng(6)
        x0, seed = rng.normal(size=(9, 4)), rng.normal(size=(9, 3))
        results = []
        for build in (mlp_var, _unfused_mlp):
            tape = OpTape()
            x = tape.leaf(x0)
            out = build(tape, params, x, arch, activation)
            tape.output = out
            grads = tape.backward(seed)
            blocks = {name: grads[var.idx] for name, var in tape.params.items()}
            results.append((out.value, grads[x.idx], blocks, len(tape)))
        (out, gx, blocks, nodes), (ref_out, ref_gx, ref_blocks, ref_nodes) = results
        assert out.tobytes() == ref_out.tobytes()
        assert out.tobytes() == mlp_forward_np(params, x0, arch, activation).tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        assert list(blocks) == list(ref_blocks) == params.names()
        for name in blocks:
            assert blocks[name].tobytes() == ref_blocks[name].tobytes(), name
        assert nodes == 1 + len(blocks) + 1 < ref_nodes

    @pytest.mark.parametrize("scale", [1.0, 400.0, 4000.0])
    def test_silu_saved_terms_match_recompute_bit_for_bit(self, scale):
        # the backward reads 1 + exp(-h) and h / (1 + exp(-h)) from the
        # forward; the unfused chain recomputes both from h, down to
        # pre-activations where exp(-h) overflows or vanishes
        params, arch = _mlp_params(seed=12, arch=(4, 7, 6, 3))
        rng = np.random.default_rng(13)
        x0, seed = rng.normal(size=(9, 4)) * scale, rng.normal(size=(9, 3))
        x0[0] = 0.0
        saved, results = [], []
        with np.errstate(over="ignore"):
            mlp_forward_np(params, x0, arch, "silu", saved)
            for a, e, y in saved:
                assert e.tobytes() == (1.0 + np.exp(-a)).tobytes()
                assert y.tobytes() == (a / (1.0 + np.exp(-a))).tobytes()
            for build in (mlp_var, _unfused_mlp):
                tape = OpTape()
                x = tape.leaf(x0)
                tape.output = build(tape, params, x, arch, "silu")
                grads = tape.backward(seed)
                results.append([grads[x.idx]] + [grads[var.idx] for var in tape.params.values()])
        if scale > 1.0:
            assert max(np.abs(a).max() for a, _, _ in saved) > 710.0  # exp(-h) overflows
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("activation, arch", [("tanh", DEFAULT.flow_policy.arch),
                                                  ("silu", DEFAULT.text_policy.arch)])
    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_slices_equal_separate_nodes_bit_for_bit(self, S, activation, arch):
        # one node over (S, n, arch[0]) slices against S nodes of one slice
        # each on one tape, both read by one head node that hands each slice
        # its own output gradient: the same outputs, parameter gradients and
        # slice 0 input gradient
        params = ParamSet(init_mlp_blocks(np.random.default_rng(70), arch))
        rng = np.random.default_rng(71)
        for n in (1, 15, 45, 192):
            x0, seed = rng.normal(size=(S, n, arch[0])), rng.normal(size=(S, n, arch[-1]))
            results = []
            for sliced in (True, False):
                tape = Tape()
                if sliced:
                    xs = [tape.leaf(x0)]
                    nets = [mlp_var(tape, params, xs[0], arch, activation)]
                    outs, seeds = nets[0].value, [seed]
                else:
                    xs = [tape.leaf(x) for x in x0]
                    nets = [mlp_var(tape, params, x, arch, activation) for x in xs]
                    outs, seeds = np.stack([v.value for v in nets]), list(seed)
                tape.output = tape.node(np.zeros(()), nets, lambda g, seeds=seeds: seeds)
                grads = tape.backward(1.0)
                results.append((outs, grads[xs[0].idx], tape.param_grads(1.0)))
            (out, gx, gp), (ref_out, ref_gx, ref_gp) = results
            assert out.tobytes() == ref_out.tobytes(), n
            assert gx.shape == (n, arch[0]) and gx.tobytes() == ref_gx.tobytes(), n
            assert gp.tobytes() == ref_gp.tobytes(), n

    @pytest.mark.parametrize("activation", ["tanh", "silu"])
    def test_matches_finite_differences(self, activation):
        params, arch = _mlp_params(seed=8)
        rng = np.random.default_rng(9)
        x0, w = rng.normal(size=(5, arch[0])), rng.normal(size=(5, arch[-1]))

        def loss(p, x_in=x0):
            tape = OpTape()
            x = tape.leaf(x_in)
            tape.output = tape.sum(tape.cmul(mlp_var(tape, p, x, arch, activation), w))
            gx = tape.backward(1.0)[x.idx]
            return float(tape.output.value), tape.param_grads(1.0), gx

        report = finite_diff_check(lambda p: loss(p)[:2], params, np.random.default_rng(0), probes=120, tol=1e-5)
        assert report.passed, (report.max_rel_err, report.failing_blocks)
        h, numeric = 1e-3, np.zeros_like(x0)
        for idx in np.ndindex(x0.shape):
            def at(delta):
                x = x0.copy()
                x[idx] += delta
                return loss(params, x)[0]

            numeric[idx] = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
        np.testing.assert_allclose(loss(params)[2], numeric, rtol=1e-7, atol=1e-9)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params, _ = _mlp_params()
        st = AdamState.for_params(params, lr=0.1)
        new = adam_step(params, np.zeros(params.layout.size), st)
        for name, arr in params.items():
            np.testing.assert_array_equal(new[name], arr)
        assert st.step == 1

    def test_first_step_moves_by_lr(self):
        params = ParamSet({"w": np.array([0.0])})
        st = AdamState.for_params(params, lr=0.1)
        new = adam_step(params, np.array([1.0]), st)
        assert abs(new["w"][0] + 0.1) < 1e-8

    def test_identical_gradients_move_monotonically(self):
        params = ParamSet({"w": np.array([0.5])})
        st = AdamState.for_params(params, lr=0.05)
        prev = params
        vals = [0.5]
        for _ in range(3):
            prev = adam_step(prev, np.array([2.0]), st)
            vals.append(prev["w"][0])
        assert vals[0] > vals[1] > vals[2] > vals[3]

    @pytest.mark.parametrize("policy", [DEFAULT.text_policy, DEFAULT.flow_policy],
                             ids=["text", "flow"])
    def test_matches_per_block_reference_bit_for_bit(self, policy):
        params = policy.init_params(stream(40, "adam-init"))
        st = AdamState.for_params(params, lr=3e-3)
        ref = {name: arr.copy() for name, arr in params.items()}
        m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        rng = stream(41, "adam-grads")
        for t in range(1, 5):
            g = {name: rng.normal(size=arr.shape) * 10.0 ** rng.integers(-6, 2)
                 for name, arr in ref.items()}
            params = adam_step(params, params.layout.flatten(g), st)
            for name in ref:
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g[name]
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g[name] * g[name]
                m_hat = m[name] / (1.0 - 0.9**t)
                v_hat = v[name] / (1.0 - 0.999**t)
                ref[name] = ref[name] - 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
                assert params[name].tobytes() == ref[name].tobytes(), (t, name)
            blocks = st.state_blocks("adam")
            for name in ref:
                assert blocks[f"adam.m.{name}"].tobytes() == m[name].tobytes(), (t, name)
                assert blocks[f"adam.v.{name}"].tobytes() == v[name].tobytes(), (t, name)
        assert list(blocks) == ([f"adam.m.{n}" for n in ref] + [f"adam.v.{n}" for n in ref]
                                + ["adam.step"])

    def test_matches_one_expression_formula_over_1000_steps(self):
        # zero, subnormal, tiny, ordinary and 1e150 gradients, with each
        # entry's scale redrawn every step
        params = ParamSet({"a": np.zeros((3, 4)), "b": np.ones(5)})
        st = AdamState.for_params(params, lr=3e-3)
        vec, m, v = params.vec.copy(), np.zeros(17), np.zeros(17)
        rng = np.random.default_rng(17)
        scales = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-8, 1.0, 1e3, 1e150])
        for t in range(1, 1001):
            g = rng.normal(size=17) * scales[rng.integers(len(scales), size=17)]
            params = adam_step(params, g, st)
            vec, m, v = reference_adam_step(vec, g, m, v, t, 3e-3)
            assert params.vec.tobytes() == vec.tobytes(), t
            assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes(), t
        assert st.step == 1000

    def test_step_leaves_its_inputs_untouched(self):
        params, _ = _mlp_params(seed=5)
        st = AdamState.for_params(params, lr=0.1)
        grads = np.ones(params.layout.size)
        held = {name: arr.copy() for name, arr in params.items()}
        m_held, v_held = st.m, st.v
        new = adam_step(params, grads, st)
        assert np.all(grads == 1.0)
        for name, arr in params.items():
            assert arr.tobytes() == held[name].tobytes(), name
            assert not np.shares_memory(new[name], arr)
        assert not np.any(m_held) and not np.any(v_held)
        new["W0"][0, 0] += 1.0
        assert params["W0"][0, 0] == held["W0"][0, 0]

    def test_nonfinite_gradient_rejected_with_block_name(self):
        params = ParamSet({"w": np.array([0.0]), "u": np.array([0.0])})
        st = AdamState.for_params(params, lr=0.1)
        with pytest.raises(NumericError, match="'u'"):
            adam_step(params, np.array([0.0, np.nan]), st)
        assert st.step == 0


class TestFit:
    def test_matches_a_minibatch_adam_loop_bit_for_bit(self):
        # 10 examples in batches of 4 (the last one short), each batch weighed
        # by twice its size; the loss also draws from the shuffling generator
        target = stream(42, "fit").normal(size=(10, 2))
        params = ParamSet({"w": np.zeros(2)})

        def batch_loss(p, sel, rng):
            d = p["w"] - target[sel] * rng.random()
            return float(np.sum(d * d)), 2.0 * d.sum(axis=0), 2 * len(sel)

        rng = stream(43, "fit")
        fitted, losses = fit(params, 10, 3, 4, 0.1, rng, lambda p, sel: batch_loss(p, sel, rng))
        ref, rng = params, stream(43, "fit")
        st = AdamState.for_params(ref, lr=0.1)
        want = []
        for _ in range(3):
            order = rng.permutation(10)
            total, count = 0.0, 0
            for lo in range(0, 10, 4):
                loss, g, w = batch_loss(ref, order[lo : lo + 4], rng)
                ref = adam_step(ref, g, st)
                total += loss * w
                count += w
            want.append(total / count)
        assert fitted.vec.tobytes() == ref.vec.tobytes()
        assert losses == want and st.step == 9
        assert params["w"].tolist() == [0.0, 0.0]


class TestFiniteDiff:
    def test_tiny_gradient_on_unit_loss_is_resolved(self):
        # gradients near 3e-8 on a loss near 1: a second-order stencil at a
        # small h loses them to roundoff in the loss
        params = ParamSet({"w": np.random.default_rng(11).normal(size=40)})

        def loss(p):
            return 1.0 + 3e-8 * float(np.sum(np.sin(p["w"]))), 3e-8 * np.cos(p["w"])

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=100, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_probe_perturbs_one_flat_entry(self):
        params = ParamSet({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        seen = []

        def loss(p):
            moved = np.flatnonzero(p.vec)
            seen.extend(moved.tolist())
            grads = np.concatenate([np.ones(6), np.full(4, 2.0)])
            return float(np.sum(p["a"]) + 2.0 * np.sum(p["b"])), grads

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=20, tol=1e-8)
        assert report.passed
        assert len(seen) == 4 * 20  # four stencil points per probe, one entry each
        for probe, index in zip(report.probes, seen[::4]):
            lo = 0 if probe.block == "a" else 6
            assert index == lo + probe.index

    def test_quadratic_is_nearly_exact(self):
        params = ParamSet({"w": np.arange(5, dtype=float)})

        def loss(p):
            tape = OpTape()
            w = tape.param(p, "w")
            tape.output = tape.sum(tape.square(w))
            return float(tape.output.value), tape.param_grads(1.0)

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=50, tol=1e-8)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_nondeterministic_loss_aborts(self):
        params = ParamSet({"w": np.ones(2)})
        counter = [0]

        def loss(p):
            counter[0] += 1
            return float(counter[0]), np.zeros(2)

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=5)
        assert report.aborted
        assert "deterministic" in report.reason

    def test_detects_corrupted_gradient(self):
        params, arch = _mlp_params(seed=8)
        x = np.random.default_rng(9).normal(size=arch[0])

        def loss(p):
            out, tape = _tape_mlp(p, x, arch)
            grads = tape.param_grads(np.ones_like(out))
            lo, hi, _ = p.layout.spans["W0"]
            grads[lo:hi] += 0.5  # deliberate corruption
            return float(out.sum()), grads

        report = finite_diff_check(loss, params, np.random.default_rng(0), probes=200, tol=1e-4)
        assert not report.passed
        assert "W0" in report.failing_blocks


class TestParamSet:
    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NumericError):
            ParamSet({"w": np.array([np.inf])})

    def test_with_blocks_validates_shape(self):
        p = ParamSet({"w": np.zeros(3)})
        with pytest.raises(ConfigError, match="w"):
            p.with_blocks({"w": np.zeros(4)})
        with pytest.raises(ConfigError):
            p.with_blocks({"nope": np.zeros(1)})

    def test_flatten_checks_names_and_shapes(self):
        p = ParamSet({"a": np.zeros((2, 2)), "b": np.zeros(3)})
        vec = p.layout.flatten({"b": np.ones(3), "a": np.full((2, 2), 2.0)})
        np.testing.assert_array_equal(vec, [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        assert p.with_vector(vec).layout is p.layout
        for blocks, name in (({"a": np.zeros((2, 2))}, "b"),
                             ({"a": np.zeros((2, 2)), "b": np.zeros(3), "c": np.zeros(1)}, "c"),
                             ({"a": np.zeros(4), "b": np.zeros(3)}, "a")):
            with pytest.raises(ConfigError, match=f"'{name}'"):
                p.layout.flatten(blocks)

    def test_copy_is_independent(self):
        p = ParamSet({"w": np.zeros(2)})
        q = p.copy()
        q["w"][0] = 5.0
        assert p["w"][0] == 0.0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        blocks = {
            "a.weight": rng.normal(size=(3, 4)),
            "b": rng.normal(size=7),
            "meta.step": np.float64(17.0),
        }
        path = tmp_path / "x.ckpt"
        save_blocks(path, blocks)
        loaded = load_blocks(path)
        assert list(loaded) == list(blocks)
        for k in blocks:
            assert np.asarray(blocks[k]).tobytes() == loaded[k].tobytes()

    def test_param_set_round_trip(self, tmp_path):
        params, _ = _mlp_params(seed=12)
        path = tmp_path / "p.ckpt"
        save_params(path, params)
        loaded = load_params(path)
        for name, arr in params.items():
            assert arr.tobytes() == loaded[name].tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_blocks(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_blocks(path, {"w": np.zeros(10)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError):
            load_blocks(path)

    def test_truncation_names_the_last_whole_block(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_blocks(path, {"a": np.zeros(2), "b": np.zeros(3)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="truncated or corrupt checkpoint after "
                                                  "block 'a'"):
            load_blocks(path)
        path.write_bytes(data[:12])
        with pytest.raises(CheckpointError, match="before its first block"):
            load_blocks(path)

    @pytest.mark.parametrize("fails", ["write", "rename"])
    def test_failed_save_leaves_the_old_file_whole(self, tmp_path, monkeypatch, fails):
        # a save that dies half-way through its write, or before its rename,
        # leaves the previous checkpoint's bytes and no temporary file
        path = tmp_path / "state.ckpt"
        save_blocks(path, {"w": np.arange(6.0)})
        before = path.read_bytes()
        real_write = Path.write_bytes

        def half_write(self, data):
            real_write(self, data[:len(data) // 2])
            raise OSError("disk full")

        def no_rename(self, target):
            raise OSError("interrupted")

        if fails == "write":
            monkeypatch.setattr(Path, "write_bytes", half_write)
        else:
            monkeypatch.setattr(Path, "replace", no_rename)
        with pytest.raises(OSError):
            save_blocks(path, {"w": np.ones(6), "v": np.ones(40)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_save_replaces_the_file_whole(self, tmp_path):
        # the new file is renamed over the old: a reader holding the old
        # file keeps reading the old bytes
        path = tmp_path / "state.ckpt"
        save_blocks(path, {"w": np.zeros(4)})
        with open(path, "rb") as old:
            save_blocks(path, {"w": np.ones(4)})
            assert old.read() != path.read_bytes()
        assert load_blocks(path)["w"].tolist() == [1.0] * 4
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]

    def test_nonfinite_payload_rejected_with_block_name(self, tmp_path):
        path = tmp_path / "n.ckpt"
        for bad in (np.nan, np.inf, -np.inf):
            save_blocks(path, {"w": np.zeros(3), "adam.m.W0": np.array([0.0, bad])})
            with pytest.raises(CheckpointError, match="non-finite values in block 'adam.m.W0'"):
                load_blocks(path)


_BLOCKS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
        lambda shape: arrays(np.float64, shape,
                             elements=st.floats(allow_nan=False, allow_infinity=False))
    ),
    min_size=1,
    max_size=3,
)


def _field_by_field_bytes(blocks) -> bytes:
    """A checkpoint's bytes as the writer produced them when it wrote each
    field to the file in turn."""
    out = io.BytesIO()
    out.write(b"UGRP")
    out.write(struct.pack("<I", 1))
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        out.write(struct.pack("<I", len(nb)))
        out.write(nb)
        out.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            out.write(struct.pack("<I", d))
        out.write(arr.astype("<f8", copy=False).tobytes(order="C"))
    return out.getvalue()


def _file_settings(examples):
    # every example rewrites one file under the test's tmp_path
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointProperties:
    @_file_settings(40)
    @given(blocks=_BLOCKS)
    def test_round_trip_is_bit_exact(self, tmp_path, blocks):
        path = tmp_path / "r.ckpt"
        save_blocks(path, blocks)
        loaded = load_blocks(path)
        assert list(loaded) == list(blocks)
        for name, arr in blocks.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @_file_settings(40)
    @given(blocks=_BLOCKS)
    def test_bytes_match_the_field_by_field_writer(self, tmp_path, blocks):
        # the one-buffer writer against the writer that streamed each field,
        # on blocks of every rank from 0-d up, and on non-float64, strided and
        # Fortran-ordered inputs
        path = tmp_path / "b.ckpt"
        rng = np.random.default_rng(len(blocks))
        extra = {"int": np.arange(6).reshape(2, 3), "strided": rng.normal(size=(4, 6))[::2, 1::2],
                 "fortran": np.asfortranarray(rng.normal(size=(3, 2))), "0-d": np.float64(-2.5),
                 "big-endian": rng.normal(size=3).astype(">f8")}
        for case in (blocks, {**blocks, **extra}, {}):
            save_blocks(path, case)
            assert path.read_bytes() == _field_by_field_bytes(case)

    @_file_settings(15)
    @given(blocks=_BLOCKS)
    def test_every_cut_inside_a_block_is_a_checkpoint_error(self, tmp_path, blocks):
        # the format has no block count, so a cut exactly at a block boundary
        # is a valid checkpoint of the blocks before it
        path = tmp_path / "t.ckpt"
        bounds = {}
        for n in range(len(blocks) + 1):
            save_blocks(path, dict(list(blocks.items())[:n]))
            bounds[path.stat().st_size] = n
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            if cut in bounds:
                assert list(load_blocks(path)) == list(blocks)[: bounds[cut]]
            else:
                with pytest.raises(CheckpointError):
                    load_blocks(path)

    @_file_settings(10)
    @given(blocks=_BLOCKS)
    def test_every_bit_flip_loads_finite_blocks_or_is_a_checkpoint_error(self, tmp_path, blocks):
        # without a checksum most flips load; none may load a non-finite value
        # or fail with anything but CheckpointError
        path = tmp_path / "f.ckpt"
        save_blocks(path, blocks)
        data = bytearray(path.read_bytes())
        for bit in range(8 * len(data)):
            data[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(data)
            data[bit // 8] ^= 1 << (bit % 8)
            try:
                loaded = load_blocks(path)
            except CheckpointError:
                continue
            assert all(np.isfinite(arr).all() for arr in loaded.values())
