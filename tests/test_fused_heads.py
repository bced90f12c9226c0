"""Fused loss heads against the per-op chains they replace.

Each loss records an input node, the MLP node(s) and one fused head node.
The references below rebuild every loss as it was chained before, one
reference_ops primitive per array operation, from inputs built the old
way (a context row per position, the flow rows step by step).  The text
surrogate's chain runs the net on the distinct context rows (np.unique
over whole rows) and gathers each position's log-softmax row from them,
as the surrogate scores each distinct context once.  The fused
losses must give the same value, ratios and gradient blocks, bit for bit:
the heads repeat the chains' floating-point operations in the same order,
so every case agrees exactly, not only those at the desk defaults (T 1,
beta_txt 0, cfg 1, velocity-mse).
"""

from dataclasses import replace

import numpy as np
import pytest
from prompt_draws import random_prompts
from reference_ops import OpTape, reference_velocity, trace_tokens

from unigrpo.autodiff import Tape
from unigrpo.flow_policy import (DIM, FlowPolicy, drift_coefficients, time_features,
                                 timestep_schedule)
from unigrpo.nn import mlp_var
from unigrpo.rng import stream
from unigrpo.task import EOS, PAD, PROMPT_TOKENS, TaskGeometry, make_pretrain_data
from unigrpo.text_policy import TextPolicy

TEXT = TextPolicy()
FLOW = FlowPolicy()


def _assert_same(new, old):
    """Same float or array, bit for bit."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.tobytes() == old.tobytes()


# ---- the text chain ----


def _old_log_softmax_np(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _old_context_rows(prompt_tokens, trace_tokens):
    rows = np.full((len(trace_tokens), TEXT.ctx), PAD, dtype=np.int64)
    rows[:, : TEXT.prompt_len] = prompt_tokens
    for k in range(len(trace_tokens)):
        rows[k, TEXT.prompt_len : TEXT.prompt_len + k] = trace_tokens[:k]
    return rows


def _old_logits_var(tape, params, rows):
    n = rows.shape[0]
    gathered = tape.gather_rows(tape.param(params, "wte"), rows.reshape(-1))
    flat = tape.reshape(gathered, (n, TEXT.ctx * TEXT.embed))
    wpe = tape.reshape(tape.param(params, "wpe"), (TEXT.ctx * TEXT.embed,))
    return mlp_var(tape, params, tape.bias_add(flat, wpe), TEXT.arch, "silu")


def _old_text_surrogate(params, seqs, old_lp, advantages, clip_eps, beta_txt, ref_params,
                        temperature):
    G = len(seqs)
    inv_t = 1.0 / temperature
    traces = [trace_tokens(seq[TEXT.prompt_len:]) for seq in seqs]
    rows = np.concatenate([_old_context_rows(seq[: TEXT.prompt_len], tr)
                           for seq, tr in zip(seqs, traces)])
    targets = np.array([tok for tr in traces for tok in tr])
    adv_rows = np.array([advantages[i] for i, tr in enumerate(traces) for _ in tr])
    w_rows = np.array([1.0 / (G * len(tr)) for tr in traces for _ in tr])

    # each distinct context once, in sorted order; every scored row gathers
    # its context's log-softmax row, and the KL term weighs a context by the
    # summed weight of the rows that read it
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    w_distinct = np.zeros(len(distinct))
    np.add.at(w_distinct, inverse, beta_txt * w_rows)

    tape = OpTape()
    logits = tape.cmul(_old_logits_var(tape, params, distinct), inv_t)
    ls = tape.log_softmax(logits)
    ratio = tape.exp(tape.cadd(tape.select_cols(tape.gather_rows(ls, inverse), targets), -old_lp))
    unclipped = tape.cmul(ratio, adv_rows)
    clipped = tape.cmul(tape.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps), adv_rows)
    j = tape.sum(tape.cmul(tape.minimum(unclipped, clipped), w_rows))
    if beta_txt != 0.0:
        ref_ls = _old_log_softmax_np(TEXT.logits_np(ref_params, distinct) * inv_t)
        kl_rows = tape.sum_rows(tape.mul(tape.softmax(logits), tape.cadd(ls, -ref_ls)))
        j = tape.sub(j, tape.sum(tape.cmul(kl_rows, w_distinct)))
    grads = tape.param_grads(1.0, output=j)
    return float(j.value), grads, ratio.value, distinct, inverse


def _text_params(seed):
    return TEXT.init_params(stream(seed, "init-text"))


def _traces(params, temperature, g=16, seed=0, group=1):
    """g sampled text rows, each prompt drawn for `group` consecutive rows."""
    prompts = np.repeat(PROMPT_TOKENS[random_prompts(seed, "p", g // group)], group, axis=0)
    u = np.stack([stream(seed, "u", i).random(TEXT.max_len) for i in range(g)])
    return TEXT.sample_trace(params, prompts, temperature, u)


class TestTextHeads:
    @pytest.mark.parametrize("beta_txt", [0.0, 0.05])
    @pytest.mark.parametrize("temperature", [0.7, 1.0, 1.3])
    def test_surrogate_matches_op_chain(self, temperature, beta_txt):
        params, ref = _text_params(1), _text_params(2)
        traces = _traces(params, temperature, group=4)
        adv = stream(3, "adv").normal(size=len(traces))
        batch = TEXT.prepare_batch(traces, adv, temperature, beta_txt, ref)
        assert len(batch.rows) < len(batch.targets)  # the groups share contexts
        moved = params.with_blocks({"W2": params["W2"] + 0.01, "wte": params["wte"] - 0.02})
        for theta in (params, moved):
            for clip_eps in (0.2, 1e-4, 0.0):
                j, gs, stats = TEXT.surrogate_loss(theta, batch, clip_eps)
                old_j, old_grads, old_ratio, distinct, inverse = _old_text_surrogate(
                    theta, traces, batch.old_logp, adv, clip_eps, beta_txt, ref, temperature
                )
                _assert_same(batch.rows, distinct)
                _assert_same(batch.inverse, inverse)
                _assert_same(j, old_j)
                _assert_same(gs, old_grads)
                assert stats.mean_ratio == float(old_ratio.mean())
                assert stats.max_ratio == float(old_ratio.max())
                assert stats.rows == len(old_ratio)
        # first epoch: scored at the sampling parameters every ratio is exactly 1
        _, _, stats = TEXT.surrogate_loss(params, batch, 0.0)
        assert stats.max_ratio == 1.0 and stats.mean_ratio == 1.0 and stats.clip_fraction == 0.0

    def test_on_policy_tie_takes_the_unclipped_gradient(self):
        # at clip range 0 every first-epoch ratio sits on both clip bounds,
        # where the clipped term has no gradient: only the tie convention
        # (unclipped term first) leaves a gradient
        params = _text_params(4)
        traces = _traces(params, 1.0, g=6, seed=4)
        batch = TEXT.prepare_batch(traces, np.linspace(-1.0, 1.0, 6), 1.0, 0.0, params)
        _, grads, _ = TEXT.surrogate_loss(params, batch, 0.0)
        _, grads_wide, _ = TEXT.surrogate_loss(params, batch, 0.5)
        assert np.any(grads != 0.0)
        assert grads.tobytes() == grads_wide.tobytes()

    def test_ce_matches_op_chain(self):
        seqs, _ = make_pretrain_data(5, 96, 1, TaskGeometry())
        params = _text_params(6)
        rows, targets, _, _ = TEXT.token_rows(seqs)
        loss, gs = TEXT.ce_loss(params, rows, targets)

        tape = OpTape()
        logp = tape.select_cols(tape.log_softmax(_old_logits_var(tape, params, rows)), targets)
        old = tape.sum(tape.cmul(logp, -1.0 / len(targets)))
        _assert_same(loss, float(old.value))
        _assert_same(gs, tape.param_grads(1.0, output=old))


# ---- the flow chain ----


def _flow_params(seed):
    p = FLOW.init_params(stream(seed, "vf-init"))
    rng = stream(seed, "vf-head")
    return p.with_blocks({"W2": rng.normal(0, 0.2, size=p["W2"].shape),
                          "b2": rng.normal(0, 0.1, size=p["b2"].shape)})


def _old_velocity_var(tape, params, xs, ts, cond, cfg_scale):
    xt = tape.leaf(np.concatenate([xs, time_features(ts)], axis=1))
    v = mlp_var(tape, params, tape.concat([xt, cond]), FLOW.arch, "tanh")
    if cfg_scale == 1.0:
        return v
    null = tape.leaf(np.zeros(cond.value.shape))
    v_un = mlp_var(tape, params, tape.concat([xt, null]), FLOW.arch, "tanh")
    return tape.add(v_un, tape.cmul(tape.sub(v, v_un), cfg_scale))


def _old_flow_surrogate(params, batch, mu_old, advantages, clip_eps, reg_mode, reg_weight,
                        ref_params, mean_space=False):
    """The flow surrogate as an op chain against the (B * W, DIM) old means
    `mu_old`, with the noise taken from the rollout's means.  The latent KL
    is the velocity MSE weighted per step by kappa = c1^2 dt / (2 sigma_t^2),
    as the fused head scores it; with `mean_space` it is instead the squared
    distance of the transition means over 2 sigma_t^2 dt, the textbook KL of
    two equal-variance Gaussians."""
    B, W = batch.mu.shape[:2]
    rows = np.repeat(np.arange(B), W)
    ks = (batch.starts[:, None] + np.arange(W)).ravel()
    xs = batch.states[ks, rows]
    ts = batch.times[ks]
    dts = ts - batch.times[ks + 1]
    sig = batch.sigma_level * np.sqrt(ts)
    eps = (batch.states[ks + 1, rows] - batch.mu.reshape(-1, DIM)) / (sig * np.sqrt(dts))[:, None]
    adv_rows = np.repeat(advantages, W)
    w_rows = np.full(B * W, 1.0 / (B * W))
    pool = batch.pool[rows]

    tape = OpTape()
    cond = tape.cmatmul(pool, tape.param(params, "cemb"))
    v = _old_velocity_var(tape, params, xs, ts, cond, batch.cfg_scale)
    c1, c2 = (c[:, None] for c in drift_coefficients(ts, sig))
    f = tape.add(tape.cmul(v, c1), tape.leaf(c2 * xs))
    mu = tape.cadd(tape.cmul(f, -dts[:, None]), xs)
    rt = tape.exp(tape.sum_rows(tape.cmul(tape.cadd(mu, -mu_old), eps)))
    unclipped = tape.cmul(rt, adv_rows)
    clipped = tape.cmul(tape.clip(rt, 1.0 - clip_eps, 1.0 + clip_eps), adv_rows)
    j = tape.sum(tape.cmul(tape.minimum(unclipped, clipped), w_rows))
    reg_value = 0.0
    if reg_mode != "none":
        v_ref = reference_velocity(FLOW, ref_params, xs, ts, pool @ ref_params["cemb"],
                                   batch.cfg_scale)
        w_reg = w_rows
        if mean_space and reg_mode == "latent-kl":
            mu_ref = xs - (c1 * v_ref + c2 * xs) * dts[:, None]
            reg_rows = tape.cmul(tape.sum_rows(tape.square(tape.cadd(mu, -mu_ref))),
                                 1.0 / (2.0 * sig**2 * dts))
        else:
            reg_rows = tape.sum_rows(tape.square(tape.cadd(v, -v_ref)))
            if reg_mode == "latent-kl":
                w_reg = w_rows * (c1[:, 0]**2 * dts / (2.0 * sig**2))
        penalty = tape.sum(tape.cmul(reg_rows, reg_weight * w_reg))
        reg_value = float(penalty.value)
        j = tape.sub(j, penalty)
    grads = tape.param_grads(1.0, output=j)
    return float(j.value), grads, rt.value, reg_value


def _flow_rollout(params, cfg_scale, g=8, seed=0):
    times, _ = timestep_schedule(10, 3.0)
    rng = stream(seed, "roll")
    starts = rng.integers(0, 4, size=g)
    return FLOW.hybrid_rollout(
        params, PROMPT_TOKENS[random_prompts(seed, "c", g)], times,
        rng.standard_normal((g, DIM)), starts, 3, 0.8, rng.standard_normal((g, 3, DIM)),
        cfg_scale,
    )


def _rel_err(new, old) -> float:
    new, old = np.asarray(new), np.asarray(old)
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def _mean_space_rel_err(params, batch, adv, prepared, ref, weight=0.02) -> float:
    """Largest relative error of the fused latent-KL surrogate's value,
    gradient and regularizer against the mean-space op chain, on params and
    on a moved copy; `prepared` carries the regularizer weight `weight`."""
    moved = params.with_blocks({"b2": params["b2"] + 0.01, "cemb": params["cemb"] - 0.02})
    errs = []
    for theta in (params, moved):
        j, gs, stats = FLOW.surrogate_loss(theta, prepared, 0.2)
        old_j, old_grads, _, old_reg = _old_flow_surrogate(
            theta, batch, prepared.mu_old, adv, 0.2, "latent-kl", weight, ref, mean_space=True
        )
        errs += [_rel_err(j, old_j), _rel_err(gs, old_grads), _rel_err(stats.reg_value, old_reg)]
    return max(errs)


class TestFlowHeads:
    @pytest.mark.parametrize("reg_mode,weight", [
        ("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.005),
    ])
    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_surrogate_matches_op_chain(self, cfg_scale, reg_mode, weight):
        params, ref = _flow_params(7), _flow_params(8)
        batch = _flow_rollout(params, cfg_scale)
        adv = stream(9, "adv").normal(size=8)
        prepared = FLOW.prepare_batch(batch, adv, reg_mode, weight, ref)
        moved = params.with_blocks({"b2": params["b2"] + 0.01, "cemb": params["cemb"] - 0.02})
        for theta in (params, moved):
            for clip_eps in (0.2, 1e-4, 0.0):
                j, gs, stats = FLOW.surrogate_loss(theta, prepared, clip_eps)
                old_j, old_grads, old_rt, old_reg = _old_flow_surrogate(
                    theta, batch, prepared.mu_old, adv, clip_eps, reg_mode, weight, ref
                )
                _assert_same(j, old_j)
                _assert_same(gs, old_grads)
                assert stats.mean_ratio == float(old_rt.mean())
                assert stats.max_ratio == float(old_rt.max())
                assert stats.reg_value == old_reg
                assert stats.rows == len(old_rt)
        _, _, stats = FLOW.surrogate_loss(params, prepared, 0.0)
        assert stats.max_ratio == 1.0 and stats.mean_ratio == 1.0 and stats.clip_fraction == 0.0

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_latent_kl_matches_mean_space_chain(self, cfg_scale):
        # an independent reference for the latent-KL formula: the KL of the
        # transition means agrees with the kappa-weighted velocity penalty
        # to roundoff
        params, ref = _flow_params(7), _flow_params(8)
        batch = _flow_rollout(params, cfg_scale)
        adv = stream(9, "adv").normal(size=8)
        prepared = FLOW.prepare_batch(batch, adv, "latent-kl", 0.02, ref)
        assert _mean_space_rel_err(params, batch, adv, prepared, ref) <= 1e-12

    def test_mean_space_chain_sees_a_dropped_kappa(self):
        # negative control: the penalty weighted like the velocity MSE
        # (kappa dropped) is not the latent KL
        params, ref = _flow_params(7), _flow_params(8)
        batch = _flow_rollout(params, 2.0)
        adv = stream(9, "adv").normal(size=8)
        prepared = FLOW.prepare_batch(batch, adv, "latent-kl", 0.02, ref)
        dropped = replace(prepared, reg_scale=0.02 * prepared.weight)
        assert _mean_space_rel_err(params, batch, adv, dropped, ref) > 1e-3

    def test_fm_matches_op_chain(self):
        params = _flow_params(10)
        rng = stream(11, "fm")
        n = 64
        x0 = rng.normal(size=(n, DIM))
        t = 1.0 - rng.random(n)
        x1 = rng.standard_normal((n, DIM))
        keep = (rng.random(n) >= 0.2).astype(np.float64)
        pool = FLOW.pool_weights(PROMPT_TOKENS[random_prompts(11, "c", n)])
        loss, gs = FLOW.fm_loss_frozen(params, x0, pool * keep[:, None], t, x1)

        tape = OpTape()
        cond = tape.cmul(tape.cmatmul(pool, tape.param(params, "cemb")), keep[:, None])
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        v = _old_velocity_var(tape, params, xt, t, cond, 1.0)
        sq = tape.sum_rows(tape.square(tape.cadd(v, -(x1 - x0))))
        old = tape.sum(tape.cmul(sq, 1.0 / n))
        _assert_same(loss, float(old.value))
        _assert_same(gs, tape.param_grads(1.0, output=old))


def test_every_loss_tape_is_at_most_twelve_nodes(monkeypatch):
    # parameter leaves included: input node, MLP node(s), one head node
    lengths = []
    real = Tape.param_grads

    def counting(self, *args, **kwargs):
        lengths.append(len(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "param_grads", counting)
    tparams, fparams = _text_params(12), _flow_params(13)
    traces = _traces(tparams, 1.0, g=4)
    TEXT.surrogate_loss(tparams, TEXT.prepare_batch(traces, np.ones(4), 1.0, 0.05, tparams), 0.2)
    rows, targets, _, _ = TEXT.token_rows(traces)
    TEXT.ce_loss(tparams, rows, targets)
    for cfg_scale in (1.0, 2.0):
        prepared = FLOW.prepare_batch(_flow_rollout(fparams, cfg_scale, g=4), np.ones(4),
                                      "velocity-mse", 0.1, fparams)
        FLOW.surrogate_loss(fparams, prepared, 0.2)
    pool = FLOW.pool_weights(np.array([(3, EOS), (4, 5)]))
    FLOW.fm_loss_frozen(fparams, np.zeros((2, DIM)), pool,
                        np.array([0.3, 0.9]), np.ones((2, DIM)))
    assert lengths == [11, 11, 10, 12, 10]
