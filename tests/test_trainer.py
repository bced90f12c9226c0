"""Trainer machinery: advantages, rollouts, unified updates, persistence."""

import hashlib
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from prompt_draws import ORACLE_PROMPTS, all_tuples, prompt_id, random_prompts
from reference_ops import reference_velocity, transition_logprob
from reference_reward import reference_reward

import unigrpo.flow_policy as flow_policy_mod
import unigrpo.trainer as trainer_mod
from unigrpo import checkpoint
from unigrpo.config import TrainConfig, config_to_dict
from unigrpo.errors import CheckpointError, NumericError
from unigrpo.flow_policy import DIM, N_TIME_FEATS, FlowBatch, cfg_velocity, time_features
from unigrpo.metrics import read_metrics
from unigrpo.nn import AdamState, ParamSet, mlp_forward_np
from unigrpo.rng import below, normals, stream, uniforms, words
from unigrpo.flow_policy import FlowPolicy
from unigrpo.task import (EOS, PAD, PROMPT_LEN, PROMPT_TOKENS, VOCAB_SIZE, canonical_accuracy,
                          draw_prompts, score)
from unigrpo.text_policy import TextPolicy
from unigrpo.trainer import (
    ROLLOUT_BLOCK,
    GroupRollout,
    check_architecture,
    collect_rollouts,
    evaluate,
    evaluate_run,
    group_advantages,
    make_eval_set,
    make_runtime,
    pretrain_all,
    rollout_words,
    train,
    unified_update,
)

TINY = TrainConfig(
    seed=0,
    total_updates=6,
    eval_every=3,
    checkpoint_every=3,
    group_size=4,
    prompts_per_batch=2,
    train_timesteps=8,
    eval_timesteps=10,
    sde_window_hi=4,
    text_hidden=24,
    flow_hidden=32,
    eval_samples=4,
    pretrain_text_n=256,
    pretrain_text_epochs=3,
    pretrain_flow_n=512,
    pretrain_flow_epochs=6,
)


@pytest.fixture(scope="module")
def tiny_pretrain(tmp_path_factory):
    out = tmp_path_factory.mktemp("pre")
    pretrain_all(TINY, out)
    return out


@pytest.fixture(scope="module")
def desk_pretrain(tmp_path_factory):
    """The recipe's pretraining, seed 101 at desk defaults: its directory and report."""
    out = tmp_path_factory.mktemp("desk-pre")
    return out, pretrain_all(replace(TrainConfig(), seed=101), out)


def _rt():
    return make_runtime(TINY)


def _collect(rt, prompts, text, flow, seed, update):
    """collect_rollouts on the update's words, drawn as a block of one update;
    frozen text reads its traces from the table `train` builds."""
    draws = rollout_words(rt.cfg, seed, range(update, update + 1), len(prompts))[0]
    greedy = None if rt.cfg.train_text else rt.text_policy.greedy_trace(text, PROMPT_TOKENS)
    return collect_rollouts(rt, prompts, text, flow, draws, greedy)


def _rows(groups):
    """The rows `traj` of `groups` (one group or a list) in their update's
    batch, in group order: their rewards, advantages, text rows, window
    starts, states and window means, and the batch's FlowBatch `flow`."""
    groups = groups if isinstance(groups, list) else [groups]
    b, rows = groups[0].batch, np.r_[tuple(g.rows for g in groups)]
    return SimpleNamespace(rewards=b.rewards[rows], advantages=b.advantages[rows],
                           seqs=b.seqs[rows], flow=b.flow, traj=rows,
                           starts=b.flow.starts[rows], states=b.flow.states[:, rows],
                           mu=b.flow.mu[rows])


def _text_batch(rt, seqs, advantages, temperature, beta_txt, ref, old):
    """A text batch whose old log-probs a first surrogate call at `old` took."""
    batch = rt.text_policy.prepare_batch(seqs, advantages, temperature, beta_txt, ref)
    rt.text_policy.surrogate_loss(old, batch, 0.0)
    return batch


def _flow_batch(rt, flow_batch, traj, advantages, reg_mode, reg_weight, ref, old):
    """A flow batch over the trajectories `traj` whose old means a first
    surrogate call at `old` took."""
    batch = rt.flow_policy.prepare_batch(flow_batch, traj, advantages, reg_mode, reg_weight,
                                         ref)
    rt.flow_policy.surrogate_loss(old, batch, 0.0)
    return batch


def _old_logp(rt, text, seqs):
    """The old log-probs the text update takes for the rows `seqs`."""
    return _text_batch(rt, seqs, np.ones(len(seqs)), rt.cfg.temperature, 0.0, text,
                       text).old_logp


def _snap(rt, pre_dir):
    text = checkpoint.load_params(pre_dir / "text.ckpt")
    flow = checkpoint.load_params(pre_dir / "flow.ckpt")
    return text, flow


def _window_logp(batch: FlowBatch, traj) -> np.ndarray:
    """(len(traj), W) sampling-time log-densities of the window steps of
    the rows `traj`."""
    W = batch.mu.shape[1]
    out = np.empty((len(traj), W))
    for (n, i), w in itertools.product(enumerate(traj), range(W)):
        k = batch.starts[i] + w
        t, dt = batch.steps.times[k], batch.steps.times[k] - batch.steps.times[k + 1]
        s = batch.steps.sigma_level * np.sqrt(t) * np.sqrt(dt)
        out[n, w] = transition_logprob(batch.mu[i, w], s, batch.states[k + 1, i])
    return out


# each policy's size parameters and the config key that sets each
POLICY_SIZES = [(TextPolicy, "max_trace_len", "max_trace_len"),
                (TextPolicy, "embed_dim", "text_embed_dim"),
                (TextPolicy, "hidden", "text_hidden"),
                (FlowPolicy, "cond_dim", "flow_cond_dim"),
                (FlowPolicy, "hidden", "flow_hidden")]


class TestMakeRuntime:
    @pytest.mark.parametrize("key", [key for _, _, key in POLICY_SIZES])
    def test_each_size_key_shapes_its_policy(self, key):
        # a size set away from its default reaches its own slot of its own
        # policy, so no two sizes are swapped or dropped
        cfg = TrainConfig(**{key: getattr(TrainConfig(), key) + 3})
        rt = make_runtime(cfg)
        rng = np.random.default_rng(0)
        text, flow = rt.text_policy.init_params(rng), rt.flow_policy.init_params(rng)
        ctx, embed, hidden = PROMPT_LEN + cfg.max_trace_len, cfg.text_embed_dim, cfg.text_hidden
        assert {name: text[name].shape for name in text.names()} == {
            "wte": (VOCAB_SIZE, embed),
            "wpe": (ctx, embed), "W0": (ctx * embed, hidden), "b0": (hidden,),
            "W1": (hidden, hidden), "b1": (hidden,), "W2": (hidden, VOCAB_SIZE),
            "b2": (VOCAB_SIZE,)}
        cond, hidden = cfg.flow_cond_dim, cfg.flow_hidden
        assert {name: flow[name].shape for name in flow.names()} == {
            "cemb": (VOCAB_SIZE, cond), "W0": (DIM + N_TIME_FEATS + cond, hidden),
            "b0": (hidden,), "W1": (hidden, hidden), "b1": (hidden,), "W2": (hidden, DIM),
            "b2": (DIM,)}

    @pytest.mark.parametrize("policy, name, key", POLICY_SIZES,
                             ids=[f"{p.__name__}-{name}" for p, name, _ in POLICY_SIZES])
    def test_policy_sizes_are_required(self, policy, name, key):
        # the sizes are written once, as the config's defaults: a policy built
        # without one of them is refused instead of taking a second default
        sizes = {n: getattr(TrainConfig(), k) for p, n, k in POLICY_SIZES if p is policy}
        policy(**sizes)
        del sizes[name]
        with pytest.raises(TypeError, match=name):
            policy(**sizes)


class TestGroupAdvantages:
    def test_spot_values(self):
        a = group_advantages(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(a, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-9)

    def test_equal_rewards_all_zero(self):
        np.testing.assert_array_equal(group_advantages(np.full(5, 0.7)), np.zeros(5))

    def test_affine_invariance(self):
        rng = stream(0, "aff")
        for _ in range(50):
            r = rng.normal(size=8)
            a = group_advantages(r)
            b = group_advantages(2.5 * r + 1.3)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_mean_zero_std_one(self):
        rng = stream(1, "ms")
        for _ in range(200):
            r = rng.normal(size=int(rng.integers(2, 12)))
            a = group_advantages(r)
            if np.any(a):
                assert abs(a.mean()) < 1e-10
                assert abs(a.std() - 1.0) < 1e-10
                assert np.argmax(a) == np.argmax(r)

    def test_one_call_over_groups_equals_per_group_calls_bit_for_bit(self):
        eps = 1e-8  # group_advantages' degenerate-group threshold
        rng = stream(2, "rows")
        G = 9
        z = rng.normal(size=G)
        z = (z - z.mean()) / z.std()
        rows = [
            rng.normal(size=G),
            np.full(G, 0.3),                       # tied: degenerate
            np.repeat([0.1, 0.4, 0.4], 3),         # partly tied
            0.5 + eps * (1.0 - 1e-3) * z,          # std just below eps
            0.5 + eps * (1.0 + 1e-3) * z,          # std just above eps
            rng.uniform(size=G),
        ]
        stds = [r.std() for r in rows]
        assert stds[1] == 0.0 and stds[3] < eps < stds[4]
        r = np.stack(rows)
        a = group_advantages(r)
        assert a.shape == r.shape
        for i, row in enumerate(rows):
            one = group_advantages(row)
            assert a[i].tobytes() == one.tobytes(), i
            # the scalar formula, row by row
            std = float(row.std())
            old = np.zeros_like(row) if std < eps else (row - row.mean()) / std
            assert one.tobytes() == old.tobytes(), i
        assert not np.any(a[[1, 3]]) and np.all(a[[0, 2, 4, 5]].std(axis=1) > 0.99)


class TestRolloutWords:
    @pytest.mark.parametrize("train_text", [True, False])
    def test_block_variates_equal_per_update_variates(self, train_text):
        # blocks as `train` draws them from update 1 and from a resume at
        # update 7: two full blocks, then a partial last one; every update's
        # prompts and variates are uniforms, below and normals applied to
        # the words one `words` call per tag gives for that update alone
        cfg = replace(TINY, train_text=train_text, sde_window_size=2)
        slots, G, W = 3, cfg.group_size, cfg.sde_window_size
        for first in (1, 7):
            last = first + 2 * ROLLOUT_BLOCK + 5
            got = []
            for lo in range(first, last, ROLLOUT_BLOCK):
                got += rollout_words(cfg, 5, range(lo, min(lo + ROLLOUT_BLOCK, last)), slots)
            assert len(got) == last - first
            for update, draws in enumerate(got, start=first):
                index = [(update, s, m) for s in range(slots) for m in range(G)]
                w = words(5, "flow", index, 1 + DIM + W * DIM)
                starts = np.asarray(cfg.window_starts)[
                    below(5, "flow", index, w[:, 0], len(cfg.window_starts))]
                z = normals(w[:, 1:])
                assert draws.starts.tobytes() == starts.tobytes()
                assert draws.x1.tobytes() == z[:, :DIM].tobytes()
                assert draws.eps.tobytes() == z[:, DIM:].reshape(slots * G, W, DIM).tobytes()
                at = [(update, s, 0) for s in range(slots)]
                np.testing.assert_array_equal(
                    draws.prompts, draw_prompts(5, "prompt", at, words(5, "prompt", at, 6)))
                if train_text:
                    assert draws.uniforms.tobytes() == \
                        uniforms(words(5, "trace", index, cfg.max_trace_len)).tobytes()
                else:
                    assert draws.uniforms is None

    def test_forced_rejection_redraws_at_the_row_address(self, monkeypatch):
        # every row's window-start word is 0, which `below` rejects at
        # TINY's 3 window starts: each row redraws from its own counter
        # index, so a block and a block of one update give every update the
        # same starts, and the redraws differ by row
        real = trainer_mod.words_by_tag

        def rejected(seed, draws, *args):
            w = real(seed, draws, *args)
            w["flow"][:, 0] = 0
            return w

        monkeypatch.setattr(trainer_mod, "words_by_tag", rejected)
        block = rollout_words(TINY, 5, range(30, 35), 2)
        for update, draws in zip(range(30, 35), block):
            index = [(update, s, m) for s in range(2) for m in range(TINY.group_size)]
            zero = np.zeros(len(index), dtype=np.uint64)
            assert len(TINY.window_starts) == 3
            starts = np.asarray(TINY.window_starts)[below(5, "flow", index, zero, 3)]
            assert draws.starts.tolist() == starts.tolist()
            alone = rollout_words(TINY, 5, range(update, update + 1), 2)[0]
            assert alone.starts.tolist() == starts.tolist()
            assert len(set(starts.tolist())) > 1

    def test_block_length_and_resume_point_change_no_output(self, tiny_pretrain, tmp_path,
                                                           monkeypatch):
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "whole")
        monkeypatch.setattr(trainer_mod, "ROLLOUT_BLOCK", 4)
        train(cfg, tmp_path / "blocks")  # updates 1-4, 5-6
        train(replace(cfg, total_updates=3), tmp_path / "resumed")
        train(cfg, tmp_path / "resumed", resume=True)  # 1-3, then 4-6
        for run in ("blocks", "resumed"):
            for name in ("metrics.csv", "groups.jsonl", "state.ckpt"):
                assert (tmp_path / run / name).read_bytes() == \
                    (tmp_path / "whole" / name).read_bytes(), (run, name)


class TestRollouts:
    def test_deterministic_given_streams(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        prompt = prompt_id(1, "near", "tight")
        a = _rows(_collect(rt, [prompt], text, flow, 0, 3)[0])
        b = _rows(_collect(rt, [prompt], text, flow, 0, 3)[0])
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.states[-1], b.states[-1])

    def test_exactly_g_reward_evaluations(self, tiny_pretrain, monkeypatch):
        # sparse terminal reward: scored once per trajectory, at t=0, all
        # trajectories in one call
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        calls = []
        real = trainer_mod.score

        def counting(x0, prompts, reward_mode):
            calls.append(len(x0))
            return real(x0, prompts, reward_mode)

        monkeypatch.setattr(trainer_mod, "score", counting)
        _collect(rt, [prompt_id(2, "far", "wide")], text, flow, 0, 1)
        assert calls == [rt.cfg.group_size]

    def test_identical_members_make_degenerate_group(self, tiny_pretrain):
        # two members with identical draws would yield equal rewards and
        # all-zero advantages; emulate by handing every member member 0's words
        rt = make_runtime(replace(TINY, group_size=2))
        text, flow = _snap(rt, tiny_pretrain)
        draws = rollout_words(rt.cfg, 0, range(1, 2), 1)[0]
        for part in (draws.uniforms, draws.starts, draws.x1, draws.eps):
            part[1] = part[0]
        group = collect_rollouts(rt, [prompt_id(1, "near", "tight")], text, flow, draws)[0]
        g = _rows(group)
        np.testing.assert_array_equal(g.rewards[0], g.rewards[1])
        np.testing.assert_array_equal(g.advantages, np.zeros(2))
        assert group.degenerate

    def test_velocity_eval_budget_per_trajectory(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        g = _rows(_collect(rt, [prompt_id(3, "near", "wide")], text, flow, 0, 2)[0])
        assert len(g.starts) == rt.cfg.group_size
        assert g.flow.evals_per_row == rt.cfg.train_timesteps

    def test_window_start_distribution_and_binding(self, tiny_pretrain):
        rt = _rt()
        cfg = rt.cfg
        starts = cfg.window_starts
        # distributional property of the counter-addressed word the rollout
        # consumes: word 0 of each member's "flow" row
        def start_of(update, members):
            index = [(update, 0, m) for m in members]
            w = words(cfg.seed, "flow", index, 1)[:, 0]
            return np.asarray(starts)[below(cfg.seed, "flow", index, w, len(starts))]

        n = 10_000
        counts = {s: int(np.sum(start_of(1, range(n)) == s)) for s in starts}
        for s, c in counts.items():
            assert abs(c / n - 1 / len(starts)) < 0.02, (s, c)
        # the rollout actually uses that draw
        rt30 = make_runtime(replace(TINY, group_size=30))
        text, flow = _snap(rt30, tiny_pretrain)
        g = _rows(_collect(rt30, [prompt_id(4, "far", "tight")], text, flow, cfg.seed, 7)[0])
        np.testing.assert_array_equal(g.starts, start_of(7, range(30)))

    @pytest.mark.parametrize("overrides", [{}, {"train_text": False}, {"train_cfg": True}])
    def test_batch_composition_changes_no_member(self, tiny_pretrain, overrides):
        # member m of slot s draws only its own counter-addressed words, so its tokens,
        # window, states and window statistics do not depend on the other rows
        rt = make_runtime(replace(TINY, **overrides))
        text, flow = _snap(rt, tiny_pretrain)
        prompts, others = (random_prompts(seed, "p", 4).tolist() for seed in (5, 6))
        batched = _collect(rt, prompts, text, flow, 0, 2)
        for slot in range(4):
            # the slot keeps its prompt; slot 0 runs alone, the others beside
            # different prompts
            mixed = others[:slot] + [prompts[slot]] + (others[slot + 1:] if slot else [])
            ref = _rows(_collect(rt, mixed, text, flow, 0, 2)[slot])
            got = _rows(batched[slot])
            assert got.seqs.tobytes() == ref.seqs.tobytes()
            np.testing.assert_allclose(_old_logp(rt, text, got.seqs), _old_logp(rt, text, ref.seqs),
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.starts, ref.starts)
            assert got.flow.evals_per_row == ref.flow.evals_per_row
            for u, v in ((got.states, ref.states), (got.mu, ref.mu),
                         (_window_logp(got.flow, got.traj), _window_logp(ref.flow, ref.traj))):
                assert u.shape == v.shape
                np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)

    def test_lockstep_sampler_calls(self, tiny_pretrain, monkeypatch):
        # one velocity call per denoising step and one head call per decoded
        # position, each for every row still going
        from unigrpo.flow_policy import FlowPolicy
        from unigrpo.text_policy import TextPolicy

        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        rows = {"flow": [], "text": []}

        def counting(cls, name, key):
            real = getattr(cls, name)

            def wrapper(self, params, x, *args, **kwargs):
                rows[key].append(len(x))
                return real(self, params, x, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(FlowPolicy, "velocity_np", "flow")
        counting(TextPolicy, "logits_np", "text")
        prompts = random_prompts(0, "p", 3)
        _collect(rt, prompts, text, flow, 0, 1)
        n_rows = 3 * rt.cfg.group_size
        assert rows["flow"] == [n_rows] * rt.cfg.train_timesteps
        assert 1 <= len(rows["text"]) <= rt.cfg.max_trace_len and rows["text"][0] == n_rows


class TestUnifiedUpdate:
    def _setup(self, tiny_pretrain, **cfg_kw):
        from dataclasses import replace

        cfg = replace(TINY, **cfg_kw)
        rt = make_runtime(cfg)
        text, flow = _snap(rt, tiny_pretrain)
        prompts = random_prompts(0, "p", cfg.prompts_per_batch)
        groups = _collect(rt, prompts, text, flow, 0, 1)
        at = AdamState.for_params(text, lr=cfg.lr_text)
        af = AdamState.for_params(flow, lr=cfg.lr_flow)
        return rt, groups, text, flow, at, af

    def test_degenerate_groups_leave_params_untouched(self, tiny_pretrain):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, reg_mode="none")
        for g in groups:
            g.batch.advantages[g.rows] = 0.0
        new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in text.items():
            np.testing.assert_array_equal(new_text[name], arr)
        for name, arr in flow.items():
            np.testing.assert_array_equal(new_flow[name], arr)
        assert stats.j == {"text": 0.0, "flow": 0.0}

    def test_zero_window_rollout_and_update(self, tiny_pretrain):
        # W = 0 is a valid config: the flow rollout is the plain ODE, so the
        # flow has no surrogate terms and only the text policy trains
        rt, groups, text, flow, at, af = self._setup(
            tiny_pretrain, sde_window_size=0, sigma_level=0.0, train_flow=False
        )
        for g in map(_rows, groups):
            assert g.mu.shape == (rt.cfg.group_size, 0, 2)
            np.testing.assert_array_equal(g.starts, rt.cfg.sde_window_lo)
            assert np.isfinite(g.rewards).all()
        new_text, _, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert not stats.skipped and np.isfinite(stats.j["text"])
        assert any(not np.array_equal(new_text[name], arr) for name, arr in text.items())

    def test_freeze_flags(self, tiny_pretrain):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, train_text=False)
        new_text, _, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in text.items():
            np.testing.assert_array_equal(new_text[name], arr)

        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, train_flow=False)
        new_text, new_flow, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in flow.items():
            np.testing.assert_array_equal(new_flow[name], arr)
        assert af.step == 0
        assert any(not np.array_equal(new_text[name], arr) for name, arr in text.items())

    def test_on_policy_first_epoch_objective_additivity(self, tiny_pretrain):
        # at theta = theta_old the per-group surrogates equal mean(adv) = 0,
        # minus the regularizer terms; the unified stats must equal the
        # separately evaluated objectives
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain)
        cfg = rt.cfg
        active = [_rows(g) for g in groups if not g.degenerate]
        j_text_sep = np.mean([
            rt.text_policy.surrogate_loss(text, rt.text_policy.prepare_batch(
                g.seqs, g.advantages, cfg.temperature, cfg.beta_txt, text,
            ), cfg.clip_eps)[0]
            for g in active
        ])
        j_flow_sep = np.mean([
            rt.flow_policy.surrogate_loss(flow, rt.flow_policy.prepare_batch(
                g.flow, g.traj, g.advantages, cfg.reg_mode, cfg.mse_weight, flow,
            ), cfg.clip_eps)[0]
            for g in active
        ])
        _, _, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert stats.j["text"] == pytest.approx(j_text_sep, abs=1e-12)
        assert stats.j["flow"] == pytest.approx(j_flow_sep, abs=1e-12)
        # reg evaluated at theta = theta_ref contributes exactly 0
        assert stats.j["text"] == pytest.approx(0.0, abs=1e-10)
        assert stats.j["flow"] == pytest.approx(0.0, abs=1e-10)


    @pytest.mark.parametrize("reg_mode", ["none", "latent-kl", "velocity-mse"])
    def test_one_batch_call_equals_mean_of_group_calls(self, tiny_pretrain, reg_mode):
        # per-row weights carry 1/(G * len), so concatenating the groups
        # changes neither the objective nor its gradient
        rt, groups, text, flow, _, _ = self._setup(tiny_pretrain, prompts_per_batch=3)
        text_moved = text.with_blocks({"W2": text["W2"] + 0.01})
        flow_moved = flow.with_blocks({"b2": flow["b2"] + 0.01})
        text_ref = text.with_blocks({"b2": text["b2"] - 0.02})
        calls = {
            "text": lambda gs: rt.text_policy.surrogate_loss(
                text_moved, _text_batch(
                    rt, _rows(gs).seqs, _rows(gs).advantages, 0.7, 0.05, text_ref, text,
                ), 0.2,
            ),
            "flow": lambda gs: rt.flow_policy.surrogate_loss(
                flow_moved, _flow_batch(rt, _rows(gs).flow, _rows(gs).traj, _rows(gs).advantages,
                                        reg_mode, 0.02, flow, flow), 0.2,
            ),
        }
        for name, call in calls.items():
            j_batch, g_batch, _ = call(groups)
            per_group = [call([g]) for g in groups]
            assert j_batch == pytest.approx(np.mean([r[0] for r in per_group]), abs=1e-12), name
            mean = np.mean([r[1] for r in per_group], axis=0)
            np.testing.assert_allclose(g_batch, mean, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("group,prompts,train_cfg", [
        (2, 3, True), (5, 3, False), (5, 3, True), (6, 3, False),
    ])
    def test_first_epoch_flow_ratios_are_one_at_any_batch_size(self, desk_pretrain, group,
                                                                prompts, train_cfg):
        # the rollout takes its means from B-row velocity calls and the
        # surrogate from B * W rows, which BLAS may round differently; at
        # these sizes the recipe's pretraining read first-epoch ratios off 1
        # while the old means were the rollout's
        cfg = replace(TrainConfig(), seed=101, group_size=group, prompts_per_batch=prompts,
                      train_cfg=train_cfg, reg_mode="none")
        rt = make_runtime(cfg)
        text, flow = _snap(rt, desk_pretrain[0])
        off = []
        for update, draws in enumerate(rollout_words(cfg, 101, range(1, 6), prompts), 1):
            groups = collect_rollouts(rt, draws.prompts, text, flow, draws)
            active = _rows([g for g in groups if not g.degenerate])
            batch = rt.flow_policy.prepare_batch(active.flow, active.traj, active.advantages,
                                                 "none", 0.0, flow)
            _, _, stats = rt.flow_policy.surrogate_loss(flow, batch, 0.0)
            if not (stats.ratio == 1.0).all() or stats.clip_fraction:
                off.append(update)
        assert off == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_rollout_skips_the_update(self, tiny_pretrain):
        # refused when the flow batch is prepared, before any arithmetic on it
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain)
        row = next(g for g in groups if not g.degenerate).rows.start
        groups[0].batch.flow.mu[row, 1] = np.nan
        new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert stats.skipped and at.step == af.step == 0
        assert new_text is text and new_flow is flow

    @pytest.mark.parametrize("train_cfg", [False, True])
    @pytest.mark.parametrize("reg_mode", ["none", "latent-kl", "velocity-mse"])
    def test_nonfinite_ratio_skips_the_update(self, tiny_pretrain, reg_mode, train_cfg):
        # a prepared batch's rows name each row's trajectory under every
        # regularizer, at guidance scales 1 and 2; a ratio that is not
        # finite is a NumericError naming one, which skips the update and
        # leaves parameters and both optimizer states as they came in
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, reg_mode=reg_mode,
                                                     train_cfg=train_cfg)
        assert rt.cfg.train_cfg_scale == 2.0
        flow_batch = groups[0].batch.flow
        B, W = flow_batch.mu.shape[:2]
        prepared = rt.flow_policy.prepare_batch(flow_batch, np.arange(B), np.ones(B), reg_mode,
                                                0.1, flow)
        np.testing.assert_array_equal(prepared.rows, np.repeat(np.arange(B), W))
        # a completed update first, so the optimizer state is non-trivial
        text, flow, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert not stats.skipped
        entry = [(st.m.copy(), st.v.copy(), st.step) for st in (at, af)]
        # a next state far out but finite: its noise, and so its ratio, overflows
        row = next(g for g in groups[::-1] if not g.degenerate).rows.stop - 1
        flow_batch.states[flow_batch.starts[row] + W, row] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow,
                                                       at, af)
        assert stats.skipped and new_text is text and new_flow is flow
        for st, (m, v, step) in zip((at, af), entry):
            assert st.step == step
            assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("plant", ["rollout", "ratio"])
    def test_nonfinite_flow_names_the_rollout_row(self, tiny_pretrain, monkeypatch, plant):
        # with the first group degenerate the update's flow rows start at the
        # second group; a non-finite stored mean, or a next state whose ratio
        # overflows, names its trajectory by its row of the rollout, not by
        # its place among the active rows
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, prompts_per_batch=3)
        batch, W = groups[0].batch, rt.cfg.sde_window_size
        batch.advantages[groups[0].rows] = 0.0
        row = next(g for g in groups[1:] if not g.degenerate).rows.start + 1
        k = batch.flow.starts[row] + W - 1
        if plant == "rollout":
            batch.flow.mu[row, W - 1] = np.nan
        else:
            batch.flow.states[k + 1, row] = 1e308
        errors = []
        for name in ("prepare_batch", "surrogate_loss"):
            def spy(*args, real=getattr(FlowPolicy, name), **kwargs):
                try:
                    return real(*args, **kwargs)
                except NumericError as exc:
                    errors.append(str(exc))
                    raise
            monkeypatch.setattr(FlowPolicy, name, spy)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert stats.skipped
        assert errors == [f"non-finite flow {plant} at trajectory {row}, step {k}"]

    def test_failed_epoch_leaves_no_trace(self, tiny_pretrain, monkeypatch):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain)
        # a completed update first, so the optimizer state is non-trivial
        text, flow, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        entry = {
            key: (st.m.copy(), st.v.copy(), st.step) for key, st in (("at", at), ("af", af))
        }
        real = rt.flow_policy.surrogate_loss
        calls = []

        def fails_in_epoch_two(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(rt.flow_policy, "surrogate_loss", fails_in_epoch_two)
        new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert stats.skipped and len(calls) == 2
        for new, old in ((new_text, text), (new_flow, flow)):
            for name, arr in old.items():
                assert new[name].tobytes() == arr.tobytes(), name
        for st, (m, v, step) in ((at, entry["at"]), (af, entry["af"])):
            assert st.step == step
            assert st.m.tobytes() == m.tobytes()
            assert st.v.tobytes() == v.tobytes()


def _two_pass_evaluate(rt, text_params, flow_params, flow_ref, eval_set) -> dict:
    """evaluate as it ran with the drift in a second pass: the sampler steps
    with the tuned field, under guidance one forward over both branches'
    rows stacked into one array, and keeps the conditional branch; then the
    reference walks the same states, one forward per step.  Eval batches
    hold 16 * eval_samples rows, a multiple of 4, at which the stacked rows
    round as separate calls do."""
    cfg, fp, times = rt.cfg, rt.flow_policy, rt.steps_eval.times
    ids, x1 = eval_set
    traces = rt.text_policy.greedy_trace(text_params, PROMPT_TOKENS[ids])[:, PROMPT_LEN:]
    owners = np.repeat(np.arange(len(ids)), cfg.eval_samples)
    pool = fp.pool_weights(traces[owners])
    B, n, w = len(x1), len(times) - 1, cfg.eval_cfg_scale
    feats = time_features(times[:-1])
    states, cond_v = [x1], []
    for k in range(n):
        rows = np.concatenate([states[k], np.tile(feats[k], (B, 1)),
                               pool @ flow_params["cemb"]], axis=1)
        if w != 1.0:
            rows = np.concatenate([rows, rows])
            rows[B:, DIM + N_TIME_FEATS:] = 0.0
        v = mlp_forward_np(flow_params, rows, fp.arch, "tanh")
        cond_v.append(v[:B])
        if w != 1.0:
            v = cfg_velocity(v[:B], v[B:], w)
        states.append(states[k] - v * (times[k] - times[k + 1]))
    rewards, _ = score(states[-1], ids[owners], rt.cfg.reward_mode)
    diff = np.stack(cond_v)
    for k in range(n):
        rows = np.concatenate([states[k], np.tile(feats[k], (B, 1)),
                               pool @ flow_ref["cemb"]], axis=1)
        diff[k] -= mlp_forward_np(flow_ref, rows, fp.arch, "tanh")
    drift = np.sum(diff * diff, axis=2).reshape(n, len(ids), -1)
    return {
        "eval_reward": float(np.mean(rewards)),
        "text_accuracy": canonical_accuracy(traces, ids),
        "velocity_drift": float(np.mean(drift.transpose(1, 0, 2).ravel())),
    }


class TestEvaluate:
    @pytest.mark.parametrize("eval_cfg_scale", [1.0, 2.0])
    def test_batched_matches_per_prompt_loop(self, tiny_pretrain, eval_cfg_scale):
        rt = make_runtime(replace(TINY, eval_cfg_scale=eval_cfg_scale))
        text, flow = _snap(rt, tiny_pretrain)
        moved = flow.with_blocks({"b2": flow["b2"] + 0.01})
        es = make_eval_set(rt, 0)
        got = evaluate(rt, text, moved, flow, es)

        # reference: one prompt at a time, one decoded token at a time
        tp, fp, times = rt.text_policy, rt.flow_policy, rt.steps_eval.times
        rewards, accs, drifts = [], [], []
        ids, x1s = es
        for prompt, x1 in zip(ids, np.split(x1s, len(ids))):
            tokens = []
            for _ in range(rt.cfg.max_trace_len):
                row = np.full((1, tp.ctx), PAD, dtype=np.int64)
                row[0, : tp.prompt_len + len(tokens)] = ORACLE_PROMPTS[prompt].tokens + tuple(tokens)
                tokens.append(int(np.argmax(tp.logits_np(text, row)[0])))
                if tokens[-1] == EOS:
                    break
            accs.append(tuple(tokens) == ORACLE_PROMPTS[prompt].trace)
            pool = fp.pool_weights(np.array([tokens]))
            cond_cur = np.repeat(pool @ moved["cemb"], len(x1), axis=0)
            cond_ref = np.repeat(pool @ flow["cemb"], len(x1), axis=0)
            x = x1.copy()
            for k in range(len(times) - 1):
                t, dt = float(times[k]), float(times[k] - times[k + 1])
                v_cur = reference_velocity(fp, moved, x, t, cond_cur)
                v_ref = reference_velocity(fp, flow, x, t, cond_ref)
                drifts.extend(np.sum((v_cur - v_ref) ** 2, axis=1))
                x = x - reference_velocity(fp, moved, x, t, cond_cur, eval_cfg_scale) * dt
            rewards.extend(reference_reward(xx, prompt, rt.cfg.reward_mode) for xx in x)
        assert got["text_accuracy"] == np.mean(accs)
        assert got["eval_reward"] == pytest.approx(np.mean(rewards), rel=0, abs=1e-12)
        assert got["velocity_drift"] == pytest.approx(np.mean(drifts), rel=1e-9)

    @pytest.mark.parametrize("eval_cfg_scale", [1.0, 2.0])
    def test_one_velocity_pass_per_field(self, tiny_pretrain, eval_cfg_scale, monkeypatch):
        # the frozen reference is one more slice of the sampler's forward,
        # so an eval pass runs one velocity forward per step over every
        # field's rows: the tuned field's conditional rows, under guidance
        # its unconditional ones, and the reference's
        rt = make_runtime(replace(TINY, eval_cfg_scale=eval_cfg_scale))
        text, flow = _snap(rt, tiny_pretrain)
        moved = flow.with_blocks({"b2": flow["b2"] + 0.01})
        calls = {"velocity": [], "mlp": []}
        real_velocity, real_mlp = FlowPolicy.velocity_np, flow_policy_mod.mlp_forward_np

        def velocity(self, params, x, *args, **kwargs):
            calls["velocity"].append(x.shape[:-1])
            return real_velocity(self, params, x, *args, **kwargs)

        def mlp(params, x, *args, **kwargs):
            calls["mlp"].append(x.shape[:-1])
            return real_mlp(params, x, *args, **kwargs)

        monkeypatch.setattr(FlowPolicy, "velocity_np", velocity)
        monkeypatch.setattr(flow_policy_mod, "mlp_forward_np", mlp)
        evaluate(rt, text, moved, flow, make_eval_set(rt, 0))
        steps, rows = rt.cfg.eval_timesteps, 16 * rt.cfg.eval_samples
        slices = 2 if eval_cfg_scale == 1.0 else 3
        assert calls["velocity"] == [(slices, rows)] * steps
        assert calls["mlp"] == [(slices, rows)] * steps

    @pytest.mark.parametrize("eval_cfg_scale", [1.0, 2.0])
    def test_equals_the_two_pass_evaluation(self, tiny_pretrain, eval_cfg_scale):
        # the whole result is == the evaluation that measured the drift in a
        # second pass over the sampled states
        rt = make_runtime(replace(TINY, eval_cfg_scale=eval_cfg_scale))
        text, flow = _snap(rt, tiny_pretrain)
        moved = flow.with_blocks({"b2": flow["b2"] + 0.01, "W1": flow["W1"] * 1.01})
        es = make_eval_set(rt, 0)
        got = evaluate(rt, text, moved, flow, es)
        assert got == _two_pass_evaluate(rt, text, moved, flow, es)
        assert got["velocity_drift"] > 0

    def test_eval_set_is_the_per_tuple_construction(self):
        # one synonym draw per attribute tuple in tuple order, and each
        # tuple's frozen noise, its rows in tuple order
        rt = _rt()
        ids, x1 = make_eval_set(rt, 0)
        want_ids, want_x1 = [], []
        for i, (q, b, s) in enumerate(all_tuples()):
            prng = stream(0, "eval-prompt", i)
            want_ids.append(prompt_id(q, b, s, [int(prng.integers(3)) for _ in range(3)]))
            want_x1.append(stream(0, "eval-noise", i).standard_normal((rt.cfg.eval_samples, 2)))
        assert ids.tolist() == want_ids
        assert x1.shape == (16 * rt.cfg.eval_samples, 2)
        assert x1.tobytes() == np.concatenate(want_x1).tobytes()

    def test_deterministic(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        es = make_eval_set(rt, 0)
        a = evaluate(rt, text, flow, flow, es)
        b = evaluate(rt, text, flow, flow, es)
        assert a == b
        assert 0.0 <= a["eval_reward"] <= 1.0
        assert a["velocity_drift"] == 0.0  # flow params equal the reference


class TestGreedyTable:
    def test_entries_equal_one_prompt_decodes(self, tiny_pretrain):
        # the frozen-text table: every prompt's greedy text row in prompt-id
        # order, decoded in one batch, with the tokens of one-prompt decodes
        rt = _rt()
        text, _ = _snap(rt, tiny_pretrain)
        table = rt.text_policy.greedy_trace(text, PROMPT_TOKENS)
        prompts = ORACLE_PROMPTS
        assert len(prompts) == 432 and [p.prompt_id for p in prompts] == list(range(432))
        assert table.shape == (432, rt.text_policy.ctx)
        for p in prompts:
            one = rt.text_policy.greedy_trace(text, np.array([p.tokens]))[0]
            got = table[p.prompt_id]
            assert tuple(got[: rt.text_policy.prompt_len]) == p.tokens
            assert got.tobytes() == one.tobytes(), p

    @pytest.mark.parametrize("total_updates,eval_every", [(6, 3), (5, 1), (0, 3)])
    def test_frozen_text_train_decodes_once(self, tiny_pretrain, tmp_path, monkeypatch,
                                            total_updates, eval_every):
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), train_text=False,
                      total_updates=total_updates, eval_every=eval_every)
        rows = []
        real = TextPolicy.greedy_trace

        def counting(self, params, prompts, *args, **kwargs):
            rows.append(len(prompts))
            return real(self, params, prompts, *args, **kwargs)

        monkeypatch.setattr(TextPolicy, "greedy_trace", counting)
        train(cfg, tmp_path / "run")
        assert rows == [432]
        if total_updates:
            rows.clear()
            train(replace(cfg, total_updates=total_updates + 2), tmp_path / "run", resume=True)
            assert rows == [432]

    def test_resumed_table_comes_from_the_resumed_text(self, tiny_pretrain, tmp_path,
                                                       monkeypatch):
        # frozen text resumes as the reference; move the saved text so the
        # two differ, and the table must come from the saved one
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), train_text=False)
        train(replace(cfg, total_updates=3), tmp_path / "run")
        state = checkpoint.load_blocks(tmp_path / "run/state.ckpt")
        state["text.b2"] = state["text.b2"] + 0.5
        checkpoint.save_blocks(tmp_path / "run/state.ckpt", state)
        seen = []
        real = TextPolicy.greedy_trace

        def recording(self, text_params, prompts):
            seen.append(text_params)
            return real(self, text_params, prompts)

        monkeypatch.setattr(TextPolicy, "greedy_trace", recording)
        train(cfg, tmp_path / "run", resume=True)
        assert len(seen) == 1
        for name, arr in seen[0].items():
            assert arr.tobytes() == state[f"text.{name}"].tobytes(), name
        ref = checkpoint.load_params(tiny_pretrain / "text.ckpt")
        assert seen[0]["b2"].tobytes() != ref["b2"].tobytes()

    @pytest.mark.parametrize("eval_cfg_scale", [1.0, 2.0])
    def test_evaluate_with_table_equals_evaluate_without(self, tiny_pretrain, eval_cfg_scale):
        rt = make_runtime(replace(TINY, eval_cfg_scale=eval_cfg_scale))
        text, flow = _snap(rt, tiny_pretrain)
        moved = flow.with_blocks({"b2": flow["b2"] + 0.01})
        es = make_eval_set(rt, 0)
        got = evaluate(rt, text, moved, flow, es, rt.text_policy.greedy_trace(text, PROMPT_TOKENS))
        assert got == evaluate(rt, text, moved, flow, es)
        assert got == evaluate(rt, text, moved, flow, eval_set=es, greedy=None)


class TestTrainLoop:
    def test_missing_pretrain_is_checkpoint_error(self, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tmp_path / "nope"))
        with pytest.raises(CheckpointError, match="missing pretrained"):
            train(cfg, tmp_path / "run")

    def test_architecture_mismatch_rejected(self, tiny_pretrain, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), flow_hidden=16)
        with pytest.raises(CheckpointError, match="architecture"):
            train(cfg, tmp_path / "run")

    def test_fixed_seed_metrics_bit_identical(self, tiny_pretrain, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/groups.jsonl").read_bytes() == (tmp_path / "b/groups.jsonl").read_bytes()

    @pytest.mark.parametrize("overrides", [{}, {"train_text": False, "train_cfg": True}])
    def test_group_records_lose_nothing(self, tiny_pretrain, tmp_path, monkeypatch, overrides):
        # a record keeps only what nothing else determines: each update's
        # advantages, degenerate groups, window steps and eval budget follow,
        # bit for bit, from its fields and the run manifest's config
        spied = []

        def spy(*args, real=trainer_mod.collect_rollouts, **kwargs):
            groups = real(*args, **kwargs)
            spied.append(groups[0].batch)
            return groups

        monkeypatch.setattr(trainer_mod, "collect_rollouts", spy)
        out = tmp_path / "run"
        train(replace(TINY, pretrain_dir=str(tiny_pretrain), **overrides), out)
        cfg = json.loads((out / "run_manifest.json").read_text())["config_resolved"]
        G, W = cfg["group_size"], cfg["sde_window_size"]
        records = [json.loads(line) for line in (out / "groups.jsonl").read_text().splitlines()]
        assert len(records) == len(spied) * cfg["prompts_per_batch"]
        for rec in records:
            assert set(rec) == {"update", "slot", "prompt_id", "rewards", "traces",
                                "window_starts", "x0", "velocity_evals", "skipped"}
            batch = spied[rec["update"] - 1]
            rows = slice(rec["slot"] * G, (rec["slot"] + 1) * G)
            advantages = group_advantages(np.array(rec["rewards"]))
            assert (advantages == batch.advantages[rows]).all()
            assert GroupRollout(batch, rows).degenerate == (not advantages.any())
            np.testing.assert_array_equal(np.add.outer(rec["window_starts"], np.arange(W)),
                                          batch.flow.starts[rows, None] + np.arange(W))
            assert rec["velocity_evals"] == batch.flow.evals_per_row

    def test_resume_equals_uninterrupted(self, tiny_pretrain, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "full")

        short = replace(cfg, total_updates=3)
        # "cut" lacks the last timings row, as a run stopped between the
        # update's checkpoint and its timings row does
        for run in ("resumed", "cut"):
            train(short, tmp_path / run)
            if run == "cut":
                timings = tmp_path / run / "timings.csv"
                timings.write_text("".join(timings.read_text().splitlines(True)[:-1]))
            train(cfg, tmp_path / run, resume=True)

            for name in ("metrics.csv", "state.ckpt"):
                assert (tmp_path / "full" / name).read_bytes() == \
                    (tmp_path / run / name).read_bytes()

    def test_summary_reports_the_final_evaluation(self, tiny_pretrain, tmp_path):
        # the summary comes from metrics.csv: resuming a finished run, or a run
        # of no updates, reports the last evaluation instead of nulls
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), total_updates=2)
        first = train(cfg, tmp_path / "run")
        rows = read_metrics(tmp_path / "run/metrics.csv")
        assert first["baseline_eval"] == rows[0]["eval_reward"]
        assert [first[f"final_{key}"] for key in ("eval", "text_accuracy", "velocity_drift")] \
            == [rows[-1][key] for key in ("eval_reward", "text_accuracy", "velocity_drift")]
        assert None not in first.values()
        assert train(cfg, tmp_path / "run", resume=True) == first
        zero = train(replace(cfg, total_updates=0), tmp_path / "zero")
        assert None not in zero.values()
        assert zero["final_eval"] == zero["baseline_eval"] == first["baseline_eval"]

    def test_run_directory_holds_exactly_its_files(self, tiny_pretrain, tmp_path):
        # state.ckpt is the one checkpoint; the summary is returned, not
        # written; a run of no updates saves its update-0 state
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        files = {"run_manifest.json", "metrics.csv", "timings.csv", "groups.jsonl",
                 "state.ckpt", "ref_text.ckpt", "ref_flow.ckpt"}
        train(replace(cfg, total_updates=2), tmp_path / "run")
        assert {p.name for p in (tmp_path / "run").iterdir()} == files
        train(cfg, tmp_path / "run", resume=True)
        assert {p.name for p in (tmp_path / "run").iterdir()} == files
        train(replace(cfg, total_updates=0), tmp_path / "zero")
        assert {p.name for p in (tmp_path / "zero").iterdir()} == files

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty-dir", "over-older-run"])
    def test_zero_update_run_evaluates_its_own_state(self, tiny_pretrain, tmp_path, earlier):
        # a fresh run saves its update-0 state: eval of a zero-update run reads
        # that, not a missing file or an older run's parameters
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), total_updates=0)
        run = tmp_path / "run"
        if earlier:
            train(replace(cfg, seed=3, total_updates=2), run)
        train(replace(cfg, seed=4), run)
        row = read_metrics(run / "metrics.csv")[0]
        assert evaluate_run(run) == \
            {key: row[key] for key in ("eval_reward", "text_accuracy", "velocity_drift")}

    def test_resume_from_update_zero_equals_uninterrupted(self, tiny_pretrain, tmp_path):
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "full")
        train(replace(cfg, total_updates=0), tmp_path / "run")
        train(cfg, tmp_path / "run", resume=True)
        for name in ("metrics.csv", "groups.jsonl", "state.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), name

    def test_older_policy_files_are_left_unread(self, tiny_pretrain, tmp_path):
        # a run directory from before state.ckpt was the one checkpoint keeps
        # its text.ckpt and flow.ckpt through a resume; neither the resume
        # nor eval reads them
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "full")
        train(replace(cfg, total_updates=3), tmp_path / "run")
        for name in ("text.ckpt", "flow.ckpt"):
            (tmp_path / "run" / name).write_bytes(b"stale")
        train(cfg, tmp_path / "run", resume=True)
        for name in ("metrics.csv", "state.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes()
        last = read_metrics(tmp_path / "run/metrics.csv")[-1]
        assert evaluate_run(tmp_path / "run") == \
            {key: last[key] for key in ("eval_reward", "text_accuracy", "velocity_drift")}
        for name in ("text.ckpt", "flow.ckpt"):
            assert (tmp_path / "run" / name).read_bytes() == b"stale"

    def test_train_and_eval_keep_freed_heap(self, tiny_pretrain, tmp_path, monkeypatch):
        # every command that runs the policies sets the allocator policy, and
        # the manifest records whether it applied
        calls = []
        for applied in (True, False):
            monkeypatch.setattr(trainer_mod, "keep_freed_heap",
                                lambda applied=applied: calls.append(applied) or applied)
            out = tmp_path / f"run_{applied}"
            train(replace(TINY, pretrain_dir=str(tiny_pretrain), total_updates=1), out)
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["allocator_policy"] is applied
            evaluate_run(out)
        assert calls == [True, True, False, False]

    def test_run_directory_is_self_describing(self, tiny_pretrain, tmp_path):
        from dataclasses import replace
        import json

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "run")
        manifest = json.loads((tmp_path / "run/run_manifest.json").read_text())
        assert manifest["seed"] == cfg.seed
        assert manifest["config_resolved"]["group_size"] == cfg.group_size
        assert "config_text" in manifest
        rows = read_metrics(tmp_path / "run/metrics.csv")
        assert rows[0]["update"] == 0 and rows[0]["eval_reward"] is not None
        assert rows[-1]["update"] == cfg.total_updates
        assert rows[-1]["eval_reward"] is not None

    def test_fresh_run_replaces_another_runs_manifest(self, tiny_pretrain, tmp_path):
        # a fresh run into a used directory describes itself, not the run
        # that was there; only a resumed run keeps the manifest it finds
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), total_updates=2)
        train(cfg, tmp_path / "run")
        other = replace(cfg, seed=5, group_size=2, total_updates=1)
        train(other, tmp_path / "run")
        path = tmp_path / "run/run_manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == 5
        assert manifest["config_resolved"] == config_to_dict(other)
        before = path.read_bytes()
        train(replace(other, total_updates=2), tmp_path / "run", resume=True)
        assert path.read_bytes() == before

    def test_timings_sidecar_and_manifest(self, tiny_pretrain, tmp_path):
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(replace(cfg, total_updates=3), tmp_path / "run")
        train(cfg, tmp_path / "run", resume=True)
        header = (tmp_path / "run/metrics.csv").read_text().splitlines()[0]
        assert header == ("update,mean_train_reward,eval_reward,j_text,j_flow,clip_frac_text,"
                          "clip_frac_flow,velocity_drift,text_accuracy,nonfinite_samples")
        lines = (tmp_path / "run/timings.csv").read_text().splitlines()
        assert lines[0] == "update,wall_clock,rollout_s,update_s,eval_s,io_s"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(cfg.total_updates + 1))
        for update, wall, *phases in rows:
            assert min(phases) >= 0.0 and sum(phases) <= wall + 1e-5
            if update > 0:
                assert phases[0] > 0.0 and phases[1] > 0.0
        assert rows[0][4] > 0.0  # the baseline evaluation
        manifest = json.loads((tmp_path / "run/run_manifest.json").read_text())
        for key in ("python", "numpy", "blas"):
            assert isinstance(manifest[key], str) and manifest[key]
        assert set(manifest["thread_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }

    def test_checkpoints_reload_bit_exactly(self, tiny_pretrain, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "run")
        blocks = checkpoint.load_blocks(tmp_path / "run/state.ckpt")
        checkpoint.save_blocks(tmp_path / "again.ckpt", blocks)
        assert (tmp_path / "run/state.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_build_id_ignores_caller_cwd(self, tmp_path, monkeypatch):
        package_dir = Path(trainer_mod.__file__).resolve().parent
        expected = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=package_dir, capture_output=True, text=True,
        ).stdout.strip() or "unknown"
        monkeypatch.chdir(tmp_path)
        assert trainer_mod._build_id() == expected

    def test_build_id_runs_git_once_per_process(self, tiny_pretrain, tmp_path, monkeypatch):
        trainer_mod._build_id.cache_clear()
        git = []
        real = subprocess.run

        def counting(cmd, *args, **kwargs):
            if cmd[0] == "git":
                git.append(cmd)
            return real(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting)
        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain), total_updates=1)
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        assert len(git) == 1
        ids = [json.loads((tmp_path / run / "run_manifest.json").read_text())["build_id"]
               for run in ("a", "b")]
        assert ids[0] == ids[1] == trainer_mod._build_id() and ids[0]

    def test_architecture_check_draws_nothing(self, monkeypatch):
        # the expected shapes come from the policy's own init_params, undrawn
        rt = _rt()
        monkeypatch.setattr(trainer_mod, "stream", None)
        for policy, which in ((rt.text_policy, "text"), (rt.flow_policy, "flow")):
            params = policy.init_params(stream(3, "arch"))
            check_architecture(params, policy, which)
            name = params.names()[-1]
            wrong = {n: params[n] for n in params.names()}
            wrong[name] = np.zeros(params[name].shape + (1,))
            with pytest.raises(CheckpointError,
                               match=f"^{which} checkpoint does not match the configured"):
                check_architecture(ParamSet(wrong), policy, which)
            fewer = {n: params[n] for n in params.names()[1:]}
            with pytest.raises(CheckpointError, match="architecture"):
                check_architecture(ParamSet(fewer), policy, which)


# Desk-size text pretraining steps (128 traces x 4 positions = 512 rows) in
# a fresh interpreter: `keep_freed_heap` is applied or not per argv[1], two
# steps warm up, then it prints whether the policy applied and the minor
# page faults per step over six more.
_FAULT_PROBE = """
import resource, sys
from unigrpo.config import TrainConfig
from unigrpo.rng import stream
from unigrpo.task import make_pretrain_data
from unigrpo.trainer import keep_freed_heap, make_runtime
applied = keep_freed_heap() if sys.argv[1] == "on" else False
cfg = TrainConfig()
rt = make_runtime(cfg)
seqs, _ = make_pretrain_data(0, 128, 1)
policy = rt.text_policy
params = policy.init_params(stream(0, "init-text"))
rows, targets, _, _ = policy.token_rows(seqs)
assert len(rows) == 512
for _ in range(2):
    policy.ce_loss(params, rows, targets)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(6):
    policy.ce_loss(params, rows, targets)
print(applied, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 6)
"""

_GLIBC = sys.platform == "linux" and platform.libc_ver()[0] == "glibc"


def _text_step_faults(policy: str) -> tuple[bool, float]:
    src = str(Path(trainer_mod.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, policy], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    applied, faults = proc.stdout.split()
    return applied == "True", float(faults)


class TestPretrainAll:
    @pytest.mark.skipif(not _GLIBC, reason="the allocator policy is glibc's mallopt")
    def test_text_steps_reuse_freed_memory(self):
        applied, faults = _text_step_faults("on")
        assert applied
        assert faults <= 40, f"{faults} minor faults per text step"

    @pytest.mark.skipif(not _GLIBC, reason="the allocator policy is glibc's mallopt")
    def test_text_steps_fault_without_the_policy(self):
        # negative control for the budget above: glibc's default thresholds
        # hand each step's heap top back, and the next step faults it in
        applied, faults = _text_step_faults("off")
        assert not applied
        assert faults >= 200, f"{faults} minor faults per text step"

    def test_missing_mallopt_applies_nothing(self, monkeypatch):
        monkeypatch.setattr(trainer_mod.ctypes, "CDLL", lambda name: object())
        assert trainer_mod.keep_freed_heap() is False

    def test_timings_sidecar_leaves_recipe_outputs(self, desk_pretrain):
        # seed 101 at desk defaults is the recipe's pretraining: its
        # checkpoints and report hash as tools/recipe_hashes.json records
        out, report = desk_pretrain
        timings = json.loads((out / "pretrain_timings.json").read_text())
        assert set(timings) == {"data_s", "text_s", "flow_s", "checkpoint_s",
                                "minor_faults", "allocator_policy"}
        assert all(timings[k] >= 0.0 for k in ("data_s", "text_s", "flow_s", "checkpoint_s"))
        assert isinstance(timings["minor_faults"], int) and timings["minor_faults"] >= 0
        assert timings["allocator_policy"] is _GLIBC
        hashes = Path(__file__).resolve().parents[1] / "tools" / "recipe_hashes.json"
        want = json.loads(hashes.read_text())
        for name in ("text.ckpt", "flow.ckpt", "pretrain_report.json"):
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == want[f"pretrain/{name}"], name
        assert (out / "pretrain_report.json").read_text() == json.dumps(report, indent=2)

    def test_reports_and_checkpoints(self, tiny_pretrain):
        import json

        report = json.loads((tiny_pretrain / "pretrain_report.json").read_text())
        assert "text_greedy_accuracy" in report
        assert "flow_quadrant_accuracy_mean" in report
        assert (tiny_pretrain / "text.ckpt").exists()
        assert (tiny_pretrain / "flow.ckpt").exists()
