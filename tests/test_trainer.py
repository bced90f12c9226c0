"""Trainer machinery: advantages, rollouts, unified updates, persistence."""

import json
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import unigrpo.trainer as trainer_mod
from unigrpo import checkpoint
from unigrpo.config import TrainConfig
from unigrpo.errors import CheckpointError, NumericError
from unigrpo.metrics import read_metrics
from unigrpo.nn import AdamState
from unigrpo.rng import stream
from unigrpo.task import EOS, PAD, canonical_trace, make_prompt, reward, sample_prompt
from unigrpo.trainer import (
    collect_rollouts,
    evaluate,
    group_advantages,
    make_eval_set,
    make_runtime,
    pretrain_all,
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


def _rt():
    return make_runtime(TINY)


def _snap(rt, pre_dir):
    text = checkpoint.load_params(pre_dir / "text.ckpt")
    flow = checkpoint.load_params(pre_dir / "flow.ckpt")
    return text, flow


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


class TestRollouts:
    def test_deterministic_given_streams(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        prompt = make_prompt(1, "near", "tight")
        a = collect_rollouts(rt, [prompt], text, flow, seed=0, update=3)[0]
        b = collect_rollouts(rt, [prompt], text, flow, seed=0, update=3)[0]
        np.testing.assert_array_equal(a.rewards, b.rewards)
        for ta, tb in zip(a.trajs, b.trajs):
            np.testing.assert_array_equal(ta.x0, tb.x0)

    def test_exactly_g_reward_evaluations(self, tiny_pretrain, monkeypatch):
        # sparse terminal reward: scored once per trajectory, at t=0
        import unigrpo.task as task_mod

        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        calls = []
        real = task_mod.reward

        def counting(x0, prompt, geom):
            calls.append(1)
            return real(x0, prompt, geom)

        monkeypatch.setattr(task_mod, "reward", counting)
        collect_rollouts(rt, [make_prompt(2, "far", "wide")], text, flow, 0, 1)
        assert len(calls) == rt.cfg.group_size

    def test_identical_members_make_degenerate_group(self, tiny_pretrain, monkeypatch):
        # two members with identical streams would yield equal rewards and
        # all-zero advantages; emulate by handing every member member 0's streams
        real = trainer_mod.stream

        def member_zero(seed, tag, *idx):
            return real(seed, tag, *(idx[:-1] + (0,) if tag in ("trace", "flow") else idx))

        monkeypatch.setattr(trainer_mod, "stream", member_zero)
        rt = make_runtime(replace(TINY, group_size=2))
        text, flow = _snap(rt, tiny_pretrain)
        g = collect_rollouts(rt, [make_prompt(1, "near", "tight")], text, flow, 0, 1)[0]
        np.testing.assert_array_equal(g.rewards[0], g.rewards[1])
        np.testing.assert_array_equal(g.advantages, np.zeros(2))
        assert g.degenerate

    def test_velocity_eval_budget_per_trajectory(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        g = collect_rollouts(rt, [make_prompt(3, "near", "wide")], text, flow, 0, 2)[0]
        for traj in g.trajs:
            assert traj.velocity_evals == rt.cfg.train_timesteps

    def test_window_start_distribution_and_binding(self, tiny_pretrain):
        rt = _rt()
        cfg = rt.cfg
        starts = cfg.window_starts
        # distributional property of the derived streams the rollout consumes
        counts = {s: 0 for s in starts}
        n = 10_000
        for m in range(n):
            rng = stream(cfg.seed, "flow", 1, 0, m)
            counts[starts[int(rng.integers(len(starts)))]] += 1
        for s, c in counts.items():
            assert abs(c / n - 1 / len(starts)) < 0.02, (s, c)
        # the rollout actually uses that draw
        rt30 = make_runtime(replace(TINY, group_size=30))
        text, flow = _snap(rt30, tiny_pretrain)
        g = collect_rollouts(rt30, [make_prompt(4, "far", "tight")], text, flow, cfg.seed, 7)[0]
        for m, traj in enumerate(g.trajs):
            rng = stream(cfg.seed, "flow", 7, 0, m)
            expected = starts[int(rng.integers(len(starts)))]
            assert traj.window[0] == expected

    @pytest.mark.parametrize("overrides", [{}, {"train_text": False}, {"train_cfg": True}])
    def test_batch_composition_changes_no_member(self, tiny_pretrain, overrides):
        # member m of slot s draws only from its own streams, so its tokens,
        # window, x0 and step statistics do not depend on the other rows
        rt = make_runtime(replace(TINY, **overrides))
        text, flow = _snap(rt, tiny_pretrain)
        prompts = [sample_prompt(stream(5, "p", i)) for i in range(4)]
        others = [sample_prompt(stream(6, "p", i)) for i in range(4)]
        batched = collect_rollouts(rt, prompts, text, flow, 0, 2)
        for slot in range(4):
            # the slot keeps its prompt; slot 0 runs alone, the others beside
            # different prompts
            mixed = others[:slot] + [prompts[slot]] + (others[slot + 1:] if slot else [])
            ref = collect_rollouts(rt, mixed, text, flow, 0, 2)[slot]
            got = batched[slot]
            assert [tr.tokens for tr in got.traces] == [tr.tokens for tr in ref.traces]
            for a, b in zip(got.traces, ref.traces):
                np.testing.assert_allclose(a.logprobs, b.logprobs, rtol=0, atol=1e-12)
            for a, b in zip(got.trajs, ref.trajs):
                assert a.window == b.window and a.velocity_evals == b.velocity_evals
                np.testing.assert_allclose(a.x0, b.x0, rtol=0, atol=1e-12)
                for sa, sb in zip(a.steps, b.steps):
                    assert sa.sde == sb.sde and sa.s == sb.s and sa.sigma_t == sb.sigma_t
                    for u, v in ((sa.x, sb.x), (sa.x_next, sb.x_next), (sa.v, sb.v),
                                 (sa.mu, sb.mu)):
                        np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)
                    assert (sa.logp is None) == (sb.logp is None)
                    if sa.logp is not None:
                        assert abs(sa.logp - sb.logp) <= 1e-12

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
        prompts = [sample_prompt(stream(0, "p", i)) for i in range(3)]
        collect_rollouts(rt, prompts, text, flow, 0, 1)
        n_rows = 3 * rt.cfg.group_size
        assert rows["flow"] == [n_rows] * rt.cfg.train_timesteps
        assert 1 <= len(rows["text"]) <= rt.cfg.max_trace_len and rows["text"][0] == n_rows


class TestUnifiedUpdate:
    def _setup(self, tiny_pretrain, **cfg_kw):
        from dataclasses import replace

        cfg = replace(TINY, **cfg_kw)
        rt = make_runtime(cfg)
        text, flow = _snap(rt, tiny_pretrain)
        prompts = [sample_prompt(stream(0, "p", i)) for i in range(cfg.prompts_per_batch)]
        groups = collect_rollouts(rt, prompts, text, flow, 0, 1)
        at = AdamState.for_params(text, lr=cfg.lr_text)
        af = AdamState.for_params(flow, lr=cfg.lr_flow)
        return rt, groups, text, flow, at, af

    def test_lambda_zero_freezes_flow(self, tiny_pretrain):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, lambda_flow=0.0)
        new_text, new_flow, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in flow.items():
            np.testing.assert_array_equal(new_flow[name], arr)
        assert any(
            not np.array_equal(new_text[name], arr) for name, arr in text.items()
        )

    def test_degenerate_groups_leave_params_untouched(self, tiny_pretrain):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, reg_mode="none")
        for g in groups:
            g.advantages[:] = 0.0
        new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in text.items():
            np.testing.assert_array_equal(new_text[name], arr)
        for name, arr in flow.items():
            np.testing.assert_array_equal(new_flow[name], arr)
        assert stats.j_text == 0.0 and stats.j_flow == 0.0

    def test_freeze_flags(self, tiny_pretrain):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, train_text=False)
        new_text, _, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in text.items():
            np.testing.assert_array_equal(new_text[name], arr)

        rt, groups, text, flow, at, af = self._setup(tiny_pretrain, train_flow=False)
        _, new_flow, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        for name, arr in flow.items():
            np.testing.assert_array_equal(new_flow[name], arr)

    def test_on_policy_first_epoch_objective_additivity(self, tiny_pretrain):
        # at theta = theta_old the per-group surrogates equal mean(adv) = 0,
        # minus the regularizer terms; the unified stats must equal the
        # separately evaluated objectives
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain)
        cfg = rt.cfg
        active = [g for g in groups if not g.degenerate]
        j_text_sep = np.mean([
            rt.text_policy.surrogate_loss(
                text, g.traces, g.advantages, cfg.clip_eps, cfg.beta_txt, text,
            )[0]
            for g in active
        ])
        j_flow_sep = np.mean([
            rt.flow_policy.surrogate_loss(
                flow, g.trajs, g.advantages, cfg.clip_eps,
                cfg.reg_mode, cfg.mse_weight, flow,
            )[0]
            for g in active
        ])
        _, _, stats = unified_update(rt, groups, text, flow, text, flow, at, af)
        assert stats.j_text == pytest.approx(j_text_sep, abs=1e-12)
        assert stats.j_flow == pytest.approx(j_flow_sep, abs=1e-12)
        # reg evaluated at theta = theta_ref contributes exactly 0
        assert stats.j_text == pytest.approx(0.0, abs=1e-10)
        assert stats.j_flow == pytest.approx(0.0, abs=1e-10)


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
                text_moved, [tr for g in gs for tr in g.traces],
                np.concatenate([g.advantages for g in gs]), 0.2, 0.05, text_ref, 0.7,
            ),
            "flow": lambda gs: rt.flow_policy.surrogate_loss(
                flow_moved, [tj for g in gs for tj in g.trajs],
                np.concatenate([g.advantages for g in gs]), 0.2, reg_mode, 0.02, flow,
            ),
        }
        for name, call in calls.items():
            j_batch, g_batch, _ = call(groups)
            per_group = [call([g]) for g in groups]
            assert j_batch == pytest.approx(np.mean([r[0] for r in per_group]), abs=1e-12), name
            for block, arr in g_batch.items():
                mean = np.mean([r[1][block] for r in per_group], axis=0)
                np.testing.assert_allclose(arr, mean, rtol=0, atol=1e-12, err_msg=f"{name} {block}")

    def test_failed_epoch_leaves_no_trace(self, tiny_pretrain, monkeypatch):
        rt, groups, text, flow, at, af = self._setup(tiny_pretrain)
        # a completed update first, so the optimizer state is non-trivial
        text, flow, _ = unified_update(rt, groups, text, flow, text, flow, at, af)
        entry = {
            key: ({k: a.copy() for k, a in st.m.items()},
                  {k: a.copy() for k, a in st.v.items()}, st.step)
            for key, st in (("at", at), ("af", af))
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
            for name in m:
                assert st.m[name].tobytes() == m[name].tobytes(), name
                assert st.v[name].tobytes() == v[name].tobytes(), name


class TestEvaluate:
    @pytest.mark.parametrize("eval_cfg_scale", [1.0, 2.0])
    def test_batched_matches_per_prompt_loop(self, tiny_pretrain, eval_cfg_scale):
        rt = make_runtime(replace(TINY, eval_cfg_scale=eval_cfg_scale))
        text, flow = _snap(rt, tiny_pretrain)
        moved = flow.with_blocks({"b2": flow["b2"] + 0.01})
        es = make_eval_set(rt, 0)
        got = evaluate(rt, text, moved, flow, es)

        # reference: one prompt at a time, one decoded token at a time
        tp, fp, times = rt.text_policy, rt.flow_policy, rt.times_eval
        rewards, accs, drifts = [], [], []
        for prompt, x1 in zip(*es):
            tokens = []
            for _ in range(rt.cfg.max_trace_len):
                row = tp.context_rows(prompt.tokens, tokens + [PAD])[-1:]
                tokens.append(int(np.argmax(tp.logits_np(text, row)[0])))
                if tokens[-1] == EOS:
                    break
            accs.append(tuple(tokens) == canonical_trace(prompt))
            cond_cur = np.repeat(fp.cond_np(moved, [tokens]), len(x1), axis=0)
            cond_ref = np.repeat(fp.cond_np(flow, [tokens]), len(x1), axis=0)
            x = x1.copy()
            for k in range(len(times) - 1):
                t, dt = float(times[k]), float(times[k] - times[k + 1])
                v_cur = fp.velocity_np(moved, x, t, cond_cur)
                drifts.extend(np.sum((v_cur - fp.velocity_np(flow, x, t, cond_ref)) ** 2, axis=1))
                x = x - fp.velocity_np(moved, x, t, cond_cur, eval_cfg_scale) * dt
            rewards.extend(reward(xx, prompt, rt.geom) for xx in x)
        assert got["text_accuracy"] == np.mean(accs)
        assert got["eval_reward"] == pytest.approx(np.mean(rewards), rel=0, abs=1e-12)
        assert got["velocity_drift"] == pytest.approx(np.mean(drifts), rel=1e-9)

    def test_deterministic(self, tiny_pretrain):
        rt = _rt()
        text, flow = _snap(rt, tiny_pretrain)
        es = make_eval_set(rt, 0)
        a = evaluate(rt, text, flow, flow, es)
        b = evaluate(rt, text, flow, flow, es)
        assert a == b
        assert 0.0 <= a["eval_reward"] <= 1.0
        assert a["velocity_drift"] == 0.0  # flow params equal the reference


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

    def test_resume_equals_uninterrupted(self, tiny_pretrain, tmp_path):
        from dataclasses import replace

        cfg = replace(TINY, pretrain_dir=str(tiny_pretrain))
        train(cfg, tmp_path / "full")

        short = replace(cfg, total_updates=3)
        train(short, tmp_path / "resumed")
        train(cfg, tmp_path / "resumed", resume=True)

        assert (tmp_path / "full/metrics.csv").read_bytes() == \
            (tmp_path / "resumed/metrics.csv").read_bytes()
        for name in ("text.ckpt", "flow.ckpt", "state.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes()

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
        params = checkpoint.load_params(tmp_path / "run/text.ckpt")
        checkpoint.save_params(tmp_path / "again.ckpt", params)
        assert (tmp_path / "run/text.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_build_id_ignores_caller_cwd(self, tmp_path, monkeypatch):
        package_dir = Path(trainer_mod.__file__).resolve().parent
        expected = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=package_dir, capture_output=True, text=True,
        ).stdout.strip() or "unknown"
        monkeypatch.chdir(tmp_path)
        assert trainer_mod._build_id() == expected


class TestPretrainAll:
    def test_reports_and_checkpoints(self, tiny_pretrain):
        import json

        report = json.loads((tiny_pretrain / "pretrain_report.json").read_text())
        assert "text_greedy_accuracy" in report
        assert "flow_quadrant_accuracy_mean" in report
        assert (tiny_pretrain / "text.ckpt").exists()
        assert (tiny_pretrain / "flow.ckpt").exists()
        assert (tiny_pretrain / "pretrain_data.jsonl").exists()
