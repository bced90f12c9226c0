"""Unified rollout-and-update loop for the two-policy MDP.

One update: sample a batch of prompts, roll out G reasoning chains per
prompt under frozen snapshots, condition one stochastic-window denoising
trajectory on each chain, score terminal samples, standardize rewards
within each group, then ascend the summed text and flow surrogates for a
fixed number of optimization epochs.  Text-only / flow-only baselines and
the guidance ablation are degenerate configurations of the same loop.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import TrainConfig, config_to_dict, dump_config
from .errors import CheckpointError, ConfigError, NumericError
from .flow_policy import FlowPolicy, FlowTrajectory, timestep_schedule
from .metrics import MetricsRow, MetricsWriter, read_metrics, truncate_metrics
from .nn import AdamState, ParamSet, adam_step
from .rng import stream
from .task import (
    PROMPT_LEN,
    VOCAB_SIZE,
    Prompt,
    RewardRecord,
    TaskGeometry,
    all_tuples,
    canonical_trace,
    make_prompt,
    make_pretrain_data,
    reward,
    sample_prompt,
    score,
)
from .text_policy import ReasoningTrace, TextPolicy


def group_advantages(rewards: np.ndarray, eps_std: float = 1e-8) -> np.ndarray:
    """Within-group standardization (population std); a degenerate group with
    ~equal rewards gets all-zero advantages and is skipped by the losses."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size < 2:
        raise ConfigError("group size must be >= 2")
    std = float(rewards.std())
    if std < eps_std:
        return np.zeros_like(rewards)
    return (rewards - rewards.mean()) / std


@dataclass
class GroupRollout:
    prompt: Prompt
    traces: list[ReasoningTrace]
    trajs: list[FlowTrajectory]
    records: list[RewardRecord]
    rewards: np.ndarray
    advantages: np.ndarray
    nonfinite: int

    @property
    def degenerate(self) -> bool:
        return not np.any(self.advantages)


@dataclass
class Runtime:
    """Config plus the derived policy objects and schedules."""

    cfg: TrainConfig
    geom: TaskGeometry
    text_policy: TextPolicy
    flow_policy: FlowPolicy
    times_train: np.ndarray
    times_eval: np.ndarray


def make_runtime(cfg: TrainConfig) -> Runtime:
    cfg.validate()
    geom = TaskGeometry(
        radius_near=cfg.radius_near,
        radius_far=cfg.radius_far,
        tau_tight=cfg.tau_tight,
        tau_wide=cfg.tau_wide,
        tau_r=cfg.tau_r,
        reward_mode=cfg.reward_mode,
    )
    text_policy = TextPolicy(
        VOCAB_SIZE, PROMPT_LEN, cfg.max_trace_len, cfg.text_embed_dim, cfg.text_hidden
    )
    flow_policy = FlowPolicy(VOCAB_SIZE, cfg.flow_cond_dim, cfg.flow_hidden)
    times_train, _ = timestep_schedule(cfg.train_timesteps, cfg.timestep_shift)
    times_eval, _ = timestep_schedule(cfg.eval_timesteps, cfg.timestep_shift)
    return Runtime(cfg, geom, text_policy, flow_policy, times_train, times_eval)


# ---- rollout phase ----


def collect_rollouts(rt: Runtime, prompts: list[Prompt], text_old: ParamSet,
                     flow_old: ParamSet, seed: int, update: int) -> list[GroupRollout]:
    """One group of rollouts per prompt, every member advanced in lockstep:
    one text decode and one flow rollout over all prompts x group-size rows.
    Member m of the prompt at batch index `slot` draws from its own
    (seed, tag, update, slot, m) streams, so batch composition changes none
    of its draws."""
    cfg = rt.cfg
    G = cfg.group_size
    members = [(slot, m) for slot in range(len(prompts)) for m in range(G)]
    if cfg.train_text:
        traces = rt.text_policy.sample_trace(
            text_old, [prompts[slot].tokens for slot, _ in members], cfg.temperature,
            cfg.max_trace_len, [stream(seed, "trace", update, slot, m) for slot, m in members],
        )
    else:
        # frozen text expert: one deterministic trace per prompt, shared by its
        # group; group variance comes from the stochastic denoising window
        greedy = rt.text_policy.greedy_trace(
            text_old, [p.tokens for p in prompts], cfg.max_trace_len
        )
        traces = [greedy[slot] for slot, _ in members]
    flow_rngs = [stream(seed, "flow", update, slot, m) for slot, m in members]
    starts = cfg.window_starts
    window_starts = [starts[int(rng.integers(len(starts)))] for rng in flow_rngs]
    trajs = rt.flow_policy.hybrid_rollout(
        flow_old, [tr.tokens for tr in traces], rt.times_train, window_starts,
        cfg.sde_window_size, cfg.sigma_level, flow_rngs,
        cfg_scale=cfg.train_cfg_scale if cfg.train_cfg else 1.0,
    ).trajs
    groups = []
    for slot, prompt in enumerate(prompts):
        part = slice(slot * G, (slot + 1) * G)
        records = [score(tj.x0, prompt, rt.geom) for tj in trajs[part]]
        rewards = np.array([rec.reward for rec in records])
        groups.append(GroupRollout(
            prompt, traces[part], trajs[part], records, rewards,
            group_advantages(rewards, cfg.adv_eps), sum(not rec.finite for rec in records),
        ))
    return groups


# ---- update phase ----


@dataclass
class UpdateStats:
    j_text: float
    j_flow: float
    clip_frac_text: float
    clip_frac_flow: float
    skipped: bool = False


def unified_update(
    rt: Runtime,
    groups: list[GroupRollout],
    text_params: ParamSet,
    flow_params: ParamSet,
    text_ref: ParamSet,
    flow_ref: ParamSet,
    adam_text: AdamState,
    adam_flow: AdamState,
) -> tuple[ParamSet, ParamSet, UpdateStats]:
    """PPO epochs of joint ascent on J_text + lambda * J_flow against the
    stored old-policy statistics; degenerate groups are excluded entirely.
    Each epoch evaluates one surrogate per trained policy over all active
    groups.  A non-finite objective or gradient skips the whole update:
    parameters and both optimizer states are returned as they came in."""
    cfg = rt.cfg
    active = [g for g in groups if not g.degenerate]
    stats = UpdateStats(0.0, 0.0, 0.0, 0.0)
    if not active:
        return text_params, flow_params, stats

    reg_weight = cfg.beta_img if cfg.reg_mode == "latent-kl" else cfg.mse_weight
    if cfg.reg_mode == "none":
        reg_weight = 0.0
    traces = [tr for g in active for tr in g.traces]
    trajs = [tj for g in active for tj in g.trajs]
    advantages = np.concatenate([g.advantages for g in active])

    entry_text, entry_flow = text_params, flow_params
    # adam_step rebinds its moment arrays, so shallow dict copies suffice
    saved = [(adam, dict(adam.m), dict(adam.v), adam.step) for adam in (adam_text, adam_flow)]
    try:
        for epoch in range(cfg.ppo_epochs):
            new_text, new_flow = text_params, flow_params
            if cfg.train_text:
                j, grads, st = rt.text_policy.surrogate_loss(
                    text_params, traces, advantages, cfg.clip_eps, cfg.beta_txt, text_ref,
                    cfg.temperature,
                )
                if not np.isfinite(j):
                    raise NumericError("non-finite text surrogate")
                if epoch == 0:
                    stats.j_text = j
                stats.clip_frac_text = st.clip_fraction
                new_text = adam_step(text_params, grads.scale_(-1.0), adam_text)  # ascend
            if cfg.train_flow:
                j, grads, st = rt.flow_policy.surrogate_loss(
                    flow_params, trajs, advantages, cfg.clip_eps,
                    cfg.reg_mode, reg_weight, flow_ref,
                )
                if not np.isfinite(j):
                    raise NumericError("non-finite flow surrogate")
                if epoch == 0:
                    stats.j_flow = j
                stats.clip_frac_flow = st.clip_fraction
                # ascend lambda * J_flow
                new_flow = adam_step(flow_params, grads.scale_(-cfg.lambda_flow), adam_flow)
            text_params, flow_params = new_text, new_flow
    except NumericError:
        for adam, m, v, step in saved:
            adam.m, adam.v, adam.step = m, v, step
        stats.skipped = True
        return entry_text, entry_flow, stats
    return text_params, flow_params, stats


# ---- evaluation ----


def make_eval_set(rt: Runtime, seed: int):
    """Fixed evaluation prompts (one synonym draw per tuple) and frozen noise."""
    prompts, noises = [], []
    for i, (q, b, s) in enumerate(all_tuples()):
        prng = stream(seed, "eval-prompt", i)
        syn = tuple(int(prng.integers(3)) for _ in range(3))
        prompts.append(make_prompt(q, b, s, syn))
        noises.append(stream(seed, "eval-noise", i).standard_normal((rt.cfg.eval_samples, 2)))
    return prompts, noises


def evaluate(rt: Runtime, text_params: ParamSet, flow_params: ParamSet,
             flow_ref: ParamSet, eval_set) -> dict:
    """Greedy reasoning + deterministic sampling at the evaluation schedule,
    all prompts decoded and all their samples integrated in one batch; also
    measures how far the tuned velocity field drifted from the frozen
    reference over the states the sampler actually visits."""
    cfg = rt.cfg
    prompts, noises = eval_set
    traces = rt.text_policy.greedy_trace(text_params, [p.tokens for p in prompts],
                                         cfg.max_trace_len)
    owners = [i for i, x1 in enumerate(noises) for _ in range(len(x1))]
    seqs = [traces[i].tokens for i in owners]
    x0, states, _ = rt.flow_policy.ode_rollout_batch(
        flow_params, seqs, rt.times_eval, np.concatenate(noises), cfg_scale=cfg.eval_cfg_scale
    )
    rewards = [reward(x, prompts[i], rt.geom) for x, i in zip(x0, owners)]
    # drift over every visited state in one call per field, averaged in
    # prompt, step, sample order
    xs = np.concatenate([x for x, _ in states])
    ts = np.repeat([t for _, t in states], len(seqs))
    v_cur, v_ref = (
        rt.flow_policy.velocity_np(p, xs, ts, np.tile(rt.flow_policy.cond_np(p, seqs),
                                                      (len(states), 1)))
        for p in (flow_params, flow_ref)
    )
    drift = np.sum((v_cur - v_ref) ** 2, axis=1).reshape(len(states), len(prompts), -1)
    return {
        "eval_reward": float(np.mean(rewards)),
        "text_accuracy": float(np.mean([tr.tokens == canonical_trace(p)
                                        for tr, p in zip(traces, prompts)])),
        "velocity_drift": float(np.mean(drift.transpose(1, 0, 2).ravel())),
    }


# ---- pretraining entry ----


def pretrain_all(cfg: TrainConfig, out_dir) -> dict:
    """Supervised warm starts for both policies; writes checkpoints, the
    dataset dump, and an accuracy report."""
    from .task import dump_pretrain_data

    rt = make_runtime(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    text_pairs, flow_pairs = make_pretrain_data(
        stream(seed, "pretrain-data"), cfg.pretrain_text_n, cfg.pretrain_flow_n,
        rt.geom, cfg.p_noise,
    )
    dump_pretrain_data(out / "pretrain_data.jsonl", text_pairs, flow_pairs)

    text_params = rt.text_policy.init_params(stream(seed, "init-text"))
    text_params, text_report = rt.text_policy.pretrain(
        text_params, text_pairs, cfg.pretrain_text_epochs, cfg.pretrain_text_lr,
        cfg.pretrain_batch, stream(seed, "pretrain-text"),
    )
    flow_params = rt.flow_policy.init_params(stream(seed, "init-flow"))
    flow_params, flow_report = rt.flow_policy.pretrain(
        flow_params, flow_pairs, cfg.pretrain_flow_epochs, cfg.pretrain_flow_lr,
        max(cfg.pretrain_batch, 256), cfg.p_uncond, stream(seed, "pretrain-flow"),
    )
    checkpoint.save_params(out / "text.ckpt", text_params)
    checkpoint.save_params(out / "flow.ckpt", flow_params)
    report = {
        "text_greedy_accuracy": text_report["greedy_accuracy"],
        "text_epoch_losses": text_report["epoch_losses"],
        "text_loss_monotone": text_report["loss_monotone"],
        "flow_quadrant_accuracy_mean": flow_report["quadrant_accuracy_mean"],
        "flow_quadrant_accuracy_min": flow_report["quadrant_accuracy_min"],
        "flow_epoch_losses": flow_report["epoch_losses"],
    }
    (out / "pretrain_report.json").write_text(json.dumps(report, indent=2))
    return report


# ---- training entry ----


def _build_id() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _software() -> dict:
    """Interpreter, numpy and BLAS versions and the BLAS thread environment."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in threads}}


def _check_architecture(loaded: ParamSet, expected: ParamSet, which: str) -> None:
    got = {n: loaded[n].shape for n in loaded.names()}
    want = {n: expected[n].shape for n in expected.names()}
    if got != want:
        raise CheckpointError(
            f"{which} checkpoint does not match the configured architecture: "
            f"{got} vs {want}"
        )


_STATE_FILE = "state.ckpt"


def _save_state(out: Path, update: int, text_params, flow_params, adam_text, adam_flow):
    blocks = {f"text.{k}": v for k, v in text_params.items()}
    blocks.update({f"flow.{k}": v for k, v in flow_params.items()})
    blocks.update(adam_text.state_blocks("adam_text"))
    blocks.update(adam_flow.state_blocks("adam_flow"))
    blocks["meta.update"] = np.float64(update)
    checkpoint.save_blocks(out / _STATE_FILE, blocks)
    checkpoint.save_params(out / "text.ckpt", text_params)
    checkpoint.save_params(out / "flow.ckpt", flow_params)


def train(cfg: TrainConfig, out_dir, resume: bool = False, config_text: str | None = None) -> dict:
    """Full training run; every random draw derives from (seed, purpose,
    indices) so a fixed seed reproduces the metrics byte-for-byte and a
    resumed run continues them exactly."""
    rt = make_runtime(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed

    pre = Path(cfg.pretrain_dir)
    for name in ("text.ckpt", "flow.ckpt"):
        if not (pre / name).exists():
            raise CheckpointError(
                f"missing pretrained checkpoint {pre / name}; run pretraining first"
            )
    text_ref = checkpoint.load_params(pre / "text.ckpt")
    flow_ref = checkpoint.load_params(pre / "flow.ckpt")
    _check_architecture(text_ref, rt.text_policy.init_params(stream(0, "chk")), "text")
    _check_architecture(flow_ref, rt.flow_policy.init_params(stream(0, "chk")), "flow")
    checkpoint.save_params(out / "ref_text.ckpt", text_ref)
    checkpoint.save_params(out / "ref_flow.ckpt", flow_ref)

    manifest_path = out / "run_manifest.json"
    if not manifest_path.exists():
        manifest = {
            "config_text": config_text if config_text is not None else dump_config(cfg),
            "config_resolved": config_to_dict(cfg),
            "seed": seed,
            "build_id": _build_id(),
            **_software(),
            "started_at": datetime.now(timezone.utc).isoformat(),
            "out_dir": str(out),
            "pretrain_dir": str(pre),
        }
        manifest_path.write_text(json.dumps(manifest, indent=2))

    text_params, flow_params = text_ref.copy(), flow_ref.copy()
    adam_text = AdamState.for_params(text_params, lr=cfg.lr_text)
    adam_flow = AdamState.for_params(flow_params, lr=cfg.lr_flow)
    start_update = 0

    if resume:
        state_path = out / _STATE_FILE
        if not state_path.exists():
            raise CheckpointError(f"cannot resume: {state_path} not found")
        blocks = checkpoint.load_blocks(state_path)
        start_update = int(blocks["meta.update"])
        text_params = text_params.with_blocks(
            {k: blocks[f"text.{k}"] for k in text_params.names()}
        )
        flow_params = flow_params.with_blocks(
            {k: blocks[f"flow.{k}"] for k in flow_params.names()}
        )
        adam_text.load_state_blocks("adam_text", blocks)
        adam_flow.load_state_blocks("adam_flow", blocks)
        truncate_metrics(out, start_update)

    writer = MetricsWriter(out, append=resume)
    eval_set = make_eval_set(rt, seed)
    baseline = None

    if not resume:
        tic = time.perf_counter()
        ev = evaluate(rt, text_params, flow_params, flow_ref, eval_set)
        t_eval = time.perf_counter()
        baseline = ev["eval_reward"]
        writer.write_row(MetricsRow(
            update=0, mean_train_reward=0.0, eval_reward=ev["eval_reward"],
            j_text=0.0, j_flow=0.0, clip_frac_text=0.0, clip_frac_flow=0.0,
            velocity_drift=ev["velocity_drift"], text_accuracy=ev["text_accuracy"],
            nonfinite_samples=0,
        ))
        toc = time.perf_counter()
        writer.write_timings(0, toc - tic, 0.0, 0.0, t_eval - tic, toc - t_eval)

    text_old, flow_old = text_params.copy(), flow_params.copy()
    last_eval: dict = {}
    for update in range(start_update + 1, cfg.total_updates + 1):
        tic = time.perf_counter()
        prompts = [
            sample_prompt(stream(seed, "prompt", update, slot))
            for slot in range(cfg.prompts_per_batch)
        ]
        groups = collect_rollouts(rt, prompts, text_old, flow_old, seed, update)
        t_rollout = time.perf_counter()
        text_params, flow_params, ustats = unified_update(
            rt, groups, text_params, flow_params, text_ref, flow_ref,
            adam_text, adam_flow,
        )
        text_old, flow_old = text_params.copy(), flow_params.copy()
        t_update = time.perf_counter()

        do_eval = (cfg.eval_every > 0 and update % cfg.eval_every == 0) \
            or update == cfg.total_updates
        ev = evaluate(rt, text_params, flow_params, flow_ref, eval_set) if do_eval else None
        if ev:
            last_eval = ev
        t_eval = time.perf_counter()

        all_rewards = np.concatenate([g.rewards for g in groups])
        writer.write_row(MetricsRow(
            update=update,
            mean_train_reward=float(all_rewards.mean()),
            eval_reward=ev["eval_reward"] if ev else None,
            j_text=ustats.j_text,
            j_flow=ustats.j_flow,
            clip_frac_text=ustats.clip_frac_text,
            clip_frac_flow=ustats.clip_frac_flow,
            velocity_drift=ev["velocity_drift"] if ev else None,
            text_accuracy=ev["text_accuracy"] if ev else None,
            nonfinite_samples=sum(g.nonfinite for g in groups),
        ))
        for slot, g in enumerate(groups):
            writer.write_group_record({
                "update": update,
                "slot": slot,
                "prompt_id": g.prompt.prompt_id,
                "rewards": [float(r) for r in g.rewards],
                "advantages": [float(a) for a in g.advantages],
                "traces": [list(map(int, tr.tokens)) for tr in g.traces],
                "windows": [list(map(int, tj.window)) for tj in g.trajs],
                "x0": [[float(v) for v in tj.x0] for tj in g.trajs],
                "velocity_evals": [tj.velocity_evals for tj in g.trajs],
                "degenerate": g.degenerate,
                "skipped": ustats.skipped,
            })

        if (cfg.checkpoint_every > 0 and update % cfg.checkpoint_every == 0) \
                or update == cfg.total_updates:
            _save_state(out, update, text_params, flow_params, adam_text, adam_flow)
        toc = time.perf_counter()
        writer.write_timings(update, toc - tic, t_rollout - tic, t_update - t_rollout,
                             t_eval - t_update, toc - t_eval)

    writer.close()
    rows = read_metrics(out / "metrics.csv")
    if baseline is None:
        baseline = rows[0]["eval_reward"]
    summary = {
        "out_dir": str(out),
        "updates": cfg.total_updates,
        "baseline_eval": baseline,
        "final_eval": last_eval.get("eval_reward", rows[-1]["eval_reward"]),
        "final_text_accuracy": last_eval.get("text_accuracy"),
        "final_velocity_drift": last_eval.get("velocity_drift"),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary
