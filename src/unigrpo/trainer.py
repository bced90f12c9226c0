"""Unified rollout-and-update loop for the two-policy MDP.

One update: sample a batch of prompts, roll out G reasoning chains per
prompt under frozen snapshots, condition one stochastic-window denoising
trajectory on each chain, score terminal samples, standardize rewards
within each group, then ascend the summed text and flow surrogates for a
fixed number of optimization epochs.  Text-only / flow-only baselines and
the guidance ablation are degenerate configurations of the same loop.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import TrainConfig, config_from_dict, config_to_dict, dump_config
from .errors import CheckpointError, ConfigError, NumericError
from .flow_policy import DIM, FlowBatch, FlowPolicy, StepTable, step_table, timestep_schedule
from .metrics import MetricsRow, MetricsWriter, read_metrics, rewind_run
from .nn import AdamState, ParamSet, adam_step, checked_count
from .rng import below, normals, stream, uniforms, words_by_tag
from .task import (
    N_SYNONYMS,
    PROMPT_BOUNDS,
    PROMPT_DRAWS,
    PROMPT_LEN,
    PROMPT_TOKENS,
    canonical_accuracy,
    draw_prompts,
    make_pretrain_data,
    prompt_ids,
    score,
    trace_lengths,
)
from .text_policy import TextPolicy


def group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Within-group standardization (population std) along the last axis, so
    each row of a (prompts, group) array is one group; a degenerate group,
    rewards with std below 1e-8, gets all-zero advantages and is skipped by
    the losses."""
    rewards = np.asarray(rewards, dtype=np.float64)
    std = rewards.std(axis=-1, keepdims=True)
    centered = rewards - rewards.mean(axis=-1, keepdims=True)
    # not `std >= 1e-8`: a NaN std divides, as it always has
    return np.divide(centered, std, out=np.zeros_like(centered), where=~(std < 1e-8))


@dataclass
class Rollouts:
    """One update's rollouts as row-aligned arrays: row r is member r % G of
    the prompt at batch index r // G."""

    seqs: np.ndarray        # (rows, ctx) text rows [prompt | trace]
    flow: FlowBatch
    rewards: np.ndarray     # (rows,)
    advantages: np.ndarray  # (rows,) standardized within each group
    nonfinite: int          # samples scored 0 for being non-finite


@dataclass
class GroupRollout:
    """One prompt's group: the row range `rows` of its update's `batch`."""

    batch: Rollouts
    rows: slice

    @property
    def degenerate(self) -> bool:
        return not np.any(self.batch.advantages[self.rows])


@dataclass
class Runtime:
    """Config plus the derived policy objects and the step tables of the
    training schedule (at `sigma_level`) and the evaluation one."""

    cfg: TrainConfig
    text_policy: TextPolicy
    flow_policy: FlowPolicy
    steps_train: StepTable
    steps_eval: StepTable


def make_runtime(cfg: TrainConfig) -> Runtime:
    cfg.validate()
    text_policy = TextPolicy(cfg.max_trace_len, cfg.text_embed_dim, cfg.text_hidden)
    flow_policy = FlowPolicy(cfg.flow_cond_dim, cfg.flow_hidden)
    steps_train = step_table(timestep_schedule(cfg.train_timesteps, cfg.timestep_shift),
                             cfg.sigma_level)
    steps_eval = step_table(timestep_schedule(cfg.eval_timesteps, cfg.timestep_shift))
    return Runtime(cfg, text_policy, flow_policy, steps_train, steps_eval)


# ---- rollout phase ----

# updates whose rollout words `train` draws in one Philox pass
ROLLOUT_BLOCK = 32


@dataclass
class RolloutWords:
    """One update's prompts and the variates of its rollouts.  The prompt at
    batch index `slot` comes from the six "prompt" words at counter index
    (update, slot, 0).  Row r belongs to member r % G of the prompt at batch
    index r // G and draws from its words at counter index (update, slot,
    member): "trace" word k gives the uniform of token k; "flow" word 0
    picks the window start (through `below`, which redraws at that index)
    and words 1 .. 2 + 2W are Box-Muller pairs giving x1, then the window's
    eps step by step."""

    prompts: np.ndarray         # (slots,) prompt ids
    uniforms: np.ndarray | None  # (rows, max_trace_len), only when the text policy trains
    starts: np.ndarray          # (rows,) window starts
    x1: np.ndarray              # (rows, DIM)
    eps: np.ndarray             # (rows, W, DIM)


def rollout_words(cfg: TrainConfig, seed: int, updates: range,
                  slots: int) -> list[RolloutWords]:
    """The prompts and rollout variates of each update in `updates` for
    `slots` prompts: every tag's words drawn in one Philox pass, and each
    variate taken from them once for the whole block.  Each word has a fixed
    counter address, and each conversion works row by row, so an update's
    variates do not depend on the block it is drawn with."""
    G, W = cfg.group_size, cfg.sde_window_size
    index = np.stack(np.meshgrid(np.asarray(updates), np.arange(slots),
                                 np.arange(G), indexing="ij"), axis=-1).reshape(-1, 3)
    draws = {"prompt": (index[::G], len(PROMPT_BOUNDS)), "flow": (index, 1 + DIM + W * DIM)}
    if cfg.train_text:
        draws["trace"] = (index, cfg.max_trace_len)
    w = words_by_tag(seed, draws)
    prompts = draw_prompts(seed, "prompt", index[::G], w["prompt"])
    u = uniforms(w["trace"]) if cfg.train_text else None
    starts = np.asarray(cfg.window_starts)[below(seed, "flow", index, w["flow"][:, 0],
                                                 len(cfg.window_starts))]
    z = normals(w["flow"][:, 1:])
    eps = z[:, DIM:].reshape(len(index), W, DIM)
    rows = slots * G
    return [RolloutWords(prompts[lo // G:lo // G + slots],
                         None if u is None else u[lo:lo + rows], starts[lo:lo + rows],
                         z[lo:lo + rows, :DIM], eps[lo:lo + rows])
            for lo in range(0, len(index), rows)]


def collect_rollouts(rt: Runtime, prompts: np.ndarray, text_old: ParamSet,
                     flow_old: ParamSet, draws: RolloutWords,
                     greedy: np.ndarray | None = None) -> list[GroupRollout]:
    """One group of rollouts per prompt id, every member advanced in lockstep:
    one text decode and one flow rollout over all prompts x group-size rows,
    their randomness taken from the update's `draws`.  Member m of the
    prompt at batch index `slot` has its own counter-addressed variates, so
    batch composition changes none of its draws.  With frozen text each
    row comes from `greedy`, the greedy text rows of `text_old` for every
    prompt id.  The groups are row ranges of one shared `Rollouts`."""
    cfg = rt.cfg
    G = cfg.group_size
    ids = np.repeat(prompts, G)
    if cfg.train_text:
        seqs = rt.text_policy.sample_trace(text_old, PROMPT_TOKENS[ids], cfg.temperature,
                                           draws.uniforms)
    else:
        # frozen text expert: one deterministic trace per prompt, shared by its
        # group; group variance comes from the stochastic denoising window
        seqs = greedy[ids]
    flow = rt.flow_policy.hybrid_rollout(
        flow_old, seqs[:, PROMPT_LEN:], rt.steps_train, draws.x1, draws.starts,
        cfg.sde_window_size, draws.eps, cfg_scale=cfg.train_cfg_scale if cfg.train_cfg else 1.0,
    )
    rewards, finite = score(flow.states[-1], ids, cfg.reward_mode)
    advantages = group_advantages(rewards.reshape(len(prompts), G)).ravel()
    batch = Rollouts(seqs, flow, rewards, advantages, int(np.count_nonzero(~finite)))
    return [GroupRollout(batch, slice(lo, lo + G)) for lo in range(0, len(ids), G)]


# ---- update phase ----


@dataclass
class UpdateStats:
    """Per policy name: the first PPO epoch's surrogate and the last epoch's
    clip fraction; 0 for a policy that does not train."""

    j: dict[str, float] = field(default_factory=lambda: {"text": 0.0, "flow": 0.0})
    clip_frac: dict[str, float] = field(default_factory=lambda: {"text": 0.0, "flow": 0.0})
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
    """PPO epochs of ascent on J_text + J_flow against the old policies, the
    entry parameters the groups were sampled with, over the rows of the
    non-degenerate groups.  Each trained policy's batch is prepared once, and
    each epoch runs one step per trained policy: its surrogate, then its own
    Adam step.  A non-finite rollout, objective or gradient skips the whole
    update: parameters and both optimizer states are returned as they came in."""
    cfg = rt.cfg
    active = [g for g in groups if not g.degenerate]
    stats = UpdateStats()
    if not active:
        return text_params, flow_params, stats

    batch = active[0].batch
    rows = np.r_[tuple(g.rows for g in active)]
    advantages = batch.advantages[rows]
    params = {"text": text_params, "flow": flow_params}
    # adam_step builds new moment vectors, so holding the current ones suffices
    saved = [(adam, adam.m, adam.v, adam.step) for adam in (adam_text, adam_flow)]
    try:
        trained = []  # (name, policy, prepared batch, optimizer state)
        if cfg.train_text:
            trained.append(("text", rt.text_policy, rt.text_policy.prepare_batch(
                batch.seqs[rows], advantages, cfg.temperature, cfg.beta_txt, text_ref
            ), adam_text))
        if cfg.train_flow:
            reg_weight = {"none": 0.0, "latent-kl": cfg.beta_img,
                          "velocity-mse": cfg.mse_weight}[cfg.reg_mode]
            trained.append(("flow", rt.flow_policy, rt.flow_policy.prepare_batch(
                batch.flow, rows, advantages, cfg.reg_mode, reg_weight, flow_ref
            ), adam_flow))
        for epoch in range(cfg.ppo_epochs):
            for name, policy, prepared, adam in trained:
                j, grads, st = policy.surrogate_loss(params[name], prepared, cfg.clip_eps)
                if not np.isfinite(j):
                    raise NumericError(f"non-finite {name} surrogate")
                if epoch == 0:
                    stats.j[name] = j
                stats.clip_frac[name] = st.clip_fraction
                grads *= -1.0  # ascend
                params[name] = adam_step(params[name], grads, adam)
    except NumericError:
        for adam, m, v, step in saved:
            adam.m, adam.v, adam.step = m, v, step
        stats.skipped = True
        return text_params, flow_params, stats
    return params["text"], params["flow"], stats


# ---- evaluation ----


def make_eval_set(rt: Runtime, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed evaluation prompts, one synonym draw per attribute tuple, and frozen
    noise: (ids (16,) in tuple order, x1 (16 * eval_samples, 2) prompt by prompt)."""
    draws, noises = PROMPT_DRAWS[::N_SYNONYMS**3].copy(), []  # each tuple's first prompt
    for i, row in enumerate(draws):
        prng = stream(seed, "eval-prompt", i)
        row[3:] = [prng.integers(3) for _ in range(3)]
        noises.append(stream(seed, "eval-noise", i).standard_normal((rt.cfg.eval_samples, 2)))
    return prompt_ids(draws), np.concatenate(noises)


def evaluate(rt: Runtime, text_params: ParamSet, flow_params: ParamSet,
             flow_ref: ParamSet, eval_set, greedy: np.ndarray | None = None) -> dict:
    """Greedy reasoning + deterministic sampling at the evaluation schedule,
    all prompts decoded (or read from `greedy`, the greedy text rows of
    `text_params` for every prompt id) and all their samples integrated in
    one batch; also measures how far the tuned velocity field's conditional
    branch drifted from the frozen reference over the states the sampler
    actually visits: the reference runs as one more slice of each sampling
    step's forward."""
    cfg = rt.cfg
    ids, x1 = eval_set
    if greedy is None:
        traces = rt.text_policy.greedy_trace(text_params, PROMPT_TOKENS[ids])[:, PROMPT_LEN:]
    else:
        traces = greedy[ids, PROMPT_LEN:]
    owners = np.repeat(np.arange(len(ids)), cfg.eval_samples)
    batch = rt.flow_policy.ode_rollout_batch(flow_params, traces[owners], rt.steps_eval, x1,
                                             cfg.eval_cfg_scale, flow_ref)
    rewards, _ = score(batch.states[-1], ids[owners], cfg.reward_mode)
    # drift averaged in prompt, step, sample order
    drift = batch.drift.reshape(len(batch.drift), len(ids), -1)
    return {
        "eval_reward": float(np.mean(rewards)),
        "text_accuracy": canonical_accuracy(traces, ids),
        "velocity_drift": float(np.mean(drift.transpose(1, 0, 2).ravel())),
    }


# ---- pretraining entry ----


# glibc's mallopt parameter numbers (malloc.h) and the thresholds
# `keep_freed_heap` fixes.  32 MiB is the largest mmap threshold glibc
# accepts; both sit well above a desk-size text step's 3.4 MB of
# temporaries (the largest array 344 KB).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def keep_freed_heap() -> bool:
    """Allocator policy of pretraining, training and evaluation: on glibc,
    fix the mmap and trim thresholds so that the memory one step frees stays
    in the heap and the next step reuses it, where glibc's defaults hand each
    step's heap top back to the kernel and the next step faults it in again
    (about 900 minor faults per desk-size text step).  Both are fixed
    because fixing either one turns off glibc's dynamic mmap threshold,
    after which every array above 128 KiB would get a fresh mmap.  The
    policy holds for the rest of the process.  Returns whether it applied;
    without a `mallopt` it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1])


def pretrain_all(cfg: TrainConfig, out_dir) -> dict:
    """Supervised warm starts for both policies; writes the two checkpoints,
    an accuracy report and a timings sidecar (`pretrain_timings.json`: wall
    seconds of the data draw, each policy's pretraining and the checkpoint
    writes, the call's minor page faults, and whether `keep_freed_heap`
    applied).  The data is drawn from the seed's "pretrain-data" words and
    not written out: the seed rebuilds it."""
    faults_at_entry = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    heap_kept = keep_freed_heap()
    rt = make_runtime(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    laps = [time.perf_counter()]
    seqs, (conds, x0) = make_pretrain_data(seed, cfg.pretrain_text_n, cfg.pretrain_flow_n)
    laps.append(time.perf_counter())

    text_params = rt.text_policy.init_params(stream(seed, "init-text"))
    text_params, text_report = rt.text_policy.pretrain(
        text_params, seqs, cfg.pretrain_text_epochs, cfg.pretrain_text_lr,
        cfg.pretrain_batch, stream(seed, "pretrain-text"),
    )
    laps.append(time.perf_counter())
    flow_params = rt.flow_policy.init_params(stream(seed, "init-flow"))
    flow_params, flow_report = rt.flow_policy.pretrain(
        flow_params, conds, x0, cfg.pretrain_flow_epochs, cfg.pretrain_flow_lr,
        max(cfg.pretrain_batch, 256), cfg.p_uncond, stream(seed, "pretrain-flow"),
    )
    laps.append(time.perf_counter())
    checkpoint.save_params(out / "text.ckpt", text_params)
    checkpoint.save_params(out / "flow.ckpt", flow_params)
    laps.append(time.perf_counter())
    report = {f"{name}_{key}": value
              for name, own in (("text", text_report), ("flow", flow_report))
              for key, value in own.items()}
    (out / "pretrain_report.json").write_text(json.dumps(report, indent=2))
    phases = ("data_s", "text_s", "flow_s", "checkpoint_s")
    timings = {name: b - a for name, a, b in zip(phases, laps, laps[1:])}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_at_entry
    timings.update(minor_faults=faults, allocator_policy=heap_kept)
    (out / "pretrain_timings.json").write_text(json.dumps(timings, indent=2))
    return report


# ---- training entry ----


@functools.cache
def _build_id() -> str:
    """`git describe` of the package's checkout, once per process: the code a
    process imported cannot change under it."""
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


def check_architecture(loaded: ParamSet, policy: TextPolicy | FlowPolicy, which: str) -> ParamSet:
    """`loaded`; CheckpointError unless it has the blocks and shapes `policy` builds."""
    expected = policy.init_params(np.random.default_rng(0))
    got = {n: loaded[n].shape for n in loaded.names()}
    want = {n: expected[n].shape for n in expected.names()}
    if got != want:
        raise CheckpointError(f"{which} checkpoint does not match the configured "
                              f"architecture: {got} vs {want}")
    return loaded


_STATE_FILE = "state.ckpt"
_MANIFEST_FILE = "run_manifest.json"
# config keys a resume may change: what a run logs and saves, or what `train` does not read
_RESUME_FREE_KEYS = ("total_updates", "eval_every", "checkpoint_every", "ablate_seeds")


def _state_blocks(update: int, text_params, flow_params, adam_text, adam_flow) -> dict:
    """The run's one checkpoint: `text.*`, `flow.*`, `adam_*.*` and `meta.update`."""
    blocks = {f"text.{k}": v for k, v in text_params.items()}
    blocks.update({f"flow.{k}": v for k, v in flow_params.items()})
    blocks.update(adam_text.state_blocks("adam_text"))
    blocks.update(adam_flow.state_blocks("adam_flow"))
    blocks["meta.update"] = np.float64(update)
    return blocks


def load_state(run: Path, rt: Runtime) -> tuple[int, ParamSet, ParamSet, AdamState, AdamState]:
    """The update, policies and Adam states (at the config's learning rates)
    `_state_blocks` wrote to `run`, in the layouts of `rt`'s policies; a
    CheckpointError naming state.ckpt and any block missing, misshapen or
    not one `_state_blocks` writes."""
    path = run / _STATE_FILE
    blocks = checkpoint.load_blocks(path)
    try:
        update = checked_count(blocks, "meta.update")
        params, adams = [], []
        for name, policy, lr in (("text", rt.text_policy, rt.cfg.lr_text),
                                 ("flow", rt.flow_policy, rt.cfg.lr_flow)):
            shaped = policy.init_params(np.random.default_rng(0))
            params.append(shaped.with_vector(shaped.layout.flatten(blocks, f"{name}.")))
            adams.append(AdamState.for_params(params[-1], lr=lr))
            adams[-1].load_state_blocks(f"adam_{name}", blocks)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    unknown = blocks.keys() - _state_blocks(update, *params, *adams).keys()
    if unknown:
        raise CheckpointError(f"{path}: unknown parameter block '{min(unknown)}'")
    return update, *params, *adams


def read_run_config(out: Path) -> dict:
    """The `config_resolved` of a run directory's manifest; a CheckpointError
    naming the manifest when it is missing, is not JSON or holds no config."""
    path = out / _MANIFEST_FILE
    try:
        return dict(json.loads(path.read_text())["config_resolved"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unusable run manifest {path}: {exc!r}") from exc


def evaluate_run(run_dir) -> dict:
    """The last evaluation a run directory's training logged, from its manifest's
    config, the policies in its state.ckpt and its ref_flow.ckpt."""
    keep_freed_heap()
    run = Path(run_dir)
    try:
        rt = make_runtime(config_from_dict(read_run_config(run)))
    except ConfigError as exc:
        raise CheckpointError(f"{run / _MANIFEST_FILE}: {exc}") from exc
    _, text_params, flow_params, _, _ = load_state(run, rt)
    ref = check_architecture(checkpoint.load_params(run / "ref_flow.ckpt"), rt.flow_policy,
                             "ref_flow")
    return evaluate(rt, text_params, flow_params, ref, make_eval_set(rt, rt.cfg.seed))


def train(cfg: TrainConfig, out_dir, resume: bool = False, config_text: str | None = None) -> dict:
    """Full training run under `keep_freed_heap`; every random draw derives
    from (seed, purpose, indices) so a fixed seed reproduces the metrics
    byte-for-byte and a resumed run continues them exactly."""
    heap_kept = keep_freed_heap()
    rt = make_runtime(cfg)
    out = Path(out_dir)

    pre = Path(cfg.pretrain_dir)
    # a resume keeps the references its run started from, whatever pretrain_dir holds now
    refs = [out / f"ref_{name}" if resume else pre / name for name in ("text.ckpt", "flow.ckpt")]
    for path in refs:
        if not path.exists():
            raise CheckpointError(f"missing reference checkpoint {path}" if resume else
                                  f"missing pretrained checkpoint {path}; run pretraining first")
    text_ref, flow_ref = map(checkpoint.load_params, refs)
    check_architecture(text_ref, rt.text_policy, "text")
    check_architecture(flow_ref, rt.flow_policy, "flow")

    manifest_path = out / _MANIFEST_FILE
    if resume:
        # the whole run directory is checked before any file of it is written
        saved = read_run_config(out)
        for key, value in config_to_dict(cfg).items():
            if key not in _RESUME_FREE_KEYS and saved.get(key) != value:
                raise ConfigError(f"{key} = {value} differs from the run's {key} = "
                                  f"{saved.get(key)} ({manifest_path}); a resume may "
                                  f"change only {', '.join(_RESUME_FREE_KEYS)}")
        start_update, text_params, flow_params, adam_text, adam_flow = load_state(out, rt)
        if start_update > cfg.total_updates:
            raise ConfigError(f"total_updates = {cfg.total_updates} is below update "
                              f"{start_update}, which {out / _STATE_FILE} was saved at")
        rewind_run(out, start_update)
    else:
        # a fresh run replaces another run's manifest, references and state; a resume keeps them
        start_update, text_params, flow_params = 0, text_ref.copy(), flow_ref.copy()
        adam_text = AdamState.for_params(text_params, lr=cfg.lr_text)
        adam_flow = AdamState.for_params(flow_params, lr=cfg.lr_flow)
        checkpoint.save_params(out / "ref_text.ckpt", text_ref)
        checkpoint.save_params(out / "ref_flow.ckpt", flow_ref)
        checkpoint.save_blocks(out / _STATE_FILE, _state_blocks(
            0, text_params, flow_params, adam_text, adam_flow))
        manifest = {
            "config_text": config_text if config_text is not None else dump_config(cfg),
            "config_resolved": config_to_dict(cfg),
            "seed": cfg.seed,
            "build_id": _build_id(),
            **_software(),
            "started_at": datetime.now(timezone.utc).isoformat(),
            "out_dir": str(out),
            "pretrain_dir": str(pre),
            "allocator_policy": heap_kept,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2))

    writer = MetricsWriter(out, append=resume)
    eval_set = make_eval_set(rt, cfg.seed)
    # frozen text decodes every prompt once, from the parameters resumed from
    greedy = None if cfg.train_text else rt.text_policy.greedy_trace(text_params, PROMPT_TOKENS)

    if not resume:
        tic = time.perf_counter()
        ev = evaluate(rt, text_params, flow_params, flow_ref, eval_set, greedy)
        t_eval = time.perf_counter()
        writer.write_row(MetricsRow(0, **ev))
        toc = time.perf_counter()
        writer.write_timings(0, toc - tic, 0.0, 0.0, t_eval - tic, toc - t_eval)

    pending: list[RolloutWords] = []
    for update in range(start_update + 1, cfg.total_updates + 1):
        tic = time.perf_counter()
        if not pending:
            block = range(update, min(update + ROLLOUT_BLOCK, cfg.total_updates + 1))
            pending = rollout_words(cfg, cfg.seed, block, cfg.prompts_per_batch)[::-1]
        draws = pending.pop()
        # no step writes a ParamSet in place: the current policy is the old one
        groups = collect_rollouts(rt, draws.prompts, text_params, flow_params, draws, greedy)
        t_rollout = time.perf_counter()
        text_params, flow_params, ustats = unified_update(
            rt, groups, text_params, flow_params, text_ref, flow_ref,
            adam_text, adam_flow,
        )
        t_update = time.perf_counter()

        do_eval = (cfg.eval_every > 0 and update % cfg.eval_every == 0) \
            or update == cfg.total_updates
        ev = evaluate(rt, text_params, flow_params, flow_ref, eval_set, greedy) \
            if do_eval else None
        t_eval = time.perf_counter()

        batch = groups[0].batch
        writer.write_row(MetricsRow(
            update,
            mean_train_reward=float(batch.rewards.mean()),
            j_text=ustats.j["text"],
            j_flow=ustats.j["flow"],
            clip_frac_text=ustats.clip_frac["text"],
            clip_frac_flow=ustats.clip_frac["flow"],
            nonfinite_samples=batch.nonfinite,
            **(ev or {}),
        ))
        # advantages and window step lists are left out: rewards, starts and cfg give them
        traces = batch.seqs[:, PROMPT_LEN:].tolist()
        lengths = trace_lengths(batch.seqs[:, PROMPT_LEN:]).tolist()
        starts = batch.flow.starts.tolist()
        for slot, g in enumerate(groups):
            writer.write_group_record({
                "update": update,
                "slot": slot,
                "prompt_id": int(draws.prompts[slot]),
                "rewards": batch.rewards[g.rows].tolist(),
                "traces": [tr[:m] for tr, m in zip(traces[g.rows], lengths[g.rows])],
                "window_starts": starts[g.rows],
                "x0": batch.flow.states[-1, g.rows].tolist(),
                "velocity_evals": batch.flow.evals_per_row,
                "skipped": ustats.skipped,
            })

        if (cfg.checkpoint_every > 0 and update % cfg.checkpoint_every == 0) \
                or update == cfg.total_updates:
            checkpoint.save_blocks(out / _STATE_FILE, _state_blocks(
                update, text_params, flow_params, adam_text, adam_flow))
        toc = time.perf_counter()
        writer.write_timings(update, toc - tic, t_rollout - tic, t_update - t_rollout,
                             t_eval - t_update, toc - t_eval)

    writer.close()
    # row 0 is the baseline evaluation and the final update always evaluates
    rows = read_metrics(out / "metrics.csv")
    return {
        "out_dir": str(out),
        "updates": cfg.total_updates,
        "baseline_eval": rows[0]["eval_reward"],
        "final_eval": rows[-1]["eval_reward"],
        "final_text_accuracy": rows[-1]["text_accuracy"],
        "final_velocity_drift": rows[-1]["velocity_drift"],
    }
