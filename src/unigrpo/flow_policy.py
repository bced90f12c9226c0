"""Conditional flow-matching generator with its RL machinery.

Time convention: t=1 is pure noise, t=0 is data, the path is
x_t = (1-t) x_0 + t x_1 with velocity target x_1 - x_0, and a denoising
step moves x_{t - dt} = x_t - drift * dt.  Under this convention the
zero-noise limit of the stochastic step is exactly the Euler integrator,
and the noise-injected step preserves the deterministic sampler's
marginals when the velocity field is exact.

The generator is conditioned only on reasoning tokens (mean-pooled
through a learned embedding table), never on the raw prompt, so the
quality of the text policy causally matters for reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import NumericError
from .nn import (LossStats, ParamSet, clipped_objective, fit, init_mlp_blocks, mlp_forward_np,
                 mlp_var, slice_blocks)
from .task import CANONICAL_TRACES, N_SYNONYMS, PROMPT_DRAWS, VOCAB_SIZE, targets, trace_lengths

DIM = 2  # sample space


def time_features(t) -> np.ndarray:
    """(n, 7) fixed sinusoidal features of the flow time."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    cols = [t]
    for f in (1.0, 2.0, 4.0):
        cols.append(np.sin(np.pi * f * t))
        cols.append(np.cos(np.pi * f * t))
    return np.stack(cols, axis=1)


N_TIME_FEATS = 7


def timestep_schedule(n_steps: int, shift: float) -> np.ndarray:
    """Times t_0=1 > ... > t_n=0 on the shifted grid.

    The uniform grid u is mapped by t = shift*u / (1 + (shift-1)*u), which
    concentrates steps near the data end for shift > 1 and is the identity
    for shift = 1.
    """
    u = 1.0 - np.arange(n_steps + 1) / n_steps
    times = shift * u / (1.0 + (shift - 1.0) * u)
    times[0], times[-1] = 1.0, 0.0
    return times


# ---- per-step transition math ----


def drift_coefficients(t: float, sigma_t: float) -> tuple[float, float]:
    """Coefficients (c1, c2) of the noise-corrected drift c1*v + c2*x, for
    one step or elementwise over arrays of steps."""
    half = sigma_t * sigma_t / (2.0 * t)
    return 1.0 + half * (1.0 - t), half


def cfg_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, w: float) -> np.ndarray:
    return np.asarray(v_uncond) + w * (np.asarray(v_cond) - np.asarray(v_uncond))


@dataclass(frozen=True)
class StepTable:
    """The per-step constants of one timestep schedule at one noise level,
    computed once by step_table: row k holds step k, from t = times[k] to
    times[k + 1]."""

    times: np.ndarray   # (n+1,) the schedule
    sigma_level: float
    dts: np.ndarray     # (n,) step sizes
    feats: np.ndarray   # (n, N_TIME_FEATS) time features
    sig: np.ndarray     # (n,) noise level sigma_t = sigma_level * sqrt(t)
    c1: np.ndarray      # (n,) drift coefficients of c1 * v + c2 * x
    c2: np.ndarray      # (n,)
    std: np.ndarray     # (n,) transition std sigma_t * sqrt(dt)

    def transition_mean(self, k, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The mean x - (c1 v + c2 x) dt of the noise-injected step k from the
        states x at the velocities v: k one step for every row of x, or an
        array of steps, one per row."""
        c1, c2, dt = self.c1[k], self.c2[k], self.dts[k]
        if np.ndim(k):
            c1, c2, dt = c1[:, None], c2[:, None], dt[:, None]
        return x - (c1 * v + c2 * x) * dt


def step_table(times: np.ndarray, sigma_level: float = 0.0) -> StepTable:
    """The StepTable of the schedule `times` at `sigma_level`."""
    t = times[:-1]
    dts = t - times[1:]
    sig = sigma_level * np.sqrt(t)
    c1, c2 = drift_coefficients(t, sig)
    return StepTable(times, sigma_level, dts, time_features(t), sig, c1, c2, sig * np.sqrt(dts))


def evals_per_step(cfg_scale: float) -> int:
    """Velocity-net evaluations per sample per denoising step; a guidance
    scale of exactly 1 needs only the conditional branch."""
    return 1 if cfg_scale == 1.0 else 2


# ---- rollout record ----


@dataclass
class FlowBatch:
    """One lockstep denoising pass over B rows along the schedule and noise
    level of `steps`.  `pool[i]` holds row i's token pooling weights,
    `states[k]` every row's latent before schedule step k and `states[-1]`
    the samples, and `drift[k]`, given a frozen
    reference, each row's squared distance there between the conditional
    branch and the reference velocity.  Row i is stochastic for the W steps
    from `starts[i]`; `mu` holds its sampling-time transition mean at them."""

    pool: np.ndarray       # (B, vocab)
    steps: StepTable
    states: np.ndarray     # (n+1, B, DIM), step-major
    starts: np.ndarray     # (B,)
    mu: np.ndarray         # (B, W, DIM)
    cfg_scale: float
    drift: np.ndarray | None  # (n, B), step-major, with a reference only

    @property
    def evals_per_row(self) -> int:
        return len(self.steps.dts) * evals_per_step(self.cfg_scale)

    @property
    def velocity_evals(self) -> int:
        return self.evals_per_row * len(self.starts)


@dataclass
class FlowUpdateBatch:
    """Everything a flow surrogate needs besides theta, built once per update:
    one row per (trajectory, window step), row-major."""

    rows: np.ndarray        # (n,) trajectory of each row, a row of the rollout
    ks: np.ndarray          # (n,) schedule step of each row
    xs: np.ndarray          # (n, DIM) state before the step
    inputs: np.ndarray      # (S, n, arch[0]) velocity-net input, a slice per guidance branch
    pool: np.ndarray        # (n, vocab) pooling weights
    steps: StepTable        # the rollout's steps, whose transition_mean gives mu
    c1: np.ndarray          # (n, 1) c1 and
    neg_dt: np.ndarray      # (n, 1) -dt, for the VJP's dmu / dv = -c1 dt
    mu_old: np.ndarray | None  # (n, DIM) transition mean at the sampling parameters, once known
    eps: np.ndarray         # (n, DIM) sampled noise
    adv: np.ndarray         # (n,)
    weight: np.ndarray      # (n,) 1 / rows
    cfg_scale: float
    v_ref: np.ndarray | None  # (n, DIM) reference velocity, None without a regularizer
    reg_scale: np.ndarray | None  # (n,) penalty weight: reg_weight * weight (* kappa, latent-kl)


class FlowPolicy:
    def __init__(self, cond_dim: int, hidden: int):
        self.vocab = VOCAB_SIZE
        self.cond_dim = cond_dim
        self.arch = (DIM + N_TIME_FEATS + cond_dim, hidden, hidden, DIM)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        blocks = {"cemb": rng.normal(0.0, 0.3, size=(self.vocab, self.cond_dim))}
        blocks.update(init_mlp_blocks(rng, self.arch, final_zero=True))
        return ParamSet(blocks)

    # ---- conditioning ----

    def pool_weights(self, traces: np.ndarray) -> np.ndarray:
        """(len(traces), vocab) mean-pooling weights of the trace rows
        `traces`: row i holds each token's share of trace i."""
        n = len(traces)
        lens = trace_lengths(traces)
        owner, col = np.nonzero(np.arange(traces.shape[1]) < lens[:, None])
        cells = owner * self.vocab + traces[owner, col]
        shares = (1.0 / lens)[owner]
        return np.bincount(cells, weights=shares, minlength=n * self.vocab).reshape(n, self.vocab)

    def cond_var(self, tape: Tape, params: ParamSet, pool: np.ndarray,
                 inputs: np.ndarray) -> Var:
        """The velocity-net input buffer `inputs`, (n, arch[0]) rows or
        (S, n, arch[0]) slices, as one tape node, after writing the condition
        columns of its rows (of slice 0) pooled from `pool` (each row's pooling
        weights; a zero row is the unconditional input); differentiable
        w.r.t. the embedding table through those columns.  The gradient it
        takes is that of those rows, as mlp_var passes it."""
        cemb = tape.param(params, "cemb")
        k = DIM + N_TIME_FEATS
        (inputs if inputs.ndim == 2 else inputs[0])[:, k:] = pool @ cemb.value
        return tape.node(inputs, [cemb], lambda g: (pool.T @ g[:, k:].copy(),))

    # ---- velocity net ----

    def velocity_np(self, params, rows: np.ndarray,
                    cfg_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Velocity at the net's input rows [x | time features | condition],
        laid out as field_inputs lays them out: (n, arch[0]) rows or
        (S, n, arch[0]) slices of one forward (mlp_forward_np).  Returns it and
        the forward's output; a guidance scale other than 1 combines slice 0,
        the conditional branch, with slice 1, the unconditional one."""
        out = mlp_forward_np(params, rows, self.arch, "tanh")
        v = out if out.ndim == 2 else out[0]
        return (v if cfg_scale == 1.0 else cfg_velocity(v, out[1], cfg_scale)), out

    def field_inputs(self, params: ParamSet, pool: np.ndarray, cfg_scale: float,
                     ref_params: ParamSet | None = None):
        """slice_blocks and the input buffer of one velocity forward over the
        pooling rows `pool`, a slice per field: the conditional branch, under
        guidance the unconditional one (condition zeroed), and with
        `ref_params` the frozen reference, conditioned through its own `cemb`.
        The caller writes [x | time features]; one slice comes back 2-D.  The
        samplers lay out each pass with it."""
        fields = [params] * evals_per_step(cfg_scale) + [ref_params] * (ref_params is not None)
        inputs = np.empty((len(fields), len(pool), self.arch[0]))
        for s, f in enumerate(fields):
            unconditional = s == 1 and cfg_scale != 1.0
            inputs[s, :, DIM + N_TIME_FEATS:] = 0.0 if unconditional else pool @ f["cemb"]
        inputs = inputs if len(fields) > 1 else inputs[0]
        return slice_blocks(fields, len(pool), self.arch), inputs

    # ---- rollouts ----

    def _denoise(self, params: ParamSet, traces: np.ndarray, steps: StepTable,
                 x1: np.ndarray, window_starts, window_size: int, eps: np.ndarray,
                 cfg_scale: float, ref_params: ParamSet | None = None) -> FlowBatch:
        """Lockstep denoising of every row of x1 along `steps`, one velocity_np
        call per step over the blocks and buffer field_inputs builds once per
        pass; with `ref_params` the reference slice's distance from the
        conditional branch is the drift.  Row i conditions on the trace row
        traces[i]; for the window_size steps from window_starts[i] it takes the
        noise-injected step, its j-th with noise eps[i, j], and every other
        step is plain Euler; a step any window covers copies its transition
        mean + s * noise onto the rows inside."""
        n, B = len(steps.dts), len(traces)
        starts = np.asarray(window_starts, dtype=np.int64)
        dts = steps.dts
        rows = np.arange(B)[:, None]
        slots = starts[:, None] + np.arange(window_size)  # (B, W) step of each window slot
        covered = set()  # the steps some window covers
        if window_size:
            inside = np.zeros((n, B, 1), dtype=bool)
            inside[slots, rows] = True
            noise = np.zeros((n, B, DIM))
            noise[slots, rows] = eps
            covered = set(np.flatnonzero(inside.any(axis=(1, 2))).tolist())
        states = np.empty((n + 1, B, DIM))
        states[0] = x1
        means = np.empty((n, B, DIM))
        pool = self.pool_weights(traces)
        net, inputs = self.field_inputs(params, pool, cfg_scale, ref_params)
        diff = None if ref_params is None else np.empty((n, B, DIM))
        for k, f in enumerate(steps.feats):
            x = states[k]
            inputs[..., :DIM] = x
            inputs[..., DIM:DIM + N_TIME_FEATS] = f
            v, out = self.velocity_np(net, inputs, cfg_scale)
            if diff is not None:
                np.subtract(out[0], out[-1], out=diff[k])
            np.subtract(x, v * dts[k], out=states[k + 1])
            if k in covered:
                means[k] = steps.transition_mean(k, x, v)
                np.copyto(states[k + 1], means[k] + steps.std[k] * noise[k], where=inside[k])
        mu = means[slots, rows]
        drift = None if diff is None else np.sum(diff * diff, axis=2)
        return FlowBatch(pool, steps, states, starts, mu, cfg_scale, drift)

    def hybrid_rollout(self, params: ParamSet, traces: np.ndarray, steps: StepTable,
                       x1: np.ndarray, window_starts, window_size: int, eps: np.ndarray,
                       cfg_scale: float = 1.0) -> FlowBatch:
        """Training rollouts at the noise level of `steps`: each row stochastic
        inside its own window, with the (B, window_size, DIM) window noise eps."""
        return self._denoise(params, traces, steps, x1, window_starts, window_size, eps,
                             cfg_scale)

    def ode_rollout_batch(self, params: ParamSet, traces: np.ndarray, steps: StepTable,
                          x1: np.ndarray, cfg_scale: float = 1.0,
                          ref_params: ParamSet | None = None) -> FlowBatch:
        """Deterministic Euler sampling of every row of x1; with `ref_params`, its drift too."""
        return self._denoise(params, traces, steps, x1, [0] * len(traces), 0,
                             np.zeros((len(traces), 0, DIM)), cfg_scale, ref_params)

    # ---- flow-matching pretraining ----

    def fm_loss_frozen(
        self, params: ParamSet, x0: np.ndarray, pool: np.ndarray, t: np.ndarray, x1: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """Rectified-flow regression with all randomness supplied by the caller:
        regress v(x_t, t, cond) onto x_1 - x_0 along the linear path.  `pool`
        holds each row's pooling weights, a zero row for a dropped condition."""
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        tape = Tape()
        x = self.cond_var(tape, params, pool, np.concatenate(
            [xt, time_features(t), np.empty((len(t), self.cond_dim))], axis=1))
        v = mlp_var(tape, params, x, self.arch, "tanh")
        diff = v.value - (x1 - x0)
        scale = 1.0 / len(x0)
        loss = np.sum((diff * diff).sum(axis=1) * scale)
        tape.output = tape.node(loss, [v], lambda g: (2.0 * diff * (g * scale),))
        return float(loss), tape.param_grads(1.0)

    def pretrain(
        self,
        params: ParamSet,
        conds,
        x0: np.ndarray,
        epochs: int,
        lr: float,
        batch_size: int,
        p_uncond: float,
        rng: np.random.Generator,
    ):
        """Flow-matching pretraining on the condition trace rows `conds` and
        the (n, DIM) targets `x0`, plus a quadrant-accuracy report from
        deterministic sampling.  The (n, vocab) pooling weights are built
        once; each batch slices them and x0 and draws its (t, x_1, dropout)
        from `rng`, a dropped row's pooling weights zeroed.  An epoch's loss
        weighs each batch by its rows."""
        pool_all = self.pool_weights(conds)

        def batch_loss(params, sel):
            t = 1.0 - rng.random(len(sel))  # Uniform(0, 1]
            x1 = rng.standard_normal((len(sel), DIM))
            pool = pool_all[sel] * (rng.random(len(sel)) >= p_uncond)[:, None]
            return (*self.fm_loss_frozen(params, x0[sel], pool, t, x1), len(sel))

        params, epoch_losses = fit(params, len(x0), epochs, batch_size, lr, rng, batch_loss)
        return params, {**self.quadrant_accuracy(params, rng), "epoch_losses": epoch_losses}

    def quadrant_accuracy(self, params: ParamSet, rng) -> dict:
        """Mean and smallest share, over the attribute tuples, of deterministic
        samples landing in the conditioned quadrant: 200 per tuple, 20 steps,
        shift 3."""
        steps = step_table(timestep_schedule(20, 3.0))
        ids = np.arange(0, len(PROMPT_DRAWS), N_SYNONYMS**3)  # each tuple's first prompt
        mu, _ = targets(PROMPT_DRAWS[ids, :3])
        shares = []
        for trace, target in zip(CANONICAL_TRACES[ids], mu):
            x1 = rng.standard_normal((200, DIM))
            x0 = self.ode_rollout_batch(params, np.tile(trace, (200, 1)), steps, x1).states[-1]
            shares.append(float((np.sign(x0) == np.sign(target)).all(axis=1).mean()))
        return {"quadrant_accuracy_mean": float(np.mean(shares)),
                "quadrant_accuracy_min": float(np.min(shares))}

    # ---- GRPO surrogate ----

    def prepare_batch(self, batch: FlowBatch, traj: np.ndarray, advantages: np.ndarray,
                      reg_mode: str, reg_weight: float, ref_params: ParamSet) -> FlowUpdateBatch:
        """The per-update part of the surrogate over the trajectories `traj`,
        rows of `batch` gathered from it once, whose advantages are
        `advantages`: one row per (trajectory, window step), row-major, with
        its state, the batch's StepTable and its step's rows of it, sampled noise
        eps = (x' - mu) / s from the rollout's means, pooling weights, and the
        frozen reference's velocity there; the old means are left to the first
        surrogate_loss call.  The velocity net's input is laid out once, a
        slice per guidance branch: states and time features in every slice,
        the unconditional slice's condition zeroed; the reference runs on it
        with slice 0 conditioned through its own `cemb`, and each
        surrogate_loss rewrites only that condition.  Both regularizers are
        one velocity penalty, `reg_weight` times the row weight per row: with
        equal transition variances mu - mu_ref = -c1 dt (v - v_ref), so the
        latent KL is the velocity MSE weighted per step by
        kappa = c1^2 dt / (2 sigma_t^2).  A non-finite stored mean or next
        state is a NumericError naming its trajectory, a row of `batch`, and
        step."""
        B, W = len(traj), batch.mu.shape[1]
        steps = batch.steps

        rows = np.repeat(traj, W)
        ks = (batch.starts[traj][:, None] + np.arange(W)).ravel()
        mu, x_next = batch.mu[traj].reshape(-1, DIM), batch.states[ks + 1, rows]
        bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(x_next)).all(axis=1))
        if bad.size:
            raise NumericError(f"non-finite flow rollout at trajectory {rows[bad[0]]}, "
                               f"step {ks[bad[0]]}")
        xs = batch.states[ks, rows]
        dts = steps.dts[ks]
        eps = (x_next - mu) / steps.std[ks, None]
        pool = batch.pool[rows]
        c1 = steps.c1[ks, None]
        inputs = np.empty((evals_per_step(batch.cfg_scale), B * W, self.arch[0]))
        inputs[..., :DIM] = xs
        inputs[..., DIM:DIM + N_TIME_FEATS] = steps.feats[ks]
        inputs[1:, :, DIM + N_TIME_FEATS:] = 0.0
        weight = np.full(B * W, 1.0 / (B * W))
        v_ref = reg_scale = None
        if reg_mode != "none":
            # frozen-reference velocities at the stored states, constant in theta
            inputs[0, :, DIM + N_TIME_FEATS:] = pool @ ref_params["cemb"]
            v_ref, _ = self.velocity_np(ref_params, inputs, batch.cfg_scale)
            kappa = c1[:, 0]**2 * dts / (2.0 * steps.sig[ks]**2) if reg_mode == "latent-kl" else 1.0
            reg_scale = reg_weight * (weight * kappa)
        return FlowUpdateBatch(
            rows, ks, xs, inputs, pool, steps, c1, -dts[:, None], None, eps,
            np.repeat(advantages, W), weight, batch.cfg_scale, v_ref, reg_scale,
        )

    def surrogate_loss(
        self, params: ParamSet, batch: FlowUpdateBatch, clip_eps: float,
    ) -> tuple[float, np.ndarray, LossStats]:
        """Clipped objective over each row's stochastic window with
        standardized ratios, minus the batch's drift penalty evaluated at the
        stored states against the frozen reference.  Each row weighs
        1/B, so one call over several groups equals the mean of per-group
        calls.  mu is the step's transition_mean.  With eps = (x' - mu_old) / s
        the sampled noise, the standardized log ratio
        s (log N(x' | mu, s^2) - log N(x' | mu_old, s^2) + |mu - mu_old|^2 / 2s^2)
        is exactly eps . (mu - mu_old); the LossStats return each row's
        ratio, the exp of it.  The first call on a batch must be at the sampling
        parameters: its means become the old means, so its ratios are exactly
        1.  The velocity net is one node over the batch's input slices (both
        guidance branches), and everything after it one fused head node."""
        b = batch
        tape = Tape()
        x = self.cond_var(tape, params, b.pool, b.inputs)
        net = mlp_var(tape, params, x, self.arch, "tanh")
        out = net.value
        v = out[0] if len(out) == 1 else cfg_velocity(out[0], out[1], b.cfg_scale)
        mu = b.steps.transition_mean(b.ks, b.xs, v)
        if b.mu_old is None:
            b.mu_old = mu
        log_rt = ((mu - b.mu_old) * b.eps).sum(axis=1)
        rt = np.exp(log_rt)
        bad = np.flatnonzero(~(np.isfinite(log_rt) & np.isfinite(rt)))
        if bad.size:
            raise NumericError(
                f"non-finite flow ratio at trajectory {b.rows[bad[0]]}, step {b.ks[bad[0]]}"
            )

        j, clip_vjp, stats = clipped_objective(rt, b.adv, b.weight, clip_eps)
        if b.v_ref is not None:
            diff = v - b.v_ref
            penalty = np.sum((diff * diff).sum(axis=1) * b.reg_scale)
            stats.reg_value = float(penalty)
            j = j - penalty

        def vjp(g):
            g_v = (clip_vjp(g) * rt)[:, None] * b.eps * b.neg_dt * b.c1
            if b.v_ref is not None:
                g_v = 2.0 * diff * ((-g) * b.reg_scale)[:, None] + g_v
            if len(out) == 1:
                return (g_v[None],)
            g_cond = g_v * b.cfg_scale
            return (np.stack([g_cond, g_v - g_cond]),)

        tape.output = tape.node(j, [net], vjp)
        return float(j), tape.param_grads(1.0), stats
