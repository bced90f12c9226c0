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

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, NumericError
from .nn import (LossStats, ParamSet, clipped_objective, fit, init_mlp_blocks, mlp_forward_np,
                 mlp_var)
from .task import (BANDS, CANONICAL_TRACES, N_SYNONYMS, PROMPT_DRAWS, QUADRANTS, SPREADS,
                   VOCAB_SIZE, TaskGeometry, trace_lengths)

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


def timestep_schedule(n_steps: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Times t_0=1 > ... > t_n=0 on the shifted grid, plus per-step dt.

    The uniform grid u is mapped by t = shift*u / (1 + (shift-1)*u), which
    concentrates steps near the data end for shift > 1 and is the identity
    for shift = 1.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if shift < 1.0:
        raise ConfigError("timestep shift must be >= 1")
    u = 1.0 - np.arange(n_steps + 1) / n_steps
    times = shift * u / (1.0 + (shift - 1.0) * u)
    times[0], times[-1] = 1.0, 0.0
    return times, times[:-1] - times[1:]


# ---- per-step transition math ----


def drift_coefficients(t: float, sigma_t: float) -> tuple[float, float]:
    """Coefficients (c1, c2) of the noise-corrected drift c1*v + c2*x, for
    one step or elementwise over arrays of steps."""
    if np.any(np.asarray(t) <= 0.0):
        raise NumericError("stochastic step requested at t=0 (singular drift)")
    half = sigma_t * sigma_t / (2.0 * t)
    return 1.0 + half * (1.0 - t), half


def sde_step_values(x, v, t, dt, sigma_t, eps):
    """(mu, s, x_next) for one noise-injected step given the velocity value."""
    c1, c2 = drift_coefficients(t, sigma_t)
    mu = x - (c1 * v + c2 * x) * dt
    s = sigma_t * np.sqrt(dt)
    return mu, s, mu + s * eps


def transition_logprob(mu: np.ndarray, s: float, x_next: np.ndarray):
    """Isotropic Gaussian log-density of x_next under N(mu, s^2 I), taken over
    the last axis: a float for one point, an array for a batch of rows."""
    if s <= 0.0:
        raise NumericError("transition std must be positive")
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * s * s)
            - np.sum((np.asarray(x_next) - mu) ** 2, axis=-1) / (2.0 * s * s))


def ratio_norm(log_r: float, dmu: np.ndarray, sigma_t: float, dt: float) -> float:
    """Standardized importance ratio: the log ratio is shifted by its Gaussian
    expectation and scaled by the transition std so clipping bounds act
    symmetrically across timesteps."""
    scale = sigma_t * np.sqrt(dt)
    if scale <= 0.0:
        raise NumericError("ratio normalization needs sigma_t * sqrt(dt) > 0")
    correction = float(np.sum(np.asarray(dmu) ** 2)) / (2.0 * sigma_t**2 * dt)
    return float(np.exp(scale * (log_r + correction)))


def latent_kl(mu_theta: np.ndarray, mu_ref: np.ndarray, sigma_t: float, dt: float) -> float:
    """Exact KL between equal-variance Gaussian transitions."""
    var = sigma_t**2 * dt
    if var <= 0.0:
        raise NumericError("latent KL needs positive transition variance")
    return float(np.sum((np.asarray(mu_theta) - np.asarray(mu_ref)) ** 2) / (2.0 * var))


def cfg_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, w: float) -> np.ndarray:
    return np.asarray(v_uncond) + w * (np.asarray(v_cond) - np.asarray(v_uncond))


def evals_per_step(cfg_scale: float) -> int:
    """Velocity-net evaluations per sample per denoising step; a guidance
    scale of exactly 1 needs only the conditional branch."""
    return 1 if cfg_scale == 1.0 else 2


# ---- rollout record ----


@dataclass
class FlowBatch:
    """One lockstep denoising pass over B rows.  `pool[i]` holds row i's
    token pooling weights, `states[k]` every row's latent before schedule
    step k and `states[-1]` the samples, and `velocities[k]` the
    conditional-branch velocity the sampler evaluated at `states[k]`.  Row i
    is stochastic for the W steps from `starts[i]`; `mu` holds its
    sampling-time transition mean at those steps."""

    pool: np.ndarray       # (B, vocab)
    times: np.ndarray
    states: np.ndarray     # (n+1, B, DIM), step-major
    velocities: np.ndarray  # (n, B, DIM), step-major
    starts: np.ndarray     # (B,)
    mu: np.ndarray         # (B, W, DIM)
    sigma_level: float
    cfg_scale: float

    @property
    def evals_per_row(self) -> int:
        return (len(self.times) - 1) * evals_per_step(self.cfg_scale)

    @property
    def velocity_evals(self) -> int:
        return self.evals_per_row * len(self.starts)

    def take(self, rows) -> FlowBatch:
        return replace(self, pool=self.pool[rows], states=self.states[:, rows],
                       velocities=self.velocities[:, rows], starts=self.starts[rows],
                       mu=self.mu[rows])


@dataclass
class FlowUpdateBatch:
    """Everything a flow surrogate needs besides theta, built once per update:
    one row per (trajectory, window step), row-major."""

    rows: np.ndarray        # (n,) trajectory of each row
    ks: np.ndarray          # (n,) schedule step of each row
    xs: np.ndarray          # (n, DIM) state before the step
    xt: np.ndarray          # (n, DIM + N_TIME_FEATS) state and time features
    xt_null: np.ndarray | None  # xt plus a zero condition, under guidance only
    pool: np.ndarray        # (n, vocab) pooling weights
    c1: np.ndarray          # (n, 1) drift coefficients c1 * v + c2 * x
    c2x: np.ndarray         # (n, DIM) c2 * x
    neg_dt: np.ndarray      # (n, 1) -dt
    mu_old: np.ndarray | None  # (n, DIM) transition mean at the sampling parameters, once known
    eps: np.ndarray         # (n, DIM) sampled noise
    adv: np.ndarray         # (n,)
    weight: np.ndarray      # (n,) 1 / rows
    cfg_scale: float
    v_ref: np.ndarray | None  # (n, DIM) reference velocity, None without a regularizer
    reg_scale: np.ndarray | None  # (n,) penalty weight: reg_weight * weight (* kappa, latent-kl)


class FlowPolicy:
    def __init__(self, vocab_size: int = VOCAB_SIZE, cond_dim: int = 8, hidden: int = 64):
        self.vocab = vocab_size
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

    def cond_var(self, tape: Tape, params: ParamSet, pool: np.ndarray, xt: np.ndarray) -> Var:
        """Velocity-net input [xt | condition] as one tape node, the condition
        pooled from `pool` (each row's pooling weights; a zero row is the
        unconditional input); differentiable w.r.t. the embedding table."""
        cemb = tape.param(params, "cemb")
        k = xt.shape[1]
        return tape.node(np.concatenate([xt, pool @ cemb.value], axis=1), [cemb],
                         lambda g: (pool.T @ g[:, k:].copy(),))

    # ---- velocity net ----

    def velocity_np(self, params: ParamSet, rows: np.ndarray, cfg_scale: float = 1.0,
                    cond_out: np.ndarray | None = None) -> np.ndarray:
        """Velocity at the net's (n, arch[0]) input rows [x | time features |
        condition]; a guidance scale other than 1 combines it with the
        unconditional branch, the same forward's rows of a stacked copy with
        the condition columns zeroed.  `cond_out`, when given, receives the
        conditional branch."""
        n = len(rows)
        if cfg_scale != 1.0:
            rows = np.concatenate([rows, rows])
            rows[n:, DIM + N_TIME_FEATS:] = 0.0
        v = mlp_forward_np(params, rows, self.arch, "tanh")
        if cond_out is not None:
            cond_out[...] = v[:n]
        return v if cfg_scale == 1.0 else cfg_velocity(v[:n], v[n:], cfg_scale)

    def step_rows(self, cond: np.ndarray, times: np.ndarray):
        """Velocity-net inputs for each step of a schedule: one (B, arch[0])
        buffer with the condition columns written once; step k writes its
        time-feature row before yielding, and the caller writes the states
        into [:, :DIM].  Every step yields the same buffer."""
        feats = time_features(times[:-1])
        rows = np.empty((len(cond), self.arch[0]))
        rows[:, DIM + N_TIME_FEATS:] = cond
        for f in feats:
            rows[:, DIM:DIM + N_TIME_FEATS] = f
            yield rows

    # ---- rollouts ----

    def _denoise(self, params: ParamSet, traces: np.ndarray, times: np.ndarray,
                 x1: np.ndarray, window_starts, window_size: int, sigma_level: float,
                 eps: np.ndarray, cfg_scale: float) -> FlowBatch:
        """Lockstep denoising of every row of x1 with one velocity_np call per
        step over the inputs step_rows builds once per pass, keeping the
        conditional branch.  Row i conditions on the trace row traces[i];
        for the window_size steps from window_starts[i] it takes the
        noise-injected step, its j-th with noise eps[i, j] of the
        (B, window_size, DIM) eps, and every other step is plain Euler.  The
        noise is laid out by step once; a step any window covers takes every
        row's transition mean and copies mean + s * noise onto the rows inside."""
        n, B = len(times) - 1, len(traces)
        starts = np.asarray(window_starts, dtype=np.int64)
        bad = np.flatnonzero((starts < 0) | (starts + window_size > n) | (window_size < 0))
        if bad.size:
            start = int(starts[bad[0]])
            raise ConfigError(
                f"SDE window [{start}, {start + window_size}) out of range for {n} steps"
            )
        dts = times[:-1] - times[1:]
        rows = np.arange(B)[:, None]
        slots = starts[:, None] + np.arange(window_size)  # (B, W) step of each window slot
        coefs = {}  # step: (c1, c2, s) for each step some window covers
        if window_size:
            inside = np.zeros((n, B, 1), dtype=bool)
            inside[slots, rows] = True
            noise = np.zeros((n, B, DIM))
            noise[slots, rows] = eps
            ks = np.flatnonzero(inside.any(axis=(1, 2)))
            sig = sigma_level * np.sqrt(times[ks])
            coefs = dict(zip(ks.tolist(), zip(*drift_coefficients(times[ks], sig),
                                              sig * np.sqrt(dts[ks]))))
        states = np.empty((n + 1, B, DIM))
        states[0] = x1
        velocities = np.empty((n, B, DIM))
        means = np.empty((n, B, DIM))
        pool = self.pool_weights(traces)
        for k, inputs in enumerate(self.step_rows(pool @ params["cemb"], times)):
            x = states[k]
            inputs[:, :DIM] = x
            v = self.velocity_np(params, inputs, cfg_scale, velocities[k])
            np.subtract(x, v * dts[k], out=states[k + 1])
            if k in coefs:
                c1, c2, s = coefs[k]
                np.subtract(x, (c1 * v + c2 * x) * dts[k], out=means[k])
                np.copyto(states[k + 1], means[k] + s * noise[k], where=inside[k])
        mu = means[slots, rows]
        return FlowBatch(pool, times, states, velocities, starts, mu, sigma_level, cfg_scale)

    def hybrid_rollout(self, params: ParamSet, traces: np.ndarray, times: np.ndarray,
                       x1: np.ndarray, window_starts, window_size: int, sigma_level: float,
                       eps: np.ndarray, cfg_scale: float = 1.0) -> FlowBatch:
        """Training rollouts: each row stochastic inside its own window, with
        the (B, window_size, DIM) window noise eps."""
        return self._denoise(params, traces, times, x1, window_starts, window_size,
                             sigma_level, eps, cfg_scale)

    def ode_rollout_batch(self, params: ParamSet, traces: np.ndarray, times: np.ndarray,
                          x1: np.ndarray, cfg_scale: float = 1.0) -> FlowBatch:
        """Deterministic Euler sampling of every row of x1."""
        return self._denoise(params, traces, times, x1, [0] * len(traces), 0, 0.0,
                             np.zeros((len(traces), 0, DIM)), cfg_scale)

    # ---- flow-matching pretraining ----

    def fm_loss_frozen(
        self, params: ParamSet, x0: np.ndarray, pool: np.ndarray, t: np.ndarray, x1: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """Rectified-flow regression with all randomness supplied by the caller:
        regress v(x_t, t, cond) onto x_1 - x_0 along the linear path.  `pool`
        holds each row's pooling weights, a zero row for a dropped condition."""
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        tape = Tape()
        x = self.cond_var(tape, params, pool, np.concatenate([xt, time_features(t)], axis=1))
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
        report = {"epoch_losses": epoch_losses}
        report.update(self.quadrant_accuracy(params, rng))
        return params, report

    def quadrant_accuracy(self, params: ParamSet, rng, n_per_cond: int = 200,
                          n_steps: int = 20, shift: float = 3.0) -> dict:
        """Fraction of deterministic samples landing in the conditioned quadrant."""
        times, _ = timestep_schedule(n_steps, shift)
        ids = np.arange(0, len(PROMPT_DRAWS), N_SYNONYMS**3)  # each tuple's first prompt
        attrs = PROMPT_DRAWS[ids, :3]
        mu, _ = TaskGeometry().targets(attrs)
        per_cond = {}
        for (q, b, s), trace, target in zip(attrs, CANONICAL_TRACES[ids], mu):
            traces = np.tile(trace, (n_per_cond, 1))
            x1 = rng.standard_normal((n_per_cond, DIM))
            x0 = self.ode_rollout_batch(params, traces, times, x1).states[-1]
            ok = (np.sign(x0) == np.sign(target)).all(axis=1)
            per_cond[f"{QUADRANTS[q]}-{BANDS[b]}-{SPREADS[s]}"] = float(ok.mean())
        vals = list(per_cond.values())
        return {
            "quadrant_accuracy_mean": float(np.mean(vals)),
            "quadrant_accuracy_min": float(np.min(vals)),
            "quadrant_accuracy": per_cond,
        }

    # ---- GRPO surrogate ----

    def prepare_batch(self, batch: FlowBatch, advantages: np.ndarray, reg_mode: str,
                      reg_weight: float, ref_params: ParamSet) -> FlowUpdateBatch:
        """The per-update part of the surrogate: one row per (trajectory,
        window step), row-major, with its state, time features, drift
        coefficients, sampled noise eps = (x' - mu) / s from the rollout's
        means, pooling weights, and the frozen reference's velocity there; the
        old means are left to the first surrogate_loss call.  Both regularizers
        are one velocity penalty, `reg_weight` times the row weight per row:
        with equal transition variances mu - mu_ref = -c1 dt (v - v_ref), so
        the latent KL is the velocity MSE weighted per step by
        kappa = c1^2 dt / (2 sigma_t^2).  A non-finite stored mean or next
        state is a NumericError naming its trajectory and step."""
        B, W = batch.mu.shape[:2]
        assert len(advantages) == B
        if reg_mode not in ("none", "latent-kl", "velocity-mse"):
            raise ConfigError(f"unknown regularizer mode '{reg_mode}'")
        if W == 0:
            raise ConfigError("no stochastic steps recorded in this batch")
        if not batch.sigma_level > 0.0:
            raise ConfigError("windowed steps have no stochastic statistics at sigma_level 0")

        rows = np.repeat(np.arange(B), W)
        ks = (batch.starts[:, None] + np.arange(W)).ravel()
        mu, x_next = batch.mu.reshape(-1, DIM), batch.states[ks + 1, rows]
        bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(x_next)).all(axis=1))
        if bad.size:
            raise NumericError(f"non-finite flow rollout at trajectory {rows[bad[0]]}, "
                               f"step {ks[bad[0]]}")
        xs = batch.states[ks, rows]
        ts = batch.times[ks]
        dts = ts - batch.times[ks + 1]
        sig = batch.sigma_level * np.sqrt(ts)
        s = sig * np.sqrt(dts)
        eps = (x_next - mu) / s[:, None]
        pool = batch.pool[rows]
        c1, c2 = (c[:, None] for c in drift_coefficients(ts, sig))
        xt = np.concatenate([xs, time_features(ts)], axis=1)
        xt_null = None
        if batch.cfg_scale != 1.0:
            xt_null = np.concatenate([xt, np.zeros((len(xs), self.cond_dim))], axis=1)
        weight = np.full(B * W, 1.0 / (B * W))
        v_ref = reg_scale = None
        if reg_mode != "none":
            # frozen-reference velocities at the stored states, constant in theta
            v_ref = self.velocity_np(
                ref_params, np.concatenate([xt, pool @ ref_params["cemb"]], axis=1),
                batch.cfg_scale)
            kappa = c1[:, 0]**2 * dts / (2.0 * sig**2) if reg_mode == "latent-kl" else 1.0
            reg_scale = reg_weight * (weight * kappa)
        return FlowUpdateBatch(
            rows, ks, xs, xt, xt_null, pool, c1, c2 * xs, -dts[:, None], None, eps,
            np.repeat(advantages, W), weight, batch.cfg_scale, v_ref, reg_scale,
        )

    def surrogate_loss(
        self, params: ParamSet, batch: FlowUpdateBatch, clip_eps: float,
    ) -> tuple[float, np.ndarray, LossStats]:
        """Clipped objective over each row's stochastic window with
        standardized ratios, minus the batch's drift penalty evaluated at the
        stored states against the frozen reference.  Each row weighs
        1/B, so one call over several groups equals the mean of per-group
        calls.  With eps = (x' - mu_old) / s the sampled noise, ratio_norm's
        log ratio is exactly eps . (mu - mu_old) (its Gaussian normalizers and
        correction cancel).  The first call on a batch must be at the sampling
        parameters: its means become the old means, so its ratios are exactly
        1.  Everything after the velocity net is one fused head node."""
        b = batch
        tape = Tape()
        x = self.cond_var(tape, params, b.pool, b.xt)
        nets = [mlp_var(tape, params, x, self.arch, "tanh")]
        v = nets[0].value
        if b.xt_null is not None:
            nets.append(mlp_var(tape, params, tape.leaf(b.xt_null), self.arch, "tanh"))
            v = cfg_velocity(v, nets[1].value, b.cfg_scale)
        mu = (v * b.c1 + b.c2x) * b.neg_dt + b.xs
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
            if b.xt_null is None:
                return (g_v,)
            g_cond = g_v * b.cfg_scale
            return g_cond, g_v - g_cond

        tape.output = tape.node(j, nets, vjp)
        return float(j), tape.param_grads(1.0), stats
